import ast
import inspect
from pathlib import Path

import svageval

# Every public name `import svageval` gives, submodules aside. Adding a
# name to the package's API, or removing one, is an edit to this list.
PUBLIC_NAMES = [
    "ALPHAS", "BoundingBox", "DatasetReport", "DatasetSplit", "Detection",
    "Diagnostic", "FinalReport", "GroundTruthBundle", "HotaComponents",
    "HotaSweep", "IngestError", "PredictionSet", "Query", "Referent",
    "ScoredSegment", "TemporalMetrics", "TemporalPair", "TemporalSegment",
    "Track", "ValidationError", "VideoGroundTruth", "build_final_report",
    "build_temporal_pairs", "compute_stats", "cross_dataset_mean",
    "evaluate_datasets", "evaluate_query", "evaluate_temporal", "hota_sweep",
    "load_split", "m_hiou", "nms", "parse_prediction_bundle",
    "parse_query_json", "parse_track_csv", "temporal_iou", "validate_split",
    "write_report",
]

ROOT = Path(__file__).resolve().parent.parent


def test_public_surface_is_pinned():
    exported = sorted(name for name, value in vars(svageval).items()
                      if not name.startswith("_")
                      and not inspect.ismodule(value))
    assert exported == PUBLIC_NAMES


def _unused_imports(path):
    """The names a module imports and never reads; `from __future__`
    imports are exempt."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif (isinstance(node, ast.ImportFrom)
                and node.module != "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return sorted(f"{path.relative_to(ROOT)}:{line}: {name}"
                  for name, line in imported.items() if name not in read)


def test_no_unused_imports():
    """Every name the package's modules and the tests import is read. The
    package's `__init__.py` is exempt: its imports are the API."""
    paths = [path for path in sorted((ROOT / "src" / "svageval").glob("*.py"))
             if path.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py"))
    assert [line for path in paths for line in _unused_imports(path)] == []
