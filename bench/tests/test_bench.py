"""Tests of the benchmark's own code: ``python3 -m pytest bench/tests``."""
from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import gen     # noqa: E402
import run     # noqa: E402
from svageval import evaluate_query  # noqa: E402
from svageval.ingest import DatasetSplit, load_ground_truth, \
    load_predictions  # noqa: E402
from svageval.pipeline import evaluate_datasets  # noqa: E402

SMALL = dataclasses.replace(gen.WORKLOADS["split"], queries=(4, 3),
                            ref_tracks=5)


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _written(tmp_path: Path, name: str, datasets) -> Path:
    out = tmp_path / name
    gen.write(datasets, out / "gt", out / "pred")
    return out


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    first = _files(_written(tmp_path, "a", gen.generate(workload, 7)))
    again = _files(_written(tmp_path, "b", gen.generate(workload, 7)))
    other = _files(_written(tmp_path, "c", gen.generate(workload, 8)))
    assert first == again
    assert first.keys() == other.keys() and first != other


@pytest.fixture(scope="module")
def scored(tmp_path_factory):
    """A small two-dataset split, scored by the engine and the reference."""
    tmp = tmp_path_factory.mktemp("small")
    datasets = gen.build(SMALL, random.Random("small"))
    gen.write(datasets, tmp / "gt", tmp / "pred")
    splits = [DatasetSplit(ds.name, load_ground_truth(tmp / "gt", ds.name),
                           load_predictions(tmp / "pred", ds.name)[0])
              for ds in datasets]
    engine = {}
    for split in splits:
        preds = {(p.video_id, p.query_id): p for p in split.predictions}
        for vid, video in split.bundle.videos.items():
            for query in video.queries:
                engine[(split.name, vid, query.query_id)] = evaluate_query(
                    video, query, preds[(vid, query.query_id)])
    final = evaluate_datasets(splits, checks.NMS, jobs=1)
    report = (tmp / "report.json")
    from svageval.report import write_report
    write_report(final, report)
    return {"datasets": datasets, "counts": gen.counts(datasets),
            "ref": checks.reference(datasets), "engine": engine,
            "final": final, "report": report.read_bytes()}


def _names(failures) -> set[str]:
    return {f.check for f in failures}


def test_clean_results_pass_every_check(scored):
    s = scored
    assert checks.check_queries(s["engine"], s["ref"]) == []
    assert checks.check_final(s["final"], s["datasets"], s["counts"],
                              s["ref"]) == []
    assert checks.check_report_bytes(s["report"], s["report"],
                                     s["datasets"], s["counts"]) == []


def _replace_dataset(final, index, **changes):
    reports = list(final.datasets)
    reports[index] = dataclasses.replace(reports[index], **changes)
    return dataclasses.replace(final, datasets=tuple(reports))


def test_tp_off_by_one_is_rejected(scored):
    s = scored
    spatial = s["final"].datasets[0].spatial
    final = _replace_dataset(s["final"], 0, spatial=dataclasses.replace(
        spatial, tp=spatial.tp + 1))
    failures = checks.check_final(final, s["datasets"], s["counts"], s["ref"])
    assert {"tp_plus_fn", "tp_plus_fp"} <= _names(failures)
    name = s["final"].datasets[0].name
    failed = set().union(*(f.queries for f in failures))
    assert failed and all(key[0] == name for key in failed)


def test_swapped_temporal_blocks_are_rejected(scored):
    s = scored
    first, second = s["final"].datasets[:2]
    assert first.temporal != second.temporal
    final = _replace_dataset(s["final"], 0, temporal=second.temporal)
    final = _replace_dataset(final, 1, temporal=first.temporal)
    failures = checks.check_final(final, s["datasets"], s["counts"], s["ref"])
    assert _names(failures) == {"dataset_temporal"}
    assert len(failures) == 2


def test_one_byte_jobs2_difference_is_rejected(scored):
    s = scored
    other = s["report"].replace(b'"query_count"', b'"query_counT"', 1)
    failures = checks.check_report_bytes(s["report"], other, s["datasets"],
                                         s["counts"])
    assert _names(failures) == {"jobs_identical"}


def test_report_counts_and_leaderboard_are_checked(scored):
    s = scored
    name = s["datasets"][0].name
    doc = json.loads(s["report"])
    doc["datasets"][name]["spatial"]["fn"] += 1
    doc["m_hiou"] = min(1.0, doc["m_hiou"] + 0.01)
    bad = json.dumps(doc).encode()
    failures = checks.check_report_bytes(bad, bad, s["datasets"], s["counts"])
    assert _names(failures) == {"report_tp_plus_fn", "m_hiou"}


def test_m_hiou_and_ratio_range_are_checked(scored):
    s = scored
    final = dataclasses.replace(s["final"], m_hiou=s["final"].m_hiou + 1e-6)
    failures = checks.check_final(final, s["datasets"], s["counts"], s["ref"])
    assert _names(failures) == {"m_hiou"}
    final = dataclasses.replace(s["final"], m_hiou=1.5)
    failures = checks.check_final(final, s["datasets"], s["counts"], s["ref"])
    assert _names(failures) == {"m_hiou", "ratio_range"}


def test_query_components_and_id_map_are_checked(scored):
    s = scored
    key = sorted(s["engine"])[0]
    components, pairs = s["engine"][key]
    engine = dict(s["engine"])
    engine[key] = (dataclasses.replace(components,
                                       det_re=components.det_re + 1e-7),
                   pairs)
    failures = checks.check_queries(engine, s["ref"])
    assert _names(failures) == {"query_components"}
    assert failures[0].queries == {key}
    wrong = [dataclasses.replace(p, predictions=()) for p in pairs]
    engine[key] = (components, wrong)
    assert _names(checks.check_queries(engine, s["ref"])) == {"query_id_map"}
    del engine[key]
    assert _names(checks.check_queries(engine, s["ref"])) == {"query_scored"}


def test_self_time_subtracts_child_spans():
    spans = [["pipeline.evaluate_split", 0.0, 10.0, -1],
             ["pipeline.evaluate_query", 1.0, 4.0, 0],
             ["spatial.hota_sweep", 1.5, 3.5, 1],
             ["pipeline.evaluate_query", 5.0, 9.0, 0]]
    assert run._self(spans, "pipeline.evaluate_split") == 3.0
    assert run._self(spans, "pipeline.evaluate_query") == 5.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "split", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_run_records_layers_and_keeps_the_report(tmp_path):
    datasets = gen.build(SMALL, random.Random("traced"))
    gen.write(datasets, tmp_path / "gt", tmp_path / "pred")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    names = ",".join(ds.name for ds in datasets)
    reports = []
    for jobs, traced in ((1, False), (2, True)):
        out = tmp_path / f"report{jobs}.json"
        head = ([str(BENCH / "traced.py"), str(tmp_path / "spans.json")]
                if traced else ["-m", "svageval.cli"])
        subprocess.run(
            [sys.executable, *head, "evaluate", "--gt", str(tmp_path / "gt"),
             "--pred", str(tmp_path / "pred"), "--datasets", names,
             "--out", str(out), "--jobs", str(jobs)],
            env=env, check=True, capture_output=True, timeout=120)
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    trace = json.loads((tmp_path / "spans.json").read_text())
    assert trace["pickled_bytes"] > 0
    spans = {span[0] for span in trace["spans"]}
    assert {"ingest.load_ground_truth", "pipeline.evaluate_datasets",
            "report.write_report"} <= spans
