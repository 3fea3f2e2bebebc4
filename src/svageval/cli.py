"""Command-line entry point.

Subcommands:
  evaluate  run the full pipeline and write the leaderboard report
  validate  check a split for cross-file inconsistencies
  stats     print benchmark density statistics
  synth     generate a synthetic split in the ingest formats

Exit codes: 0 success, 1 I/O or parse error, 2 validation errors.
Diagnostics go to standard error; ``SVAGEVAL_LOG`` selects the log level
(error, warn, info, debug).
"""
from __future__ import annotations

import argparse
import gc
import logging
import os
import sys
from pathlib import Path

from .ingest import (
    IngestError,
    compute_stats,
    load_ground_truth,
    load_split,
    validate_split,
)
from .model import ValidationError
from .pipeline import evaluate_datasets
from .report import report_to_dict, write_report
from ._util import format_fixed, usable_cpus

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2

DEFAULT_DATASETS = "ovis,mot17,mot20"


def _setup_logging() -> None:
    level_name = os.environ.get("SVAGEVAL_LOG", "warn").lower()
    level = {"error": logging.ERROR, "warn": logging.WARNING,
             "warning": logging.WARNING, "info": logging.INFO,
             "debug": logging.DEBUG}.get(level_name, logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def _parse_nms(value: str) -> float | None:
    if value == "off":
        return None
    try:
        threshold = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--nms must be a float or 'off', got {value!r}")
    if not 0.0 <= threshold <= 1.0:
        raise argparse.ArgumentTypeError("--nms must be in [0, 1] or 'off'")
    return threshold


def _parse_jobs(value: str) -> int:
    if value == "auto":
        return usable_cpus()
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--jobs must be an integer or 'auto', got {value!r}")
    if jobs < 1:
        raise argparse.ArgumentTypeError("--jobs must be >= 1 or 'auto'")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svageval",
        description="Evaluation toolkit for multi-referent spatio-temporal "
                    "video action grounding")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="run the full pipeline")
    p_eval.add_argument("--gt", required=True, help="ground-truth root")
    p_eval.add_argument("--pred", required=True, help="prediction root")
    p_eval.add_argument("--datasets", default=DEFAULT_DATASETS,
                        help="comma-separated dataset names "
                             f"(default {DEFAULT_DATASETS})")
    p_eval.add_argument("--nms", type=_parse_nms, default=0.7,
                        help="temporal NMS threshold, or 'off' (default 0.7)")
    p_eval.add_argument("--out", required=True, help="report JSON path")
    p_eval.add_argument("--jobs", type=_parse_jobs, default="1",
                        help="worker processes, or 'auto' (default 1)")

    p_val = sub.add_parser("validate", help="check split consistency")
    p_val.add_argument("--gt", required=True)
    p_val.add_argument("--pred", default=None)
    p_val.add_argument("--datasets", default=DEFAULT_DATASETS)

    p_stats = sub.add_parser("stats", help="print density statistics")
    p_stats.add_argument("--gt", required=True)
    p_stats.add_argument("--datasets", default=DEFAULT_DATASETS)

    p_synth = sub.add_parser("synth", help="generate a synthetic split")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--dataset", default="ovis",
                         help="dataset name to write under (default ovis)")
    p_synth.add_argument("--frames", type=int, default=12)
    p_synth.add_argument("--tracks", type=int, default=3)
    p_synth.add_argument("--queries", type=int, default=2)
    p_synth.add_argument("--box-jitter", type=float, default=0.0)
    p_synth.add_argument("--id-switch-prob", type=float, default=0.0)
    p_synth.add_argument("--drop-prob", type=float, default=0.0)
    p_synth.add_argument("--segment-noise", type=int, default=0)
    p_synth.add_argument("--distractors", type=int, default=0)
    return parser


def _dataset_names(arg: str) -> list[str]:
    names = [n.strip() for n in arg.split(",") if n.strip()]
    if not names:
        raise IngestError("<args>", "", "--datasets must name at least one "
                                        "dataset")
    for name in names:
        if names.count(name) > 1:
            raise IngestError("<args>", "", f"--datasets names {name!r} "
                                            "more than once")
    return names


def _load_and_validate(args):
    """Every dataset's split, and the diagnostics of loading and validating
    them, in that order."""
    splits = []
    diagnostics = []
    for name in _dataset_names(args.datasets):
        split, load_diags = load_split(args.gt, args.pred, name)
        splits.append(split)
        diagnostics += load_diags + validate_split(split)
    return splits, diagnostics


def _check_out(out: str) -> None:
    """Refuse a report path that cannot be written before anything is
    scored, so a long run is not lost at the end."""
    if Path(out).is_dir():
        raise IngestError(out, "", "--out is a directory")
    if not Path(out).parent.is_dir():
        raise IngestError(out, "", "--out: parent directory not found")


def cmd_evaluate(args) -> int:
    _check_out(args.out)
    splits, diagnostics = _load_and_validate(args)
    for diag in diagnostics:
        print(diag, file=sys.stderr)
    errors = [d for d in diagnostics if d.severity == "error"]
    if errors:
        print(f"{len(errors)} validation error(s); aborting", file=sys.stderr)
        return EXIT_VALIDATION
    # All that is alive now lives until exit: the collector's full passes,
    # in this process and in forked workers, need not walk it again.
    gc.freeze()
    final = evaluate_datasets(splits, args.nms, jobs=args.jobs)
    write_report(final, args.out)
    display = report_to_dict(final)["display"]["m_hiou"]
    print(f"m-HIoU: {display}")
    return EXIT_OK


def cmd_validate(args) -> int:
    _, diagnostics = _load_and_validate(args)
    for diag in diagnostics:
        print(diag, file=sys.stderr)
    return EXIT_OK if not diagnostics else EXIT_VALIDATION


def cmd_stats(args) -> int:
    datasets = _dataset_names(args.datasets)
    header = (f"{'dataset':<10} {'videos':>8} {'queries':>9} {'tracks':>8} "
              f"{'queries/video':>14} {'tracks/video':>13}")
    print(header)
    totals = {"videos": 0, "queries": 0, "tracks": 0}
    for name in datasets:
        bundle = load_ground_truth(args.gt, name)
        stats = compute_stats(bundle)
        print(f"{name:<10} {stats['videos']:>8} {stats['queries']:>9} "
              f"{stats['tracks']:>8} {stats['queries_per_video']:>14.2f} "
              f"{stats['tracks_per_video']:>13.2f}")
        for key in totals:
            totals[key] += stats[key]
    if len(datasets) > 1:
        qpv = format_fixed(totals["queries"] / totals["videos"], 2)
        tpv = format_fixed(totals["tracks"] / totals["videos"], 2)
        print(f"{'overall':<10} {totals['videos']:>8} {totals['queries']:>9} "
              f"{totals['tracks']:>8} {float(qpv):>14.2f} {float(tpv):>13.2f}")
    return EXIT_OK


def cmd_synth(args) -> int:
    # Imported here, so that no other command loads the generator.
    from .synth import ScenarioSpec, generate, write_split
    spec = ScenarioSpec(
        seed=args.seed,
        frames=args.frames,
        gt_tracks=args.tracks,
        queries=args.queries,
        box_jitter=args.box_jitter,
        id_switch_prob=args.id_switch_prob,
        drop_prob=args.drop_prob,
        segment_noise=args.segment_noise,
        distractor_tracks=args.distractors,
    )
    bundle, predictions = generate(spec)
    Path(args.out).mkdir(parents=True, exist_ok=True)
    write_split(args.out, args.dataset, bundle, predictions)
    print(f"wrote synthetic split to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    """Run one subcommand on ``argv`` (default ``sys.argv[1:]``) and
    return its exit code. ``evaluate`` calls ``gc.freeze()`` once its input
    is loaded and validated, so a caller that runs it in-process keeps
    every object alive at that point out of the collector's reach, cycles
    included, until it calls ``gc.unfreeze()``."""
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "evaluate": cmd_evaluate,
        "validate": cmd_validate,
        "stats": cmd_stats,
        "synth": cmd_synth,
    }[args.command]
    try:
        return handler(args)
    except (IngestError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
