"""Benchmark of ``svageval evaluate``, end to end and layer by layer.

    python3 bench/run.py --workload split --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. It generates the workload's inputs
from the seed, then repeats whole rounds until ``--seconds`` have passed.
With ``--trace 0`` a round times the set-up probe, ``evaluate --jobs 1``,
``evaluate --jobs 2`` (both as separate processes, the way users run
them) and ``evaluate_datasets`` in this process. With ``--trace 1`` it
times interpreter start-up, an untraced and a traced ``evaluate --jobs
1`` and a traced ``evaluate --jobs 2``, and derives the per-layer figures
from the spans. After the rounds, outside the timed region, it checks the
outputs against a reference computed apart from the engine.

Times are normalised against a reference kernel sampled on the same CPUs
while each operation runs (see ``calib.py``); wall times are printed
beside them. The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import calib   # noqa: E402
import checks  # noqa: E402
import gen     # noqa: E402

NMS = 0.7
SETUP_PROBES = 3
UNITS = {
    "evaluate_s": "s", "evaluate_jobs2_s": "s", "setup_s": "s",
    "queries_per_s": "1/s", "peak_rss_mb": "MB",
    "ingest.load_ground_truth_s": "s", "ingest.load_predictions_s": "s",
    "ingest.validate_split_s": "s", "ingest.us_per_line": "us",
    "cli.startup_s": "s", "spatial.hota_sweep_s": "s",
    "spatial.us_per_frame_problem": "us", "spatial.hota_sweep_p50_ms": "ms",
    "spatial.hota_sweep_max_ms": "ms", "spatial.mapping_match_s": "s",
    "idmap.build_s": "s", "temporal.evaluate_temporal_s": "s",
    "temporal.us_per_candidate": "us", "pipeline.self_s": "s",
    "pipeline.score_jobs1_s": "s", "pipeline.score_jobs2_s": "s",
    "pipeline.jobs2_speedup": "ratio", "pipeline.pickled_mb": "MB",
    "report.build_write_s": "s", "trace.overhead_s": "s",
}
END_TO_END = ("evaluate_s", "evaluate_jobs2_s", "setup_s", "queries_per_s",
              "peak_rss_mb")
PER_LAYER = tuple(name for name in UNITS if name not in END_TO_END)


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        self.work = work
        self.gt, self.pred = work / "gt", work / "pred"
        self.datasets = gen.generate(workload, seed)
        gen.write(self.datasets, self.gt, self.pred)
        self.counts = gen.counts(self.datasets)
        self.ref = checks.reference(self.datasets)
        self.counts["candidates"] = sum(
            len(cands) for r in self.ref["queries"].values()
            for _, cands in r.pairs)
        self.names = [ds.name for ds in self.datasets]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("SVAGEVAL_LOG", None)
        cpus = sorted(os.sched_getaffinity(0))
        self.one, self.two = cpus[:1], cpus[:2]
        self.samplers = calib.Samplers(self.two)
        import svageval.ingest
        self.splits = [svageval.ingest.DatasetSplit(
            name=name,
            bundle=svageval.ingest.load_ground_truth(self.gt, name),
            predictions=svageval.ingest.load_predictions(self.pred, name)[0])
            for name in self.names]

    def close(self):
        self.samplers.close()

    # -- operations -------------------------------------------------------

    def _spawn(self, args) -> float:
        """Run a child to its end; returns its peak resident memory in KiB.

        The peak is the child's own high-water mark (``VmHWM``), read every
        20 ms while it runs: ``ru_maxrss`` would also count the pages of
        this process, which the child inherits until it execs."""
        log = self.work / "child.log"
        peak = 0
        with open(log, "wb") as out:
            proc = subprocess.Popen([sys.executable, *args], cwd=ROOT,
                                    env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT)
            status = Path(f"/proc/{proc.pid}/status")
            try:
                while True:
                    pid, code, usage = os.wait4(proc.pid, os.WNOHANG)
                    if pid:
                        break
                    try:
                        for line in status.read_text().splitlines():
                            if line.startswith("VmHWM:"):
                                peak = max(peak, int(line.split()[1]))
                    except (OSError, ValueError):
                        pass
                    time.sleep(0.02)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(code)
        if proc.returncode != 0:
            tail = log.read_text(errors="replace")[-2000:]
            raise RuntimeError(f"{' '.join(args[:3])} exited with code "
                               f"{proc.returncode}:\n{tail}")
        return peak or usage.ru_maxrss

    def _evaluate_args(self, jobs: int, out: Path, traced: Path | None):
        head = ([str(BENCH / "traced.py"), str(traced)] if traced
                else ["-m", "svageval.cli"])
        return head + ["evaluate", "--gt", str(self.gt), "--pred",
                       str(self.pred), "--datasets", ",".join(self.names),
                       "--out", str(out), "--jobs", str(jobs)]

    def round_plain(self) -> dict:
        out = {}
        # Set-up is short: a round times several probes back to back, so
        # that enough bursts fall inside, and takes their mean.
        probe = [str(BENCH / "probe.py"), str(self.gt), str(self.pred),
                 *self.names]
        _, wall, norm = self.samplers.measure(self.one, lambda: [
            self._spawn(probe) for _ in range(SETUP_PROBES)])
        out["setup_s"] = (norm / SETUP_PROBES, wall / SETUP_PROBES)
        rep1, rep2 = self.work / "jobs1.json", self.work / "jobs2.json"
        rss, wall, norm = self.samplers.measure(self.one, lambda: self._spawn(
            self._evaluate_args(1, rep1, None)))
        out["evaluate_s"] = (norm, wall)
        out["peak_rss_mb"] = (rss / 1024, rss / 1024)
        _, wall, norm = self.samplers.measure(self.two, lambda: self._spawn(
            self._evaluate_args(2, rep2, None)))
        out["evaluate_jobs2_s"] = (norm, wall)
        from svageval.pipeline import evaluate_datasets
        final, wall, norm = self.samplers.measure(
            self.one, lambda: evaluate_datasets(self.splits, NMS, jobs=1))
        n = self.counts["queries"]
        out["queries_per_s"] = (n / norm, n / wall)
        out["_reports"] = (rep1.read_bytes(), rep2.read_bytes())
        out["_final"] = final
        return out

    def round_traced(self) -> dict:
        out = {}
        _, wall, norm = self.samplers.measure(self.one, lambda: self._spawn(
            ["-c", "import svageval"]))
        out["cli.startup_s"] = (norm, wall)
        rep1, rep2 = self.work / "jobs1.json", self.work / "jobs2.json"
        _, wall, plain = self.samplers.measure(self.one, lambda: self._spawn(
            self._evaluate_args(1, rep1, None)))
        spans1 = self.work / "spans1.json"
        _, wall1, norm1 = self.samplers.measure(self.one, lambda: self._spawn(
            self._evaluate_args(1, rep1, spans1)))
        out["trace.overhead_s"] = (norm1 - plain, wall1 - wall)
        spans2 = self.work / "spans2.json"
        _, wall2, norm2 = self.samplers.measure(self.two, lambda: self._spawn(
            self._evaluate_args(2, rep2, spans2)))
        trace1 = json.loads(spans1.read_text())
        trace2 = json.loads(spans2.read_text())
        out.update(self._layers(trace1["spans"], norm1 / wall1))
        score2 = _total(trace2["spans"], "pipeline.evaluate_datasets")
        out["pipeline.score_jobs2_s"] = (score2 * norm2 / wall2, score2)
        one, two = out["pipeline.score_jobs1_s"], out["pipeline.score_jobs2_s"]
        out["pipeline.jobs2_speedup"] = (one[0] / two[0], one[1] / two[1])
        mb = trace2["pickled_bytes"] / 1e6
        out["pipeline.pickled_mb"] = (mb, mb)
        out["_reports"] = (rep1.read_bytes(), rep2.read_bytes())
        return out

    def _layers(self, spans, scale: float) -> dict:
        """Per-layer figures of one jobs-1 trace: (normalised, wall)."""
        def pair(seconds):
            return (seconds * scale, seconds)

        c = self.counts
        out = {}
        for name in ("load_ground_truth", "load_predictions",
                     "validate_split"):
            out[f"ingest.{name}_s"] = pair(_total(spans, f"ingest.{name}"))
        load = (_total(spans, "ingest.load_ground_truth")
                + _total(spans, "ingest.load_predictions"))
        out["ingest.us_per_line"] = pair(load / c["csv_lines"] * 1e6)
        sweep = _durations(spans, "spatial.hota_sweep")
        out["spatial.hota_sweep_s"] = pair(sum(sweep))
        out["spatial.us_per_frame_problem"] = pair(
            sum(sweep) / (c["frame_problems"] * len(checks.ALPHAS)) * 1e6)
        out["spatial.hota_sweep_p50_ms"] = pair(
            statistics.median(sweep) * 1e3 if sweep else 0.0)
        out["spatial.hota_sweep_max_ms"] = pair(
            max(sweep) * 1e3 if sweep else 0.0)
        out["spatial.mapping_match_s"] = pair(
            _total(spans, "spatial.global_alignment")
            + _total(spans, "spatial.match_at_alpha"))
        out["idmap.build_s"] = pair(_total(spans, "idmap.build_id_map")
                                    + _total(spans,
                                             "idmap.build_temporal_pairs"))
        temporal = _total(spans, "temporal.evaluate_temporal")
        out["temporal.evaluate_temporal_s"] = pair(temporal)
        out["temporal.us_per_candidate"] = pair(
            temporal / max(1, c["candidates"]) * 1e6)
        out["pipeline.self_s"] = pair(
            _self(spans, "pipeline.evaluate_split")
            + _self(spans, "pipeline.evaluate_query"))
        out["pipeline.score_jobs1_s"] = pair(
            _total(spans, "pipeline.evaluate_datasets"))
        out["report.build_write_s"] = pair(
            _total(spans, "report.build_final_report")
            + _total(spans, "report.write_report"))
        return out


def _durations(spans, name) -> list[float]:
    return [end - start for n, start, end, _ in spans if n == name]


def _total(spans, name) -> float:
    return sum(_durations(spans, name))


def _self(spans, name) -> float:
    """Time in spans called ``name`` not covered by their child spans."""
    own = {i: end - start for i, (n, start, end, _) in enumerate(spans)
           if n == name}
    for n, start, end, parent in spans:
        if parent in own:
            own[parent] -= end - start
    return sum(own.values())


def _check(bench: Bench, rounds: list[dict], final) -> tuple[int, list]:
    """Failed operations over all rounds, and the failures."""
    import svageval
    ref = bench.ref
    engine = {}
    for split in bench.splits:
        preds = {(p.video_id, p.query_id): p for p in split.predictions}
        for video_id in sorted(split.bundle.videos):
            video = split.bundle.videos[video_id]
            for query in video.queries:
                engine[(split.name, video_id, query.query_id)] = \
                    svageval.evaluate_query(
                        video, query, preds.get((video_id, query.query_id)))
    failures = checks.check_queries(engine, ref)
    failures += checks.check_final(final, bench.datasets, bench.counts, ref)
    static = set().union(*(f.queries for f in failures))
    failed = 0
    seen = {str(f) for f in failures}
    for r in rounds:
        per_round = checks.check_report_bytes(*r["_reports"], bench.datasets,
                                              bench.counts)
        failed += len(static.union(*(f.queries for f in per_round)))
        for f in per_round:
            if str(f) not in seen:
                seen.add(str(f))
                failures.append(f)
    return failed, failures


def _summary(rounds: list[dict], names) -> dict:
    table = {}
    for name in names:
        norm = [r[name][0] for r in rounds]
        wall = [r[name][1] for r in rounds]
        table[name] = (statistics.median(norm), statistics.median(wall),
                       min(norm), max(norm))
    return table


def run(workload: str, seed: int, seconds: float, trace: bool,
        work: Path) -> dict:
    bench = Bench(workload, seed, work)
    try:
        names = PER_LAYER if trace else END_TO_END
        step = bench.round_traced if trace else bench.round_plain
        rounds = []
        start = time.perf_counter()
        deadline = start + seconds
        # Start another round while at least half of one still fits.
        while (not rounds or time.perf_counter() + (
                time.perf_counter() - start) / len(rounds) / 2 <= deadline):
            rounds.append(step())
        if trace:
            from svageval.pipeline import evaluate_datasets
            final = evaluate_datasets(bench.splits, NMS, jobs=1)
        else:
            final = rounds[-1]["_final"]
        failed, failures = _check(bench, rounds, final)
        table = _summary(rounds, names)
    finally:
        bench.close()
    for failure in failures:
        print(failure, file=sys.stderr)
    print(f"# {workload} seed {seed}: {len(rounds)} rounds, "
          f"{bench.counts['queries']} queries each")
    print(f"# {'metric':<30} {'normalised':>12} {'wall':>12} "
          f"{'min':>10} {'max':>10}  unit")
    for name, (norm, wall, lo, hi) in table.items():
        print(f"# {name:<30} {norm:>12.6g} {wall:>12.6g} {lo:>10.4g} "
              f"{hi:>10.4g}  {UNITS[name]}")
    return {
        "correct": not failures,
        "attempted": len(rounds) * bench.counts["queries"],
        "failed": failed,
        "metrics": {name: {"value": table[name][0], "unit": UNITS[name]}
                    for name in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "svageval" / "__init__.py").is_file():
        print(f"error: no svageval sources at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import svageval
    if Path(svageval.__file__).resolve().parent != SRC / "svageval":
        print(f"error: imported svageval from {svageval.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
