"""Correctness checks for one benchmark run, made outside the timed region.

The reference here is computed apart from the engine, from the values the
generator wrote: HOTA components by a float re-implementation of the
objective on ``scipy.optimize.linear_sum_assignment`` (maximum cardinality
first, then alignment + 1e-4 * IoU), the identity map by majority vote at
alpha = 0.5, and the temporal metrics by the definitions in the README of
the package. Threshold tests use exact IoU so that no box sits on the wrong
side of an alpha; the generator's jitter keeps exact ties out of the
assignment, so the float optimum is the engine's optimum.

Every check returns a list of ``Failure``; each names the check and the
queries whose operation it fails.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import gen

ALPHAS = tuple(Fraction(k, 20) for k in range(1, 20))
MAPPING_ALPHA = Fraction(1, 2)
IOU_WEIGHT = 1e-4
TAUS = (0.1, 0.3, 0.5)
NMS = 0.7
TOL = 1e-9
RATIOS = ("hota", "det_a", "ass_a", "det_re", "det_pr", "ass_re", "ass_pr",
          "loc_a")
FIELDS = RATIOS + ("tp", "fn", "fp")


@dataclass
class Failure:
    check: str
    queries: frozenset        # (dataset, video_id, query_id) keys it fails
    detail: str

    def __str__(self):
        return f"check {self.check} failed: {self.detail}"


@dataclass
class RefQuery:
    components: dict[str, float]
    mapping: dict[int, int]                     # gt id -> predicted id
    pairs: list[tuple[int, tuple]]              # (gt id, ranked candidates)


def _iou(a, b) -> Fraction:
    ax, ay, aw, ah = (Fraction(v) for v in a)
    bx, by, bw, bh = (Fraction(v) for v in b)
    iw = min(ax + aw, bx + bw) - max(ax, bx)
    ih = min(ay + ah, by + bh) - max(ay, by)
    if iw <= 0 or ih <= 0:
        return Fraction(0)
    inter = iw * ih
    return inter / (aw * ah + bw * bh - inter)


def _assign(feasible: dict[tuple[int, int], float]) -> list[tuple[int, int]]:
    """Maximum-cardinality, then maximum-weight matching of the pairs."""
    gids = sorted({g for g, _ in feasible})
    pids = sorted({p for _, p in feasible})
    if len(feasible) == len(gids) == len(pids):
        return sorted(feasible)         # disjoint pairs: take them all
    from scipy.optimize import linear_sum_assignment
    bonus = 2.0 * (max(len(gids), len(pids)) + 1)
    weight = [[0.0] * len(pids) for _ in gids]
    for (g, p), value in feasible.items():
        weight[gids.index(g)][pids.index(p)] = bonus + value
    rows, cols = linear_sum_assignment(weight, maximize=True)
    return sorted((gids[i], pids[j]) for i, j in zip(rows, cols)
                  if (gids[i], pids[j]) in feasible)


def _components(frames, gt, pred, iou, alpha):
    """Per-threshold counts and ratios, plus the frame matches."""
    union = {}
    hits = {}
    for frame in frames:
        for pair, value in iou[frame].items():
            if value >= alpha:
                hits[pair] = hits.get(pair, 0) + 1
    for g, p in hits:
        union[(g, p)] = len(gt["frames"][g] | pred["frames"][p])
    matches = []
    for frame in frames:
        feasible = {pair: hits[pair] / union[pair] + IOU_WEIGHT * float(value)
                    for pair, value in iou[frame].items() if value >= alpha}
        if feasible:
            matches.extend((frame, g, p) for g, p in _assign(feasible))
    gt_total, pred_total = gt["boxes"], pred["boxes"]
    tp = len(matches)
    fn, fp = gt_total - tp, pred_total - tp
    out = {"tp": tp, "fn": fn, "fp": fp}
    if gt_total == 0 and pred_total == 0:
        out.update({name: 1.0 for name in RATIOS if name != "hota"})
        out["hota"] = 1.0
        return out, matches
    out["det_a"] = tp / (tp + fn + fp) if tp + fn + fp else 0.0
    out["det_re"] = tp / (tp + fn) if tp + fn else 0.0
    out["det_pr"] = tp / (tp + fp) if tp + fp else 0.0
    if tp == 0:
        out.update(ass_a=0.0, ass_re=0.0, ass_pr=0.0, loc_a=0.0)
    else:
        tpa, gcount, pcount = {}, {}, {}
        for _, g, p in matches:
            tpa[(g, p)] = tpa.get((g, p), 0) + 1
        for g, frames_g in gt["frames"].items():
            gcount[g] = len(frames_g)
        for p, frames_p in pred["frames"].items():
            pcount[p] = len(frames_p)
        out["ass_a"] = sum(c * c / (gcount[g] + pcount[p] - c)
                           for (g, p), c in tpa.items()) / tp
        out["ass_re"] = sum(c * c / gcount[g]
                            for (g, p), c in tpa.items()) / tp
        out["ass_pr"] = sum(c * c / pcount[p]
                            for (g, p), c in tpa.items()) / tp
        out["loc_a"] = sum(float(iou[f][(g, p)]) for f, g, p in matches) / tp
    out["hota"] = math.sqrt(out["det_a"] * out["ass_a"])
    return out, matches


def reference_query(video: gen.Video, query: gen.Query,
                    pred: gen.Prediction) -> RefQuery:
    """Components averaged over the alpha sweep, the identity map and the
    temporal pairs of one query."""
    gt_boxes, pred_boxes = {}, {}
    gt = {"frames": {}, "boxes": 0}
    for tid, segments in query.referents:
        gt["frames"][tid] = set()
        for frame, *box in video.tracks[tid]:
            if gen.in_segments(frame, segments):
                gt_boxes.setdefault(frame, {})[tid] = box
                gt["frames"][tid].add(frame)
                gt["boxes"] += 1
    side = {"frames": {}, "boxes": 0}
    for pid, dets in pred.tracks.items():
        side["frames"][pid] = {d[0] for d in dets}
        side["boxes"] += len(dets)
        for frame, x, y, w, h, _ in dets:
            pred_boxes.setdefault(frame, {})[pid] = (x, y, w, h)
    frames = sorted(set(gt_boxes) | set(pred_boxes))
    iou = {}
    for frame in frames:
        table = {}
        for g, gbox in gt_boxes.get(frame, {}).items():
            for p, pbox in pred_boxes.get(frame, {}).items():
                value = _iou(gbox, pbox)
                if value > 0:
                    table[(g, p)] = value
        iou[frame] = table
    sums = dict.fromkeys(FIELDS, 0.0)
    votes: dict[int, dict[int, int]] = {}
    for alpha in ALPHAS:
        comps, matches = _components(frames, gt, side, iou, alpha)
        for name in FIELDS:
            sums[name] += comps[name]
        if alpha == MAPPING_ALPHA:
            for _, g, p in matches:
                votes.setdefault(g, {})
                votes[g][p] = votes[g].get(p, 0) + 1
    components = {name: value / len(ALPHAS) for name, value in sums.items()}
    mapping = {g: min(t, key=lambda p: (-t[p], p)) for g, t in votes.items()}
    pairs = []
    for tid, _ in query.referents:
        cands = pred.temporal.get(mapping[tid], []) if tid in mapping else []
        pairs.append((tid, tuple(sorted(cands, key=_rank))))
    return RefQuery(components, mapping, pairs)


def _rank(cand):
    start, end, score = cand
    return (-score, start, end)


def _tiou(a, b) -> float:
    inter = min(a[1], b[1]) - max(a[0], b[0]) + 1
    if inter <= 0:
        return 0.0
    return inter / ((a[1] - a[0] + 1) + (b[1] - b[0] + 1) - inter)


def reference_temporal(pairs) -> dict:
    """R@{1,5,10}, mAP per tau and mIoU over (gt segments, ranked
    candidates) pairs, after greedy NMS at 0.7."""
    kept_pairs = []
    for segments, ranked in pairs:
        kept = []
        for cand in ranked:
            if all(_tiou(cand, k) <= NMS for k in kept):
                kept.append(cand)
        kept_pairs.append((segments, kept))
    n = len(kept_pairs)
    out = {"miou": sum(max(_tiou(c[0], s) for s in segs) if c else 0.0
                       for segs, c in kept_pairs) / n}
    for k in (1, 5, 10):
        out[f"r{k}"] = {tau: sum(
            any(_tiou(c, s) >= tau for c in cands[:k] for s in segs)
            for segs, cands in kept_pairs) / n for tau in TAUS}
    out["map"] = {}
    for tau in TAUS:
        total = 0.0
        for segs, cands in kept_pairs:
            claimed, hits, ap = set(), 0, 0.0
            for rank, cand in enumerate(cands, start=1):
                best, best_iou = -1, 0.0
                for idx, seg in enumerate(segs):
                    value = _tiou(cand, seg)
                    if idx not in claimed and value >= tau and value > best_iou:
                        best, best_iou = idx, value
                if best >= 0:
                    claimed.add(best)
                    hits += 1
                    ap += hits / rank
            total += ap / len(segs)
        out["map"][tau] = total / n
    return out


def reference(datasets: list[gen.Dataset]) -> dict:
    """Per-query references and per-dataset temporal references."""
    queries, temporal = {}, {}
    for ds in datasets:
        pairs = []
        for video in sorted(ds.videos, key=lambda v: v.video_id):
            for query in video.queries:
                key = (ds.name, video.video_id, query.query_id)
                ref = reference_query(video, query, ds.predictions[
                    (video.video_id, query.query_id)])
                queries[key] = ref
                segs = dict(query.referents)
                pairs.extend((segs[tid], cands)
                             for tid, cands in ref.pairs)
        temporal[ds.name] = reference_temporal(pairs)
    return {"queries": queries, "temporal": temporal}


def _keys(datasets) -> frozenset:
    return frozenset((ds.name, v.video_id, q.query_id) for ds in datasets
                     for v in ds.videos for q in v.queries)


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol


def check_queries(engine: dict, ref: dict) -> list[Failure]:
    """``engine`` maps each query key to ``(components, pairs)`` as
    ``svageval.evaluate_query`` returns them."""
    failures = []
    for key, expected in ref["queries"].items():
        if key not in engine:
            failures.append(Failure("query_scored", frozenset([key]),
                                    f"{'/'.join(key)} was not scored"))
            continue
        components, pairs = engine[key]
        bad = [f"{name}={getattr(components, name)!r} "
               f"(reference {expected.components[name]!r})"
               for name in FIELDS
               if not _close(getattr(components, name),
                             expected.components[name])]
        if bad:
            failures.append(Failure("query_components", frozenset([key]),
                                    f"{'/'.join(key)}: " + ", ".join(bad)))
        got = [(p.gt_track_id, tuple((c.segment.start, c.segment.end, c.score)
                                     for c in p.predictions)) for p in pairs]
        if got != expected.pairs:
            failures.append(Failure(
                "query_id_map", frozenset([key]),
                f"{'/'.join(key)}: referents map to other predicted tracks "
                f"than the reference map {expected.mapping}"))
    return failures


def _temporal_dict(metrics) -> dict:
    return {"r1": metrics.r1, "r5": metrics.r5, "r10": metrics.r10,
            "map": metrics.map_at, "miou": metrics.miou}


def check_final(final, datasets, counts: dict, ref: dict) -> list[Failure]:
    """The in-process FinalReport against the generator's counts and the
    reference, at full float precision."""
    failures = []
    reports = {r.name: r for r in final.datasets}
    for ds in datasets:
        keys = _keys([ds])
        report = reports.get(ds.name)
        if report is None:
            failures.append(Failure("dataset_scored", keys,
                                    f"dataset {ds.name} missing"))
            continue
        s = report.spatial
        gt_boxes = counts["gt_boxes"][ds.name]
        pred_boxes = counts["pred_boxes"][ds.name]
        if not _close(s.tp + s.fn, gt_boxes, 1e-6 * gt_boxes):
            failures.append(Failure(
                "tp_plus_fn", keys, f"{ds.name}: tp + fn = {s.tp + s.fn!r}, "
                f"but {gt_boxes} GT boxes lie inside referent segments"))
        if not _close(s.tp + s.fp, pred_boxes, 1e-6 * pred_boxes):
            failures.append(Failure(
                "tp_plus_fp", keys, f"{ds.name}: tp + fp = {s.tp + s.fp!r}, "
                f"but {pred_boxes} boxes were predicted"))
        refs = [ref["queries"][k] for k in sorted(keys)]
        bad = [name for name in FIELDS
               if not _close(getattr(s, name), sum(
                   r.components[name] for r in refs) / (
                   1 if name in ("tp", "fn", "fp") else len(refs)),
                   TOL * max(1, gt_boxes + pred_boxes))]
        if bad:
            failures.append(Failure("dataset_spatial", keys,
                                    f"{ds.name}: {', '.join(bad)} differ "
                                    "from the mean of the reference"))
        expected = ref["temporal"][ds.name]
        got = _temporal_dict(report.temporal)
        bad = [f"{name}@{tau}" for name in ("r1", "r5", "r10", "map")
               for tau in TAUS
               if not _close(got[name].get(tau, -1.0), expected[name][tau])]
        if not _close(got["miou"], expected["miou"]):
            bad.append("miou")
        if bad:
            failures.append(Failure("dataset_temporal", keys,
                                    f"{ds.name}: {', '.join(bad)} differ "
                                    "from the reference"))
    failures += _check_leaderboard(
        final.mean_spatial.hota, final.mean_temporal.miou, final.m_hiou,
        _ratios_of_final(final), _keys(datasets), TOL)
    return failures


def _ratios_of_final(final) -> list[float]:
    values = []
    blocks = [(r.spatial, r.temporal) for r in final.datasets]
    blocks.append((final.mean_spatial, final.mean_temporal))
    for spatial, temporal in blocks:
        values += [getattr(spatial, name) for name in RATIOS]
        t = _temporal_dict(temporal)
        values += [v for name in ("r1", "r5", "r10", "map")
                   for v in t[name].values()]
        values.append(t["miou"])
    return values + [final.m_hiou]


def _check_leaderboard(hota, miou, score, ratios, keys, tol) -> list[Failure]:
    failures = []
    if not _close(score, (hota + miou) / 2, tol):
        failures.append(Failure(
            "m_hiou", keys, f"m_hiou {score!r} is not the mean of HOTA "
            f"{hota!r} and mIoU {miou!r}"))
    outside = [v for v in ratios if not 0.0 <= v <= 1.0]
    if outside:
        failures.append(Failure("ratio_range", keys,
                                f"ratios outside [0, 1]: {outside[:5]}"))
    return failures


def check_report_bytes(jobs1: bytes, jobs2: bytes, datasets,
                       counts: dict) -> list[Failure]:
    """The report files the CLI wrote at --jobs 1 and --jobs 2."""
    keys = _keys(datasets)
    failures = []
    if jobs1 != jobs2:
        failures.append(Failure("jobs_identical", keys,
                                "--jobs 1 and --jobs 2 reports differ"))
    try:
        doc = json.loads(jobs1)
        blocks = [doc["datasets"][ds.name] for ds in datasets]
        mean = doc["mean"]
    except (ValueError, KeyError) as exc:
        return failures + [Failure("report_parse", keys,
                                   f"report unreadable: {exc!r}")]
    # Report numbers carry 6 significant digits.
    for ds, block in zip(datasets, blocks):
        s = block["spatial"]
        for name, total, other in (("tp_plus_fn", "gt_boxes", "fn"),
                                   ("tp_plus_fp", "pred_boxes", "fp")):
            want = counts[total][ds.name]
            if not _close(s["tp"] + s[other], want,
                          5e-6 * (s["tp"] + s[other]) + 1e-9):
                failures.append(Failure(
                    f"report_{name}", _keys([ds]),
                    f"{ds.name}: report tp + {other} = "
                    f"{s['tp'] + s[other]!r}, expected {want}"))
    ratios = [v for block in blocks + [mean]
              for v in [block["spatial"][n] for n in RATIOS]
              + [t for n in ("r1", "r5", "r10", "map")
                 for t in block["temporal"][n].values()]
              + [block["temporal"]["miou"]]]
    failures += _check_leaderboard(
        mean["spatial"]["hota"], mean["temporal"]["miou"], doc["m_hiou"],
        ratios + [doc["m_hiou"]], keys, 1.5e-5)
    return failures
