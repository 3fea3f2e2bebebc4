"""Spatial tracking quality: the HOTA metric family per (video, query).

All similarity and alignment arithmetic runs on exact rationals
(`fractions.Fraction`), so matching decisions and reported components are
fully deterministic: no float-order effects, exact threshold comparisons,
and reproducible tie-breaking (ascending ids). Floats appear only in the
final reported components.

Each frame's assignment is solved one connected component of its feasible
(gt, pred) graph at a time, on Python ints: a component's objectives are
scaled by the lcm of their denominators, with a cardinality term above
them and a tie term below, so the integer optimum is the rational one.
Both steps are exact, so the matches are the same as one solve over the
whole frame in `Fraction` would give.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .model import BoundingBox, HotaComponents, Track

# Localization threshold sweep: 0.05 .. 0.95 in steps of 0.05.
ALPHAS: tuple[Fraction, ...] = tuple(Fraction(k, 100) for k in range(5, 100, 5))

# The threshold whose matching defines the identity map.
MAPPING_ALPHA = Fraction(1, 2)

# Weight of the per-frame IoU relative to the track alignment term in the
# matching objective; keeps IoU strictly subordinate to alignment.
IOU_EPSILON = Fraction(1, 10000)

_ZERO = Fraction(0)


def _iou_frac(a: BoundingBox, b: BoundingBox) -> Fraction:
    ax, ay, aw, ah = (Fraction(a.x), Fraction(a.y), Fraction(a.w), Fraction(a.h))
    bx, by, bw, bh = (Fraction(b.x), Fraction(b.y), Fraction(b.w), Fraction(b.h))
    iw = min(ax + aw, bx + bw) - max(ax, bx)
    if iw <= 0:
        return _ZERO
    ih = min(ay + ah, by + bh) - max(ay, by)
    if ih <= 0:
        return _ZERO
    inter = iw * ih
    union = aw * ah + bw * bh - inter
    return inter / union


def box_iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection-over-union of two boxes; 0 when disjoint."""
    return float(_iou_frac(a, b))


@dataclass(frozen=True)
class FrameMatch:
    frame: int
    matches: tuple[tuple[int, int, Fraction], ...]  # (gt_id, pred_id, iou)
    unmatched_gt: tuple[int, ...]
    unmatched_pred: tuple[int, ...]


@dataclass(frozen=True)
class AlphaMatchResult:
    """Per-frame one-to-one matching at a single localization threshold."""

    alpha: Fraction
    frames: tuple[FrameMatch, ...]


class _Scenario:
    """Frame-indexed view of one (video, query)'s GT and predicted tracks,
    with the pairwise IoU table computed once and shared across thresholds."""

    def __init__(self, gt_tracks, pred_tracks):
        self.gt_dets: dict[int, dict[int, BoundingBox]] = {}
        self.pred_dets: dict[int, dict[int, BoundingBox]] = {}
        for track in gt_tracks:
            for det in track.detections:
                self.gt_dets.setdefault(det.frame, {})[track.track_id] = det.box
        for track in pred_tracks:
            for det in track.detections:
                self.pred_dets.setdefault(det.frame, {})[track.track_id] = det.box
        self.frames = sorted(set(self.gt_dets) | set(self.pred_dets))
        self.gt_frames: dict[int, set[int]] = {}
        self.pred_frames: dict[int, set[int]] = {}
        for frame, dets in self.gt_dets.items():
            for gid in dets:
                self.gt_frames.setdefault(gid, set()).add(frame)
        for frame, dets in self.pred_dets.items():
            for pid in dets:
                self.pred_frames.setdefault(pid, set()).add(frame)
        self.iou: dict[int, dict[tuple[int, int], Fraction]] = {}
        for frame in self.frames:
            table = {}
            for gid, gbox in self.gt_dets.get(frame, {}).items():
                for pid, pbox in self.pred_dets.get(frame, {}).items():
                    value = _iou_frac(gbox, pbox)
                    if value > 0:
                        table[(gid, pid)] = value
            self.iou[frame] = table

    def alignment(self, alpha: Fraction) -> dict[tuple[int, int], Fraction]:
        """Per-(gt, pred) track pair reaching alpha in at least one frame:
        |frames matched at alpha| / |frames where either appears| (a
        Jaccard index over frames)."""
        matched: dict[tuple[int, int], int] = {}
        for frame in self.frames:
            for pair, value in self.iou[frame].items():
                if value >= alpha:
                    matched[pair] = matched.get(pair, 0) + 1
        scores = {}
        for (gid, pid), count in matched.items():
            union = len(self.gt_frames[gid] | self.pred_frames[pid])
            scores[(gid, pid)] = Fraction(count, union)
        return scores

    def match(self, alpha: Fraction) -> AlphaMatchResult:
        alignment = self.alignment(alpha)
        frames = []
        for frame in self.frames:
            gids = sorted(self.gt_dets.get(frame, {}))
            pids = sorted(self.pred_dets.get(frame, {}))
            iou_table = self.iou[frame]
            feasible = [pair for pair, value in iou_table.items()
                        if value >= alpha]
            if not feasible:
                frames.append(FrameMatch(frame, (), tuple(gids), tuple(pids)))
                continue
            pairs = _optimal_pairs(feasible, iou_table, alignment)
            matched_g = {g for g, _ in pairs}
            matched_p = {p for _, p in pairs}
            frames.append(FrameMatch(
                frame=frame,
                matches=tuple((g, p, iou_table[(g, p)]) for g, p in pairs),
                unmatched_gt=tuple(g for g in gids if g not in matched_g),
                unmatched_pred=tuple(p for p in pids if p not in matched_p),
            ))
        return AlphaMatchResult(alpha=alpha, frames=tuple(frames))


def _optimal_pairs(feasible, iou_table, alignment):
    """Maximum-cardinality assignment over the feasible pairs; among those,
    maximum total (alignment + IOU_EPSILON * iou); remaining ties broken
    toward the lexicographically smallest sorted (gt_id, pred_id) pair list.

    Solved one connected component of the feasible bipartite graph at a
    time, which is exact: cardinality and objective add up over
    components, and for two equal-size sorted pair lists the
    lexicographically smaller one is the one holding the smallest pair of
    their symmetric difference, a pair that lies in a single component.
    A component with one id on either side is solved by its best pair;
    any other by one exact integer assignment over its own ids. Every
    feasible pair reaches the threshold in this frame, so it has an
    alignment."""
    pairs = []
    for component in _components(feasible):
        objective = {
            pair: alignment[pair] + IOU_EPSILON * iou_table[pair]
            for pair in component
        }
        gids = sorted({g for g, _ in component})
        pids = sorted({p for _, p in component})
        if len(gids) == 1 or len(pids) == 1:
            pairs.append(min(component,
                             key=lambda pair: (-objective[pair], pair)))
        else:
            pairs.extend(_component_pairs(component, gids, pids, objective))
    pairs.sort()
    return pairs


def _components(feasible):
    """Connected components of the bipartite graph the pairs span, each a
    sorted list of its pairs."""
    parent: dict[tuple[str, int], tuple[str, int]] = {}

    def root(node):
        while parent.setdefault(node, node) != node:
            node = parent[node]
        return node

    for g, p in feasible:
        parent[root(("pred", p))] = root(("gt", g))
    components: dict[tuple[str, int], list[tuple[int, int]]] = {}
    for g, p in sorted(feasible):
        components.setdefault(root(("gt", g)), []).append((g, p))
    return list(components.values())


def _component_pairs(component, gids, pids, objective):
    """The optimal pairs of one component, as one max-weight assignment on
    integers. With n the larger side, D the lcm of the objectives'
    denominators and K the number of pairs, the pair of sorted rank `code`
    (1-based) weighs

        (2(n + 1) + objective) * D * 3**K + 3**(K - code).

    The cardinality term outweighs any objective sum (each objective is
    below 2, and at most n pairs match); objectives differ by multiples of
    1/D, so a nonzero objective difference outweighs the tie terms, which
    sum to less than 3**K / 2; and among the rest the larger tie sum holds
    the smallest pair of the symmetric difference."""
    count = len(component)
    unit = math.lcm(*{v.denominator for v in objective.values()}) * 3 ** count
    bonus = 2 * (max(len(gids), len(pids)) + 1) * unit
    row_of = {g: i for i, g in enumerate(gids)}
    col_of = {p: j for j, p in enumerate(pids)}
    weight = [[0] * len(pids) for _ in gids]
    for code, (g, p) in enumerate(component, start=1):
        value = objective[(g, p)]
        weight[row_of[g]][col_of[p]] = (
            bonus + value.numerator * (unit // value.denominator)
            + 3 ** (count - code))
    if len(gids) <= len(pids):
        assigned = [(gids[i], pids[j])
                    for i, j in enumerate(_max_weight_assignment(weight))]
    else:
        transposed = [list(column) for column in zip(*weight)]
        assigned = [(gids[i], pids[j])
                    for j, i in enumerate(_max_weight_assignment(transposed))]
    return [pair for pair in assigned if pair in objective]


def _max_weight_assignment(weight):
    """Exact max-weight assignment of every row of an integer matrix with
    no more rows than columns (Hungarian method with potentials, on Python
    ints). Returns the column assigned to each row."""
    rows, cols = len(weight), len(weight[0])
    top = max(map(max, weight))
    cost = [[top - w for w in row] for row in weight]
    u = [0] * (rows + 1)
    v = [0] * (cols + 1)
    match_row = [0] * (cols + 1)  # column j (1-based) -> row (1-based)
    way = [0] * (cols + 1)
    for i in range(1, rows + 1):
        match_row[0] = i
        j0 = 0
        # The first step sets every column's entry from row i, so the float
        # infinity is only ever compared, never added to an int.
        minv = [math.inf] * (cols + 1)
        used = [False] * (cols + 1)
        while True:
            used[j0] = True
            i0 = match_row[j0]
            row = cost[i0 - 1]
            u0 = u[i0]
            delta = math.inf
            j1 = 0
            for j in range(1, cols + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - u0 - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(cols + 1):
                if used[j]:
                    u[match_row[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match_row[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match_row[j0] = match_row[j1]
            j0 = j1
    assignment = [0] * rows
    for j in range(1, cols + 1):
        if match_row[j]:
            assignment[match_row[j] - 1] = j - 1
    return assignment


def match_at_alpha(gt_tracks, pred_tracks, alpha) -> AlphaMatchResult:
    """Per-frame optimal one-to-one matching at one threshold, guided by the
    track alignment at that threshold."""
    return _Scenario(gt_tracks, pred_tracks).match(_as_alpha(alpha))


def _as_alpha(alpha) -> Fraction:
    # Through str, so that the float 0.05 means 1/20 and not the binary
    # value just above it.
    value = Fraction(str(alpha))
    if not 0 < value < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return value


def _components_frac(match: AlphaMatchResult):
    """Exact per-threshold components. Returns a dict of Fractions plus the
    tp/fn/fp counts."""
    tpa: dict[tuple[int, int], int] = {}
    gt_count: dict[int, int] = {}
    pred_count: dict[int, int] = {}
    loc_sum = _ZERO
    tp = 0
    for fm in match.frames:
        for gid, pid, iou in fm.matches:
            tpa[(gid, pid)] = tpa.get((gid, pid), 0) + 1
            gt_count[gid] = gt_count.get(gid, 0) + 1
            pred_count[pid] = pred_count.get(pid, 0) + 1
            loc_sum += iou
            tp += 1
        for gid in fm.unmatched_gt:
            gt_count[gid] = gt_count.get(gid, 0) + 1
        for pid in fm.unmatched_pred:
            pred_count[pid] = pred_count.get(pid, 0) + 1
    gt_total = sum(gt_count.values())
    pred_total = sum(pred_count.values())
    fn = gt_total - tp
    fp = pred_total - tp
    one = Fraction(1)
    if gt_total == 0 and pred_total == 0:
        # Fully-empty scenario: vacuously perfect.
        ratios = {name: one for name in
                  ("det_a", "det_re", "det_pr", "ass_a", "ass_re", "ass_pr",
                   "loc_a")}
        return ratios, tp, fn, fp
    det_a = Fraction(tp, tp + fn + fp) if tp + fn + fp else _ZERO
    det_re = Fraction(tp, tp + fn) if tp + fn else _ZERO
    det_pr = Fraction(tp, tp + fp) if tp + fp else _ZERO
    if tp == 0:
        ass_a = ass_re = ass_pr = loc_a = _ZERO
    else:
        ass_a = ass_re = ass_pr = _ZERO
        for (gid, pid), count in tpa.items():
            a = Fraction(count, gt_count[gid] + pred_count[pid] - count)
            ass_a += count * a
            ass_re += count * Fraction(count, gt_count[gid])
            ass_pr += count * Fraction(count, pred_count[pid])
        ass_a /= tp
        ass_re /= tp
        ass_pr /= tp
        loc_a = loc_sum / tp
    ratios = {"det_a": det_a, "det_re": det_re, "det_pr": det_pr,
              "ass_a": ass_a, "ass_re": ass_re, "ass_pr": ass_pr,
              "loc_a": loc_a}
    return ratios, tp, fn, fp


def hota_at_alpha(match: AlphaMatchResult) -> HotaComponents:
    """HOTA decomposition at a single localization threshold."""
    ratios, tp, fn, fp = _components_frac(match)
    return HotaComponents(
        hota=math.sqrt(float(ratios["det_a"] * ratios["ass_a"])),
        det_a=float(ratios["det_a"]),
        ass_a=float(ratios["ass_a"]),
        det_re=float(ratios["det_re"]),
        det_pr=float(ratios["det_pr"]),
        ass_re=float(ratios["ass_re"]),
        ass_pr=float(ratios["ass_pr"]),
        loc_a=float(ratios["loc_a"]),
        tp=tp, fn=fn, fp=fp,
    )


def hota_sweep(gt_tracks, pred_tracks
               ) -> tuple[HotaComponents, AlphaMatchResult]:
    """Each component averaged over the threshold sweep, and the sweep's
    matching at MAPPING_ALPHA. The aggregate HOTA is the mean of the
    per-threshold sqrt(DetA * AssA) values, not the sqrt of the means."""
    scenario = _Scenario(gt_tracks, pred_tracks)
    sums = {name: _ZERO for name in
            ("det_a", "det_re", "det_pr", "ass_a", "ass_re", "ass_pr",
             "loc_a")}
    hota_values = []
    tp_sum = fn_sum = fp_sum = 0
    for alpha in ALPHAS:
        match = scenario.match(alpha)
        if alpha == MAPPING_ALPHA:
            match_05 = match
        ratios, tp, fn, fp = _components_frac(match)
        for name in sums:
            sums[name] += ratios[name]
        hota_values.append(math.sqrt(float(ratios["det_a"] * ratios["ass_a"])))
        tp_sum += tp
        fn_sum += fn
        fp_sum += fp
    count = len(ALPHAS)
    components = HotaComponents(
        hota=sum(hota_values) / count,
        det_a=float(sums["det_a"] / count),
        ass_a=float(sums["ass_a"] / count),
        det_re=float(sums["det_re"] / count),
        det_pr=float(sums["det_pr"] / count),
        ass_re=float(sums["ass_re"] / count),
        ass_pr=float(sums["ass_pr"] / count),
        loc_a=float(sums["loc_a"] / count),
        tp=tp_sum / count, fn=fn_sum / count, fp=fp_sum / count,
        alpha_averaged=True,
    )
    return components, match_05


def restrict_track(track: Track, segments) -> Track:
    """Track limited to the frames covered by the given temporal segments
    (the referent's boxes outside its action segments are excluded from GT)."""
    segs = tuple(segments)
    dets = tuple(d for d in track.detections
                 if any(s.covers(d.frame) for s in segs))
    return Track(track_id=track.track_id, detections=dets)


def mean_components(components: list[HotaComponents]) -> HotaComponents:
    """Unweighted per-field mean; counts are summed. Raises on empty input."""
    if not components:
        raise ValueError("cannot average zero HOTA results")
    n = len(components)
    return HotaComponents(
        hota=sum(c.hota for c in components) / n,
        det_a=sum(c.det_a for c in components) / n,
        ass_a=sum(c.ass_a for c in components) / n,
        det_re=sum(c.det_re for c in components) / n,
        det_pr=sum(c.det_pr for c in components) / n,
        ass_re=sum(c.ass_re for c in components) / n,
        ass_pr=sum(c.ass_pr for c in components) / n,
        loc_a=sum(c.loc_a for c in components) / n,
        tp=sum(c.tp for c in components),
        fn=sum(c.fn for c in components),
        fp=sum(c.fp for c in components),
        alpha_averaged=True,
    )
