"""Spatial tracking quality: the HOTA metric family per (video, query).

All similarity and alignment arithmetic runs on exact rationals
(`fractions.Fraction`), so matching decisions and reported components are
fully deterministic: no float-order effects, exact threshold comparisons,
and reproducible tie-breaking (ascending ids). Floats appear only in the
final reported components.

Once per query, `_Scenario` converts each detection's box to exact
corners and area, records each track's frame set, and fills every frame's
table of positive IoUs. Per threshold, `match` filters each table to its
feasible pairs once, counts the track alignments from those same lists and
solves each frame's assignment; `ratios` then reduces the matching, taking
each track's detection count from its frame set.

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

from .model import (_COUNT_FIELDS, _RATIO_FIELDS, BoundingBox,
                    HotaComponents, Track)

# Localization threshold sweep: 0.05 .. 0.95 in steps of 0.05.
ALPHAS: tuple[Fraction, ...] = tuple(Fraction(k, 100) for k in range(5, 100, 5))

# The threshold whose matching defines the identity map.
MAPPING_ALPHA = Fraction(1, 2)

# Weight of the per-frame IoU relative to the track alignment term in the
# matching objective; keeps IoU strictly subordinate to alignment.
IOU_EPSILON = Fraction(1, 10000)

_ZERO = Fraction(0)


def _exact_box(box: BoundingBox) -> tuple[Fraction, ...]:
    """(x1, y1, x2, y2, area) of a box, exactly."""
    x, y, w, h = (Fraction(box.x), Fraction(box.y), Fraction(box.w),
                  Fraction(box.h))
    return x, y, x + w, y + h, w * h


def _iou_frac(a, b) -> Fraction:
    """Exact IoU of two `_exact_box` tuples."""
    iw = min(a[2], b[2]) - max(a[0], b[0])
    if iw <= 0:
        return _ZERO
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if ih <= 0:
        return _ZERO
    inter = iw * ih
    return inter / (a[4] + b[4] - inter)


def box_iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection-over-union of two boxes; 0 when disjoint."""
    return float(_iou_frac(_exact_box(a), _exact_box(b)))


@dataclass(frozen=True)
class FrameMatch:
    frame: int
    matches: tuple[tuple[int, int, Fraction], ...]  # (gt_id, pred_id, iou)


@dataclass(frozen=True)
class AlphaMatchResult:
    """Per-frame one-to-one matching at a single localization threshold."""

    alpha: Fraction
    frames: tuple[FrameMatch, ...]


def _by_frame(tracks):
    """frame -> {track_id: exact box}, and track_id -> its set of frames."""
    boxes: dict[int, dict[int, tuple[Fraction, ...]]] = {}
    frames: dict[int, set[int]] = {}
    for track in tracks:
        for det in track.detections:
            box = _exact_box(det.box)
            boxes.setdefault(det.frame, {})[track.track_id] = box
            frames.setdefault(track.track_id, set()).add(det.frame)
    return boxes, frames


class _Scenario:
    """Frame-indexed view of one (video, query)'s GT and predicted tracks,
    with the pairwise IoU table computed once and shared across thresholds."""

    def __init__(self, gt_tracks, pred_tracks):
        gt_boxes, self.gt_frames = _by_frame(gt_tracks)
        pred_boxes, self.pred_frames = _by_frame(pred_tracks)
        self.frames = sorted(set(gt_boxes) | set(pred_boxes))
        self.iou: dict[int, dict[tuple[int, int], Fraction]] = {}
        for frame in self.frames:
            table = {}
            for gid, gbox in gt_boxes.get(frame, {}).items():
                for pid, pbox in pred_boxes.get(frame, {}).items():
                    value = _iou_frac(gbox, pbox)
                    if value > 0:
                        table[(gid, pid)] = value
            self.iou[frame] = table

    def match(self, alpha: Fraction) -> AlphaMatchResult:
        """Each frame's optimal matching at alpha, guided by the alignment
        of each (gt, pred) track pair reaching alpha in at least one frame:
        |frames matched at alpha| / |frames where either appears| (a
        Jaccard index over frames)."""
        feasible = {frame: [pair for pair, value in table.items()
                            if value >= alpha]
                    for frame, table in self.iou.items()}
        counts: dict[tuple[int, int], int] = {}
        for pairs in feasible.values():
            for pair in pairs:
                counts[pair] = counts.get(pair, 0) + 1
        alignment = {
            (gid, pid): Fraction(
                count, len(self.gt_frames[gid] | self.pred_frames[pid]))
            for (gid, pid), count in counts.items()}
        frames = []
        for frame in self.frames:
            iou_table = self.iou[frame]
            pairs = _optimal_pairs(feasible[frame], iou_table, alignment)
            frames.append(FrameMatch(
                frame, tuple((g, p, iou_table[(g, p)]) for g, p in pairs)))
        return AlphaMatchResult(alpha=alpha, frames=tuple(frames))

    def ratios(self, match: AlphaMatchResult) -> dict:
        """The HOTA fields at match's threshold: hota as a float, the other
        ratios as Fractions, tp/fn/fp as ints."""
        tpa: dict[tuple[int, int], int] = {}
        loc_sum = _ZERO
        for fm in match.frames:
            for gid, pid, iou in fm.matches:
                tpa[(gid, pid)] = tpa.get((gid, pid), 0) + 1
                loc_sum += iou
        tp = sum(tpa.values())
        fn = sum(map(len, self.gt_frames.values())) - tp
        fp = sum(map(len, self.pred_frames.values())) - tp
        if tp + fn == 0 and tp + fp == 0:
            # Fully-empty scenario: vacuously perfect.
            return {**dict.fromkeys(_RATIO_FIELDS, Fraction(1)), "hota": 1.0,
                    "tp": 0, "fn": 0, "fp": 0}
        values = {
            "det_a": Fraction(tp, tp + fn + fp),
            "det_re": Fraction(tp, tp + fn) if tp + fn else _ZERO,
            "det_pr": Fraction(tp, tp + fp) if tp + fp else _ZERO,
            "ass_a": _ZERO, "ass_re": _ZERO, "ass_pr": _ZERO, "loc_a": _ZERO,
            "tp": tp, "fn": fn, "fp": fp,
        }
        if tp:
            for (gid, pid), count in tpa.items():
                gt_count = len(self.gt_frames[gid])
                pred_count = len(self.pred_frames[pid])
                values["ass_a"] += count * Fraction(
                    count, gt_count + pred_count - count)
                values["ass_re"] += count * Fraction(count, gt_count)
                values["ass_pr"] += count * Fraction(count, pred_count)
            for name in ("ass_a", "ass_re", "ass_pr"):
                values[name] /= tp
            values["loc_a"] = loc_sum / tp
        values["hota"] = math.sqrt(float(values["det_a"] * values["ass_a"]))
        return values


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


def _hota_components(values: dict, alpha_averaged: bool = False
                     ) -> HotaComponents:
    return HotaComponents(
        **{name: float(values[name]) for name in _RATIO_FIELDS},
        **{name: values[name] for name in _COUNT_FIELDS},
        alpha_averaged=alpha_averaged)


def hota_at_alpha(gt_tracks, pred_tracks, alpha) -> HotaComponents:
    """HOTA decomposition at a single localization threshold."""
    scenario = _Scenario(gt_tracks, pred_tracks)
    return _hota_components(scenario.ratios(scenario.match(_as_alpha(alpha))))


def hota_sweep(gt_tracks, pred_tracks
               ) -> tuple[HotaComponents, AlphaMatchResult]:
    """Each component averaged over the threshold sweep, and the sweep's
    matching at MAPPING_ALPHA. The aggregate HOTA is the mean of the
    per-threshold sqrt(DetA * AssA) values, not the sqrt of the means."""
    scenario = _Scenario(gt_tracks, pred_tracks)
    per_alpha = []
    for alpha in ALPHAS:
        match = scenario.match(alpha)
        if alpha == MAPPING_ALPHA:
            match_05 = match
        per_alpha.append(scenario.ratios(match))
    means = {name: sum(values[name] for values in per_alpha) / len(ALPHAS)
             for name in _RATIO_FIELDS + _COUNT_FIELDS}
    return _hota_components(means, alpha_averaged=True), match_05


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
        **{name: sum(getattr(c, name) for c in components) / n
           for name in _RATIO_FIELDS},
        **{name: sum(getattr(c, name) for c in components)
           for name in _COUNT_FIELDS},
        alpha_averaged=True)
