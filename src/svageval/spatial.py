"""Spatial tracking quality: the HOTA metric family per (video, query).

Every matching decision and every reported component is the one exact
rational arithmetic gives, with reproducible tie-breaking (ascending ids):
no float-order effects and exact threshold comparisons. Floats appear only
as the correctly rounded reported components.

Once per query, `_Scenario` scales every box to integer corners and area:
each coordinate is multiplied by one power of two, the smallest that makes
every coordinate of the query an integer, so nothing is rounded. It
records each track's frame set and fills every frame's table of IoUs,
which holds ints only: for each pair its intersection and union, the
fixed-point floor of their quotient at `_LOC_BITS` bits, whether that
floor is inexact, and its level.

The thresholds ascend, so they nest: an IoU reaching one reaches every
lower one. Each pair's level, the number of thresholds it reaches, is
found once, by bisecting them with inter * den >= num * union; a table
keeps the pairs of level 1 or more, and each track pair's frames reaching
each threshold are tallied then. At threshold index i the feasible pairs
are those of level above i, and each track pair's alignment is (its tally
at i, frames where either track appears).

`sweep` tests nothing again and matches every threshold in one pass per
frame, from the highest down. A frame with fewer than two pairs needs no
solve: a pair of level L is matched at every i < L. In any other frame,
the pairs of level i + 1 join the frame's connected components as i falls,
each pair once. A component keeps its last solution while its pairs and
their tallies at i are unchanged, since its problem is then the same; a
component of one pair is never solved. Each threshold's matching is a
plain list of (frame, sorted pairs). `ratios` reduces it to (numerator,
denominator) pairs and counts each track pair's matched frames; a
threshold whose matching equals the one below it shares that reduction.
Each mean over thresholds is taken over one common denominator and
converted by one int true division, which rounds correctly, so it is the
float of the exact value. `HotaSweep.at` reduces one stored threshold alone.
A `Fraction` IoU is built only for the matching `at` returns and in the
exact LocA fallback.

The same counts at MAPPING_ALPHA are the identity vote: `hota_sweep` maps
each GT id to the predicted id it matched in the most frames there, ties
going to the smaller predicted id. A GT id matched in no frame stays
unmapped, and one predicted id may win several GT ids.

LocA is bounded instead: the floors of the matched IoUs sum to a lower
bound, and adding the number of inexact floors gives an upper bound. Both
bounds are carried through the division by TP and the mean over
thresholds. When the two round to the same double, that double is the
exact value's; only when they do not does `_exact_loc_a` sum the matched
IoUs as `Fraction`s.

Each frame's assignment is solved one connected component of its feasible
(gt, pred) graph at a time, on Python ints, first on fixed point: each
pair weighs a cardinality term plus the floor of its objective at
`_FIX_BITS` fractional bits. Each floor is less than one unit low, so an
exactly optimal matching weighs less than one unit per row below the found
one. The solver's duals give every pair a reduced cost that is never
negative and is zero on the found matching, and a column the matching
leaves free has dual zero; so what any other matching loses is at least
the cheapest alternating cycle or path through its new pairs, over
reduced costs. Where every unmatched pair's cycle or path costs at least
one unit per row, the found matching is the unique exact optimum and is
returned. Otherwise the pairs whose bound falls short are the only ones
an exact optimum can add, and they are solved with the found pairs,
exactly: objectives scaled by a common multiple of their denominators,
with a cardinality term above them and a tie term below, so that the
integer optimum is the rational one with the same tie-break. Every step
is exact, so the matches are the same as one solve over the whole frame
in `Fraction` would give.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
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
_EPS_NUM, _EPS_DEN = IOU_EPSILON.as_integer_ratio()

# Fractional bits of the IoU floors that bound LocA. Each inexact floor
# widens the interval by 2**-_LOC_BITS, far below a double's precision, so
# the exact fallback is almost never needed.
_LOC_BITS = 128

# Fractional bits of the fixed-point weights each assignment is solved on
# first. The solve is certified unless another matching may come within
# one unit per row of it, which at this width means an exact or near tie;
# only then do the exact weights run.
_FIX_BITS = 64

# The ratio fields reduced exactly, as (numerator, denominator) pairs.
_EXACT_FIELDS = tuple(name for name in _RATIO_FIELDS
                      if name not in ("hota", "loc_a"))


def _shift(boxes) -> int:
    """The exponent of the smallest power of two that makes every
    coordinate of the boxes an integer."""
    return max((value.as_integer_ratio()[1].bit_length() - 1
                for box in boxes for value in (box.x, box.y, box.w, box.h)),
               default=0)


def _int_box(box: BoundingBox, shift: int) -> tuple[int, ...]:
    """(x1, y1, x2, y2, area) of a box with every coordinate multiplied by
    2**shift, on ints."""
    x, y, w, h = (num << (shift + 1 - den.bit_length())
                  for num, den in (value.as_integer_ratio()
                                   for value in (box.x, box.y, box.w, box.h)))
    return x, y, x + w, y + h, w * h


def _overlap(a, b) -> int:
    """Intersection area of two `_int_box` boxes; 0 when disjoint."""
    iw = min(a[2], b[2]) - max(a[0], b[0])
    if iw <= 0:
        return 0
    ih = min(a[3], b[3]) - max(a[1], b[1])
    return iw * ih if ih > 0 else 0


def _sum(ratios) -> tuple[int, int]:
    """The sum of (numerator, denominator) int pairs, as one such pair over
    the lcm of their denominators."""
    common = math.lcm(*(den for _, den in ratios))
    return sum(num * (common // den) for num, den in ratios), common


def _mean(ratios) -> float:
    """The float of the exact mean of (numerator, denominator) int pairs."""
    total, den = _sum(ratios)
    return total / (den * len(ratios))


@dataclass(frozen=True)
class FrameMatch:
    frame: int
    matches: tuple[tuple[int, int, Fraction], ...]  # (gt_id, pred_id, iou)


def _by_frame(tracks, shift):
    """frame -> {track_id: `_int_box`}, and track_id -> its set of frames.
    A track id given twice raises ValueError."""
    boxes: dict[int, dict[int, tuple[int, ...]]] = {}
    frames: dict[int, set[int]] = {}
    for track in tracks:
        if (tid := track.track_id) in frames:
            raise ValueError(f"track id {tid} is given twice")
        frames[tid] = set(track.frames)
        for det in track.detections:
            boxes.setdefault(det.frame, {})[tid] = _int_box(det.box, shift)
    return boxes, frames


class _Scenario:
    """One (video, query)'s tracks, frame by frame, with each pair's IoU
    tested once against the ascending `ALPHAS`. `iou[frame][(gid, pid)]`
    is (inter, union, floor, inexact, level) for each pair reaching
    `ALPHAS[0]`: intersection and union on the query's integer scale,
    floor(inter * 2**bits / union), whether it is inexact, and the number
    of thresholds reached; every frame of either side has a table, in
    frame order. `counts[pair][i]` counts the frames reaching `ALPHAS[i]`."""

    def __init__(self, gt_tracks, pred_tracks):
        shift = _shift(det.box for track in (*gt_tracks, *pred_tracks)
                       for det in track.detections)
        gt_boxes, self.gt_frames = _by_frame(gt_tracks, shift)
        pred_boxes, self.pred_frames = _by_frame(pred_tracks, shift)
        self.gt_count = sum(map(len, self.gt_frames.values()))
        self.pred_count = sum(map(len, self.pred_frames.values()))
        self.bits = bits = _LOC_BITS
        ratios = [alpha.as_integer_ratio() for alpha in ALPHAS]
        self.iou: dict[int, dict[tuple[int, int], tuple]] = {}
        counts = self.counts = {}
        for frame in sorted(set(gt_boxes) | set(pred_boxes)):
            table = self.iou[frame] = {}
            for gid, gbox in gt_boxes.get(frame, {}).items():
                for pid, pbox in pred_boxes.get(frame, {}).items():
                    inter = _overlap(gbox, pbox)
                    union = gbox[4] + pbox[4] - inter
                    if level := inter and bisect_left(ratios, True, key=(
                            lambda r: inter * r[1] < r[0] * union)):
                        floor, rem = divmod(inter << bits, union)
                        table[gid, pid] = (inter, union, floor, rem > 0, level)
                        hits = counts.setdefault((gid, pid), [0] * len(ALPHAS))
                        for i in range(level):
                            hits[i] += 1
        # |frames where either track appears|, the alignment's denominator.
        self.span = {(g, p): len(self.gt_frames[g] | self.pred_frames[p])
                     for g, p in counts}

    def sweep(self) -> list[list[tuple[int, list[tuple[int, int]]]]]:
        """Each frame's optimal matching at every threshold: for each
        `ALPHAS[i]`, a list of (frame, sorted pairs) in frame order, guided
        by each track pair's alignment counts[pair][i] / span[pair] (a
        Jaccard index over frames). A frame whose matching is the same at
        two thresholds gives both the same list."""
        per_frame = [self._frame_sweep(table) for table in self.iou.values()]
        return [[(frame, optima[i]) for frame, optima in zip(self.iou,
                                                              per_frame)]
                for i in range(len(ALPHAS))]

    def _frame_sweep(self, table) -> list[list[tuple[int, int]]]:
        """One frame's optimal pairs at each threshold, found in one pass
        from the highest down. The pairs of level i + 1 join the feasible
        graph as i falls, each once, into explicit components (node ->
        component, the smaller merged into the larger); a component is
        solved again only when its pairs or their counts at i changed."""
        n = len(ALPHAS)
        if len(table) < 2:
            # A lone pair of level L is matched at every i < L.
            optima = [[]] * n
            for pair, entry in table.items():
                optima[:entry[4]] = [[pair]] * entry[4]
            return optima
        counts, span = self.counts, self.span
        # The count-independent parts of each pair's objective: at count c
        # it is (c * A + B) / C.
        parts = {(g, p): (_EPS_DEN * entry[1],
                          _EPS_NUM * span[g, p] * entry[0],
                          _EPS_DEN * span[g, p] * entry[1])
                 for (g, p), entry in table.items()}
        order = sorted(table, key=lambda pair: table[pair][4])
        owner: dict[int, _Component] = {}
        live: dict[_Component, None] = {}
        optima = [[]] * n
        current: list[tuple[int, int]] = []
        for i in range(n - 1, -1, -1):
            changed = False
            while order and table[order[-1]][4] > i:
                g, p = pair = order.pop()
                changed = True
                group, other = owner.get(g), owner.get(~p)
                if group is None or other is None:
                    group = group or other or _Component()
                    live[group] = None
                elif group is not other:
                    if len(group.pairs) < len(other.pairs):
                        group, other = other, group
                    group.pairs += other.pairs
                    for g2, p2 in other.pairs:
                        owner[g2] = owner[~p2] = group
                    del live[other]
                group.pairs.append(pair)
                group.optimum = None
                owner[g] = owner[~p] = group
            for group in live:
                pairs = group.pairs
                if len(pairs) == 1:
                    group.optimum = pairs
                    continue
                if group.optimum is None:
                    pairs.sort()
                tallies = [counts[pair][i] for pair in pairs]
                if group.optimum is None or tallies != group.tallies:
                    group.tallies = tallies
                    objective = {}
                    for pair, count in zip(pairs, tallies):
                        a, b, den = parts[pair]
                        objective[pair] = (a * count + b, den)
                    group.optimum = _component_optimum(pairs, objective)
                    changed = True
            if changed:
                current = sorted(pair for group in live
                                 for pair in group.optimum)
            optima[i] = current
        return optima

    def ratios(self, matching) -> dict:
        """The HOTA fields of one threshold's `sweep` matching: hota as a
        float, tp/fn/fp as ints, loc_a as its (lower, upper) bounds and the
        other ratios, each bound included, as (numerator, denominator) int
        pairs; and tpa, each matched (gt, pred) pair's count of matched
        frames."""
        tpa: dict[tuple[int, int], int] = {}
        floors = inexact = 0
        for frame, pairs in matching:
            table = self.iou[frame]
            for pair in pairs:
                tpa[pair] = tpa.get(pair, 0) + 1
                entry = table[pair]
                floors += entry[2]
                inexact += entry[3]
        tp = sum(tpa.values())
        fn = self.gt_count - tp
        fp = self.pred_count - tp
        if tp + fn == 0 and tp + fp == 0:
            # Fully-empty scenario: vacuously perfect.
            return {**dict.fromkeys(_EXACT_FIELDS, (1, 1)), "hota": 1.0,
                    "loc_a": ((1, 1), (1, 1)), "tp": 0, "fn": 0, "fp": 0,
                    "tpa": tpa}
        values = {
            "det_a": (tp, tp + fn + fp),
            "det_re": (tp, tp + fn) if tp + fn else (0, 1),
            "det_pr": (tp, tp + fp) if tp + fp else (0, 1),
            "ass_a": (0, 1), "ass_re": (0, 1), "ass_pr": (0, 1),
            "loc_a": ((0, 1), (0, 1)),
            "tp": tp, "fn": fn, "fp": fp, "tpa": tpa,
        }
        if tp:
            terms = {"ass_a": [], "ass_re": [], "ass_pr": []}
            for (gid, pid), count in tpa.items():
                gt_count = len(self.gt_frames[gid])
                pred_count = len(self.pred_frames[pid])
                # Each of the pair's count matched detections adds
                # count / size.
                terms["ass_a"].append(
                    (count * count, gt_count + pred_count - count))
                terms["ass_re"].append((count * count, gt_count))
                terms["ass_pr"].append((count * count, pred_count))
            for name, ratios in terms.items():
                total, den = _sum(ratios)
                values[name] = (total, den * tp)
            den = tp << self.bits
            values["loc_a"] = ((floors, den), (floors + inexact, den))
        (det_num, det_den), (ass_num, ass_den) = (values["det_a"],
                                                  values["ass_a"])
        values["hota"] = math.sqrt(det_num * ass_num / (det_den * ass_den))
        return values


def _component_optimum(component, objective):
    """The optimal pairs of one connected component, given as a sorted
    pair list, with each pair's objective as (numerator, denominator): the
    most pairs, then the largest objective sum, then the lexicographically
    smallest sorted pair list. A component with one id on either side is
    solved by its best pair; any other by `_component_pairs`, over its own
    ids. Solving a frame one component at a time is exact: cardinality and
    objective add up over components, and of two equal-size sorted pair
    lists the lexicographically smaller holds the smallest pair of their
    symmetric difference, a pair that lies in a single component."""
    gids = {g for g, _ in component}
    pids = {p for _, p in component}
    if len(gids) == 1 or len(pids) == 1:
        return [_best_pair(component, objective)]
    return _component_pairs(component, gids, pids, objective)


class _Component:
    """A connected component of one frame's feasible graph as
    `_Scenario._frame_sweep` grows it: its pairs, their counts at its last
    solve, and its optimal pairs then (None once its pairs change)."""

    __slots__ = ("pairs", "tallies", "optimum")

    def __init__(self):
        self.pairs: list[tuple[int, int]] = []
        self.tallies: list[int] | None = None
        self.optimum: list[tuple[int, int]] | None = None


def _best_pair(component, objective):
    """The pair of largest objective, compared by cross-multiplying; the
    first in the sorted component on ties."""
    best = component[0]
    best_num, best_den = objective[best]
    for pair in component[1:]:
        num, den = objective[pair]
        if num * best_den > best_num * den:
            best, best_num, best_den = pair, num, den
    return best


def _components(feasible):
    """Connected components of the bipartite graph the pairs span, each a
    sorted list of its pairs. A gt id g is node g and a pred id p is node
    ~p, which is negative because ids are not."""
    parent: dict[int, int] = {}

    def root(node):
        while (up := parent.get(node, node)) != node:
            node = up
        return node

    for g, p in feasible:
        a, b = root(g), root(~p)
        if a != b:
            parent[b] = a
    components: dict[int, list[tuple[int, int]]] = {}
    for pair in sorted(feasible):
        components.setdefault(root(pair[0]), []).append(pair)
    return list(components.values())


def _layout(component, gids, pids):
    """Each pair's (row, column) in the assignment matrix of a component
    over the id sets gids and pids, in the component's order, and the
    matrix's row and column counts. The rows are the smaller side, as
    `_max_weight_assignment` needs, and ids rank in ascending order."""
    if len(gids) > len(pids):
        row_of = {p: i for i, p in enumerate(sorted(pids))}
        col_of = {g: j for j, g in enumerate(sorted(gids))}
        cells = [(row_of[p], col_of[g]) for g, p in component]
    else:
        row_of = {g: i for i, g in enumerate(sorted(gids))}
        col_of = {p: j for j, p in enumerate(sorted(pids))}
        cells = [(row_of[g], col_of[p]) for g, p in component]
    return cells, len(row_of), len(col_of)


def _matrix(layout, weights):
    """The matrix of a `_layout` with each pair's weight in its cell and
    zero where no pair is."""
    cells, rows, cols = layout
    matrix = [[0] * cols for _ in range(rows)]
    for (i, j), weight in zip(cells, weights):
        matrix[i][j] = weight
    return matrix


def _component_pairs(component, gids, pids, objective):
    """The optimal pairs of one connected component with at least two ids
    on each side, solved on fixed point first. With n the larger side and
    B = _FIX_BITS, a pair weighs

        2(n + 1) * 2**B + floor(objective * 2**B).

    That is 2**B times its exact weight (2(n + 1) + objective) less under
    one unit, so the cardinality term still comes first, and an exactly
    optimal matching weighs less than `rows` units (the smaller side, the
    most pairs a matching holds) below the one found.

    Any other assignment of every row differs from the found one by
    alternating cycles, and by paths that give up a matched column and
    end on a free one. With the duals u, v the solver returns, a pair's
    reduced cost u[i] + v[j] - weight is never negative and is zero on
    the found pairs, and a free column has v = 0. So an assignment weighs
    less than the found one by the reduced costs of its own pairs plus v
    of each matched column it gives up, and the cheapest cycle or path
    through a pair, over those costs, bounds that loss from below for
    any assignment holding the pair. A pair whose bound is at least
    `rows` is in no exactly optimal matching. If that rules out every
    unmatched pair, the found pairs are the unique exact optimum.
    Otherwise the exact optima all lie within the found and the doubtful
    pairs, and `_exact_pairs` solves those, one connected component at a
    time, with the exact tie-break."""
    layout = cells, rows, cols = _layout(component, gids, pids)
    bonus = 2 * (cols + 1) << _FIX_BITS
    matrix = _matrix(layout, [bonus + (num << _FIX_BITS) // den
                              for num, den in (objective[pair]
                                               for pair in component)])
    assignment, u, v = _max_weight_assignment(matrix)
    # A loss of `rows` or more rules a pair out, so every cost is cut to
    # `rows`: the test "bound < rows" reads the same on the cut costs.
    rc = [[min(ui + vj - weight, rows) for vj, weight in zip(v, row)]
          for ui, row in zip(u, matrix)]
    matched, unmatched = [], []
    for pair, (i, j) in zip(component, cells):
        if assignment[i] == j:
            matched.append(pair)
        elif rc[i][j] < rows:
            unmatched.append((pair, i, j))
    if not unmatched:
        return matched
    # dist[a][b]: the cheapest chain of rows from a to b, each taking the
    # column the next one holds in the found matching (Floyd-Warshall).
    dist = [[costs[j] for j in assignment] for costs in rc]
    for k, via_k in enumerate(dist):
        for to in dist:
            via = to[k]
            if via < rows:
                to[:] = [min(old, via + new) for old, new in zip(to, via_k)]
    owner = dict(zip(assignment, range(rows)))
    free = [j for j in range(cols) if j not in owner]
    # to_sink[k]: the cheapest chain from row k to a free column (`rows`,
    # out of reach, when none is free). start[i]: the cheapest start of a
    # path that reaches row i, by giving up the column of row i or of a
    # row that leads to it.
    sink = [min((costs[j] for j in free), default=rows) for costs in rc]
    to_sink = [min(d + e for d, e in zip(row, sink)) for row in dist]
    start = [min(min(v[assignment[x]], rows) + dist[x][i]
                 for x in range(rows)) for i in range(rows)]
    doubtful = []
    for pair, i, j in unmatched:
        k = owner.get(j)
        rest = (start[i] if k is None
                else min(dist[k][i], start[i] + to_sink[k]))
        if rc[i][j] + rest < rows:
            doubtful.append(pair)
    if not doubtful:
        return matched
    pairs = []
    for part in _components(matched + doubtful):
        pairs.extend(_exact_pairs(part, objective))
    return pairs


def _exact_pairs(component, objective):
    """The optimal pairs of one connected component, as one exact
    max-weight assignment on integers; the fallback of `_component_pairs`.
    With n the larger side, D the lcm of the objectives' denominators and
    K the number of pairs, the pair of sorted rank `code` (1-based) weighs

        (2(n + 1) + objective) * D * 3**K + 3**(K - code).

    The cardinality term outweighs any objective sum (each objective is
    below 2, and at most n pairs match); objectives differ by multiples of
    1/D, so a nonzero objective difference outweighs the tie terms, which
    sum to less than 3**K / 2; and among the rest the larger tie sum holds
    the smallest pair of the symmetric difference."""
    layout = cells, _, cols = _layout(component, {g for g, _ in component},
                                      {p for _, p in component})
    count = len(component)
    unit = math.lcm(*{objective[pair][1] for pair in component}) * 3 ** count
    bonus = 2 * (cols + 1) * unit
    weights = []
    for code, pair in enumerate(component, start=1):
        num, den = objective[pair]
        weights.append(bonus + num * (unit // den) + 3 ** (count - code))
    assignment = _max_weight_assignment(_matrix(layout, weights))[0]
    return [pair for pair, (i, j) in zip(component, cells)
            if assignment[i] == j]


def _max_weight_assignment(weight):
    """Exact max-weight assignment of every row of an integer matrix with
    no more rows than columns (Hungarian method with potentials, on Python
    ints). Returns the column assigned to each row, and duals u (one per
    row) and v (one per column) with u[i] + v[j] >= weight[i][j],
    equality on the assignment, v >= 0, and v == 0 on every column the
    assignment leaves free."""
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
    # On costs top - weight the method keeps u[i] + v[j] <= cost, and only
    # lowers v on columns it has matched.
    return assignment, [top - x for x in u[1:]], [-x for x in v[1:]]


def _exact_loc_a(scenario: _Scenario, matchings) -> float:
    """LocA averaged over the matchings, with the matched IoUs summed as
    Fractions: the fallback for when its bounds round to two doubles."""
    total = Fraction(0)
    for matching in matchings:
        ious = [Fraction(*scenario.iou[frame][pair][:2])
                for frame, pairs in matching for pair in pairs]
        if ious:
            total += sum(ious, Fraction(0)) / len(ious)
    return float(total / len(matchings))


def _reduce(scenario: _Scenario, matchings, per_alpha) -> HotaComponents:
    """The HOTA fields averaged over the matchings' `ratios`; over more
    than one threshold they are alpha-averaged, and the counts are means."""
    n = len(per_alpha)
    fields = {"hota": sum(values["hota"] for values in per_alpha) / n}
    for name in _EXACT_FIELDS:
        fields[name] = _mean([values[name] for values in per_alpha])
    low, high = (_mean([values["loc_a"][end] for values in per_alpha])
                 for end in (0, 1))
    fields["loc_a"] = (low if low == high
                       else _exact_loc_a(scenario, matchings))
    for name in _COUNT_FIELDS:
        total = sum(values[name] for values in per_alpha)
        fields[name] = total / n if n > 1 else total
    return HotaComponents(**fields, alpha_averaged=n > 1)


@dataclass(frozen=True)
class HotaSweep:
    """One (video, query)'s sweep: the components averaged over `ALPHAS`,
    and the identity map {gt id: predicted id} in ascending GT id. It keeps
    the scenario, its matchings and their `ratios`, so that `at` reads a
    threshold's result without matching again."""

    components: HotaComponents
    id_map: dict[int, int]
    _scenario: _Scenario = field(compare=False, repr=False)
    _matchings: list = field(compare=False, repr=False)
    _per_alpha: list[dict] = field(compare=False, repr=False)

    def at(self, alpha) -> tuple[HotaComponents, tuple[FrameMatch, ...]]:
        """The components at one threshold of `ALPHAS`, and its per-frame
        matching with each matched pair's IoU as a Fraction. alpha is read
        as its decimal, so that the float 0.05 means 1/20; any value not in
        `ALPHAS` raises ValueError."""
        try:
            i = ALPHAS.index(Fraction(str(alpha)))
        except ValueError:
            raise ValueError(f"alpha {alpha!r} is not one of ALPHAS") from None
        matching, iou = self._matchings[i], self._scenario.iou
        frames = tuple(FrameMatch(frame, tuple(
            (g, p, Fraction(*iou[frame][g, p][:2])) for g, p in pairs))
            for frame, pairs in matching)
        return (_reduce(self._scenario, [matching], [self._per_alpha[i]]),
                frames)


def hota_sweep(gt_tracks, pred_tracks) -> HotaSweep:
    """The sweep over `ALPHAS`: the identity map is the vote over the
    matched frames at MAPPING_ALPHA, and the aggregate HOTA the mean of the
    per-threshold sqrt(DetA * AssA) values, not the sqrt of the means. A
    track id given twice on either side raises ValueError."""
    scenario = _Scenario(gt_tracks, pred_tracks)
    matchings = scenario.sweep()
    per_alpha = []
    for i, matching in enumerate(matchings):
        # No caller mutates a `ratios` dict, so equal matchings share one.
        per_alpha.append(per_alpha[-1] if i and matching == matchings[i - 1]
                         else scenario.ratios(matching))
    tpa = per_alpha[ALPHAS.index(MAPPING_ALPHA)]["tpa"]
    # Ascending GT id, then most matched frames, then ascending predicted
    # id: the first pair of each GT id is its vote's winner.
    id_map: dict[int, int] = {}
    for gid, pid in sorted(tpa, key=lambda p: (p[0], -tpa[p], p[1])):
        id_map.setdefault(gid, pid)
    return HotaSweep(_reduce(scenario, matchings, per_alpha), id_map,
                     scenario, matchings, per_alpha)


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
