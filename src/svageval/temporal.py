"""Temporal grounding metrics over referent pairs: R@k, mAP, mIoU, with
optional temporal non-maximum suppression.

`build_temporal_pairs` gives each referent a `TemporalPair`: its
ground-truth segments and the ranked scored segments of the predicted
track the identity map names. Each pair is scanned once. Its ranked
candidates' IoUs against its ground-truth segments go into one table; one
greedy-claim pass over that table per τ gives the pair's AP and the rank
of its first hit, and the table's first row gives its top-1 IoU.
``evaluate_temporal`` reduces these per-pair values in pair order: R@k is
the share of pairs whose first hit ranks at or below k, mAP the mean AP
and mIoU the mean top-1 IoU.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import (PredictionSet, Query, ScoredSegment, TemporalMetrics,
                    TemporalSegment, ValidationError)

TAUS: tuple[float, ...] = (0.1, 0.3, 0.5)
# Each τ's decimal as (numerator, denominator): 0.3 is 3/10, not the float.
_TAU_RATIOS = tuple(Fraction(str(tau)).as_integer_ratio() for tau in TAUS)
RECALL_KS: tuple[int, ...] = (1, 5, 10)


def _rank_key(cand: ScoredSegment):
    return (-cand.score, cand.segment.start, cand.segment.end)


@dataclass(frozen=True)
class TemporalPair:
    """The unit of temporal evaluation: one referent's ground-truth
    segments, which must be non-empty, against the ranked scored segments
    of its mapped prediction ``pred_track_id`` (``None`` and no segments
    when the referent is unmapped). The temporal metrics read
    ``predictions`` in the order ranked here."""

    query_id: str
    gt_track_id: int
    gt_segments: tuple[TemporalSegment, ...]
    predictions: tuple[ScoredSegment, ...]
    pred_track_id: int | None = None

    def __post_init__(self):
        if not self.gt_segments:
            raise ValidationError("gt_segments", "must be non-empty")
        ranked = tuple(sorted(self.predictions, key=_rank_key))
        object.__setattr__(self, "predictions", ranked)


def build_temporal_pairs(id_map: dict[int, int], query: Query,
                         preds: PredictionSet | None) -> list[TemporalPair]:
    """One pair per referent of the query, in referent order. Unmapped
    referents (and referents whose mapped id carries no temporal entry)
    yield pairs with empty predictions rather than being dropped."""
    temporal = preds.temporal if preds is not None else {}
    return [TemporalPair(
                query_id=query.query_id,
                gt_track_id=referent.gt_track_id,
                gt_segments=referent.gt_segments,
                predictions=temporal.get(
                    pid := id_map.get(referent.gt_track_id), ()),
                pred_track_id=pid)
            for referent in query.referents]


def _overlap(a: TemporalSegment, b: TemporalSegment) -> tuple[int, int]:
    """Intersection and union of two inclusive intervals, as ints."""
    inter = min(a.end, b.end) - max(a.start, b.start) + 1
    if inter < 0:
        inter = 0
    return inter, (a.end - a.start + 1) + (b.end - b.start + 1) - inter


def temporal_iou(a: TemporalSegment, b: TemporalSegment) -> float:
    """Interval IoU with inclusive endpoints; [k, k] has length 1."""
    inter, union = _overlap(a, b)
    return inter / union


def nms(candidates, threshold: float) -> list[ScoredSegment]:
    """Greedy suppression: keep the best-scoring candidate, drop every
    remaining one overlapping a kept candidate beyond the threshold. A
    threshold outside [0, 1] raises ValueError, with no candidates too."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"nms threshold must be in [0, 1], got {threshold}")
    ranked = sorted(candidates, key=_rank_key)
    kept: list[ScoredSegment] = []
    for cand in ranked:
        for k in kept:
            inter, union = _overlap(cand.segment, k.segment)
            if inter / union > threshold:
                break
        else:
            kept.append(cand)
    return kept


def _scan(gt_segments, ranked
          ) -> tuple[dict[float, int], dict[float, float], float]:
    """One referent's first-hit rank (absent without a hit) and AP at each
    τ, and its top-1 IoU (0 without candidates). AP claims one-to-one:
    each candidate takes the unclaimed ground-truth segment of highest IoU
    at least τ, so the first claim is the first hit, and a single segment
    gives 1/rank-of-first-hit. Each IoU is an int (inter, union), compared
    with τ's decimal and with the best so far by cross-multiplying."""
    table = [[_overlap(c.segment, g) for g in gt_segments] for c in ranked]
    first_hit: dict[float, int] = {}
    ap: dict[float, float] = {}
    for tau, (num, den) in zip(TAUS, _TAU_RATIOS):
        claimed: set[int] = set()
        total = 0.0
        for rank, row in enumerate(table, start=1):
            best_idx = -1
            best_inter, best_union = 0, 1
            for idx, (inter, union) in enumerate(row):
                if (inter * den >= num * union
                        and inter * best_union > best_inter * union
                        and idx not in claimed):
                    best_idx = idx
                    best_inter, best_union = inter, union
            if best_idx >= 0:
                claimed.add(best_idx)
                first_hit.setdefault(tau, rank)
                total += len(claimed) / rank
        ap[tau] = total / len(gt_segments)
    return first_hit, ap, (max(inter / union for inter, union in table[0])
                           if table else 0.0)


def evaluate_temporal(pairs, nms_threshold: float | None = None
                      ) -> TemporalMetrics:
    """All temporal metrics over the pairs, after per-pair suppression when
    a threshold is given."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no referents in scope")
    scans = [_scan(p.gt_segments, p.predictions if nms_threshold is None
                   else nms(p.predictions, nms_threshold)) for p in pairs]
    n = len(scans)
    recall = {k: {tau: sum(1 for first_hit, _, _ in scans
                           if first_hit.get(tau, k + 1) <= k) / n
                  for tau in TAUS}
              for k in RECALL_KS}
    return TemporalMetrics(
        r1=recall[1], r5=recall[5], r10=recall[10],
        map_at={tau: sum(ap[tau] for _, ap, _ in scans) / n for tau in TAUS},
        miou=sum(top1 for _, _, top1 in scans) / n,
    )
