"""Temporal grounding metrics over referent pairs: R@k, mAP, mIoU, with
optional temporal non-maximum suppression."""
from __future__ import annotations

from .idmap import TemporalPair, _rank_key
from .model import ScoredSegment, TemporalMetrics, TemporalSegment

TAUS: tuple[float, ...] = (0.1, 0.3, 0.5)
RECALL_KS: tuple[int, ...] = (1, 5, 10)


def temporal_iou(a: TemporalSegment, b: TemporalSegment) -> float:
    """Interval IoU with inclusive endpoints; [k, k] has length 1."""
    inter = min(a.end, b.end) - max(a.start, b.start) + 1
    if inter <= 0:
        return 0.0
    union = len(a) + len(b) - inter
    return inter / union


def nms(candidates, threshold: float) -> list[ScoredSegment]:
    """Greedy suppression: keep the best-scoring candidate, drop every
    remaining one overlapping a kept candidate beyond the threshold."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"nms threshold must be in [0, 1], got {threshold}")
    ranked = sorted(candidates, key=_rank_key)
    kept: list[ScoredSegment] = []
    for cand in ranked:
        if all(temporal_iou(cand.segment, k.segment) <= threshold
               for k in kept):
            kept.append(cand)
    return kept


def _is_hit(cand: ScoredSegment, gt_segments, tau: float) -> bool:
    return any(temporal_iou(cand.segment, g) >= tau for g in gt_segments)


def recall_at_k(pairs, k: int, tau: float) -> float:
    """Fraction of pairs whose top-k candidates contain a segment with IoU
    at least tau against some ground-truth segment."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no referents in scope")
    hits = 0
    for pair in pairs:
        if any(_is_hit(c, pair.gt_segments, tau)
               for c in pair.predictions[:k]):
            hits += 1
    return hits / len(pairs)


def average_precision(pair: TemporalPair, tau: float) -> float:
    """Ranked-retrieval AP with greedy one-to-one claiming of ground-truth
    segments (highest-IoU unclaimed segment first). Reduces to
    1/rank-of-first-hit for a single ground-truth segment."""
    claimed: set[int] = set()
    hits = 0
    total = 0.0
    for rank, cand in enumerate(pair.predictions, start=1):
        best_idx = -1
        best_iou = 0.0
        for idx, seg in enumerate(pair.gt_segments):
            if idx in claimed:
                continue
            value = temporal_iou(cand.segment, seg)
            if value >= tau and value > best_iou:
                best_idx = idx
                best_iou = value
        if best_idx >= 0:
            claimed.add(best_idx)
            hits += 1
            total += hits / rank
    return total / len(pair.gt_segments)


def map_at(pairs, tau: float) -> float:
    """Unweighted mean of per-pair average precision."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no referents in scope")
    return sum(average_precision(p, tau) for p in pairs) / len(pairs)


def miou(pairs) -> float:
    """Mean over pairs of the top-1 candidate's best IoU against ground
    truth; pairs without predictions contribute 0."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no referents in scope")
    total = 0.0
    for pair in pairs:
        if pair.predictions:
            top = pair.predictions[0]
            total += max(temporal_iou(top.segment, g)
                         for g in pair.gt_segments)
    return total / len(pairs)


def evaluate_temporal(pairs, nms_threshold: float | None = None
                      ) -> TemporalMetrics:
    """All temporal metrics over the pairs, after per-pair suppression when
    a threshold is given."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no referents in scope")
    if nms_threshold is not None:
        pairs = [
            TemporalPair(
                query_id=p.query_id,
                gt_track_id=p.gt_track_id,
                gt_segments=p.gt_segments,
                predictions=tuple(nms(p.predictions, nms_threshold)),
            )
            for p in pairs
        ]
    return TemporalMetrics(
        r1={tau: recall_at_k(pairs, 1, tau) for tau in TAUS},
        r5={tau: recall_at_k(pairs, 5, tau) for tau in TAUS},
        r10={tau: recall_at_k(pairs, 10, tau) for tau in TAUS},
        map_at={tau: map_at(pairs, tau) for tau in TAUS},
        miou=miou(pairs),
    )
