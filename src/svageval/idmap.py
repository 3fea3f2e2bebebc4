"""Bridge from spatial matching to temporal evaluation.

Three steps: take the per-frame matching at threshold 0.5, resolve each
ground-truth identity to its most frequent predicted counterpart by
majority vote (``build_id_map`` gives ``{gt id: predicted id}``), then pair
every referent's ground-truth segments with the scored segments of its
mapped predicted track, naming that track in the pair.
"""
from __future__ import annotations

from dataclasses import dataclass

from .model import PredictionSet, Query, ScoredSegment, TemporalSegment
from .spatial import MAPPING_ALPHA, AlphaMatchResult


def _rank_key(cand: ScoredSegment):
    return (-cand.score, cand.segment.start, cand.segment.end)


@dataclass(frozen=True)
class TemporalPair:
    """The unit of temporal evaluation: one referent's ground-truth
    segments against the ranked scored segments of its mapped prediction
    ``pred_track_id`` (``None`` and no segments when the referent is
    unmapped). The temporal metrics read ``predictions`` in the order
    ranked here."""

    query_id: str
    gt_track_id: int
    gt_segments: tuple[TemporalSegment, ...]
    predictions: tuple[ScoredSegment, ...]
    pred_track_id: int | None = None

    def __post_init__(self):
        ranked = tuple(sorted(self.predictions, key=_rank_key))
        object.__setattr__(self, "predictions", ranked)


def build_id_map(match_05: AlphaMatchResult) -> dict[int, int]:
    """GT id -> predicted id, in ascending GT id, by majority vote over
    matched frames at threshold 0.5. Ties go to the ascending predicted
    id; GT ids with no matched frames stay unmapped. The vote is
    per-GT-id, so one predicted id may win several GT ids."""
    if match_05.alpha != MAPPING_ALPHA:
        raise ValueError(
            f"id mapping requires the matching at alpha=0.5, "
            f"got alpha={match_05.alpha}")
    votes: dict[int, dict[int, int]] = {}
    for fm in match_05.frames:
        for gid, pid, _ in fm.matches:
            tally = votes.setdefault(gid, {})
            tally[pid] = tally.get(pid, 0) + 1
    return {gid: max(sorted(votes[gid]), key=votes[gid].__getitem__)
            for gid in sorted(votes)}


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
