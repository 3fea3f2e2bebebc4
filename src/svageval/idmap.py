"""Bridge from spatial matching to temporal evaluation.

Three steps: take the per-frame matching at threshold 0.5, resolve each
ground-truth identity to its most frequent predicted counterpart by
majority vote, then pair every referent's ground-truth segments with the
scored segments of its mapped predicted track.
"""
from __future__ import annotations

from dataclasses import dataclass

from .model import PredictionSet, Query, ScoredSegment, TemporalSegment
from .spatial import MAPPING_ALPHA, AlphaMatchResult


@dataclass(frozen=True)
class IdMap:
    """gt_track_id -> predicted track_id, with the per-GT vote tallies
    retained for diagnostics."""

    mapping: dict[int, int]
    votes: dict[int, dict[int, int]]

    def duplicate_winners(self) -> dict[int, list[int]]:
        """Predicted ids that won the vote for more than one GT id."""
        by_pred: dict[int, list[int]] = {}
        for gid, pid in self.mapping.items():
            by_pred.setdefault(pid, []).append(gid)
        return {pid: sorted(gids) for pid, gids in by_pred.items()
                if len(gids) > 1}

    __hash__ = None


def _rank_key(cand: ScoredSegment):
    return (-cand.score, cand.segment.start, cand.segment.end)


@dataclass(frozen=True)
class TemporalPair:
    """The unit of temporal evaluation: one referent's ground-truth
    segments against the ranked scored segments of its mapped prediction
    (empty when the referent is unmapped). The temporal metrics read
    ``predictions`` in the order ranked here."""

    query_id: str
    gt_track_id: int
    gt_segments: tuple[TemporalSegment, ...]
    predictions: tuple[ScoredSegment, ...]

    def __post_init__(self):
        ranked = tuple(sorted(self.predictions, key=_rank_key))
        object.__setattr__(self, "predictions", ranked)


def build_id_map(match_05: AlphaMatchResult) -> IdMap:
    """Majority vote over matched frames at threshold 0.5. Ties go to the
    ascending predicted id; GT ids with no matched frames stay unmapped.
    The vote is per-GT-id, so one predicted id may win several GT ids."""
    if match_05.alpha != MAPPING_ALPHA:
        raise ValueError(
            f"id mapping requires the matching at alpha=0.5, "
            f"got alpha={match_05.alpha}")
    votes: dict[int, dict[int, int]] = {}
    for fm in match_05.frames:
        for gid, pid, _ in fm.matches:
            tally = votes.setdefault(gid, {})
            tally[pid] = tally.get(pid, 0) + 1
    mapping = {}
    for gid in sorted(votes):
        tally = votes[gid]
        best = max(sorted(tally), key=lambda pid: tally[pid])
        mapping[gid] = best
    return IdMap(mapping=mapping, votes=votes)


def build_temporal_pairs(id_map: IdMap, query: Query,
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
                    id_map.mapping.get(referent.gt_track_id), ()))
            for referent in query.referents]
