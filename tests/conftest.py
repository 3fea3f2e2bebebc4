import os
import random

import pytest
from hypothesis import settings, strategies as st

from svageval.ingest import GroundTruthBundle, VideoGroundTruth
from svageval.model import BoundingBox, Detection, Query, Referent, \
    ScoredSegment, TemporalSegment, Track
from svageval.synth import MAX_ORACLE_FRAMES, MAX_ORACLE_TRACKS
from svageval.temporal import TemporalPair

# `HYPOTHESIS_PROFILE=ci` draws the same examples on every run, so that a
# property that fails in CI fails the same way on any machine.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def make_track(tid, boxes):
    """boxes: iterable of (frame, BoundingBox)."""
    return Track(tid, tuple(Detection(f, tid, b) for f, b in boxes))


def constant_track(tid, box, frames):
    return make_track(tid, [(f, box) for f in frames])


def random_tracks(rng: random.Random, max_tracks, max_frames, id_base):
    """Small random tracks on an integer grid (ties are common on purpose)."""
    n_frames = rng.randint(1, max_frames)
    tracks = []
    for t in range(rng.randint(0, max_tracks)):
        tid = id_base + t
        dets = []
        for f in range(1, n_frames + 1):
            if rng.random() < 0.75:
                dets.append(Detection(f, tid, BoundingBox(
                    x=rng.randint(0, 12), y=rng.randint(0, 12),
                    w=rng.randint(3, 8), h=rng.randint(3, 8))))
        if dets:
            tracks.append(Track(tid, tuple(dets)))
    return tracks


# Coordinates that are ints, two-decimal floats (binary fractions with
# denominators up to 2**52), or of extreme exponent: the smallest
# subnormal, a tiny normal and a huge value.
_EXTREMES = st.sampled_from((2.0 ** -1074, 1e-300, 1e300))
_COORDS = st.one_of(st.integers(-5, 20),
                    st.integers(-500, 2000).map(lambda n: n / 100),
                    _EXTREMES)
_SIZES = st.one_of(st.integers(1, 12),
                   st.integers(1, 1200).map(lambda n: n / 100), _EXTREMES)


@st.composite
def float_scenarios(draw):
    """(gt tracks, predicted tracks) within the oracle's limits, with float,
    int and extreme coordinates. Every box comes from one small pool, so
    that boxes overlap, coincide and tie often."""
    pool = draw(st.lists(st.builds(BoundingBox, _COORDS, _COORDS, _SIZES,
                                   _SIZES), min_size=1, max_size=5))
    frames = draw(st.integers(1, MAX_ORACLE_FRAMES))

    def tracks(id_base):
        result = []
        for tid in range(id_base, id_base + draw(
                st.integers(0, MAX_ORACLE_TRACKS))):
            present = draw(st.lists(st.booleans(), min_size=frames,
                                    max_size=frames))
            dets = tuple(Detection(frame, tid, draw(st.sampled_from(pool)))
                         for frame, keep in enumerate(present, start=1)
                         if keep)
            if dets:
                result.append(Track(tid, dets))
        return result

    return tracks(1), tracks(draw(st.sampled_from((1, 10))))


def random_pairs(rng: random.Random, max_pairs=6, max_candidates=12):
    pairs = []
    for _ in range(rng.randint(1, max_pairs)):
        gts = []
        pos = 1
        for _ in range(rng.randint(1, 3)):
            start = pos + rng.randint(0, 5)
            end = start + rng.randint(0, 10)
            gts.append(TemporalSegment(start, end))
            pos = end + 2
        cands = []
        for _ in range(rng.randint(0, max_candidates)):
            start = rng.randint(1, 40)
            cands.append(ScoredSegment(
                TemporalSegment(start, start + rng.randint(0, 12)),
                round(rng.random(), 2)))
        pairs.append(TemporalPair("q", 1, tuple(gts), tuple(cands)))
    return pairs


def generate_count_bundle(videos: int, queries: int,
                          tracks: int) -> GroundTruthBundle:
    """Minimal bundle with exact video/query/referent-track counts, for
    density statistics. Requires queries >= tracks >= videos."""
    if not videos >= 1:
        raise ValueError("videos must be >= 1")
    if tracks < videos or queries < tracks:
        raise ValueError("need queries >= tracks >= videos")
    bundle = GroundTruthBundle()
    base_t, extra_t = divmod(tracks, videos)
    base_q, extra_q = divmod(queries, videos)
    for vi in range(videos):
        video_id = f"v{vi + 1:05d}"
        n_t = base_t + (1 if vi < extra_t else 0)
        n_q = base_q + (1 if vi < extra_q else 0)
        vid_tracks = {
            tid: Track(track_id=tid, detections=(
                Detection(frame=1, track_id=tid,
                          box=BoundingBox(x=10 * tid, y=0, w=5, h=5)),))
            for tid in range(1, n_t + 1)}
        vid_queries = [
            Query(query_id=f"q{qi + 1:05d}", video_id=video_id,
                  text=f"count query {qi + 1}",
                  referents=(Referent(
                      gt_track_id=(qi % n_t) + 1,
                      gt_segments=(TemporalSegment(1, 1),)),))
            for qi in range(n_q)]
        bundle.videos[video_id] = VideoGroundTruth(
            video_id=video_id, tracks=vid_tracks, queries=vid_queries)
    return bundle


@pytest.fixture
def unit_box():
    return BoundingBox(0, 0, 10, 10)
