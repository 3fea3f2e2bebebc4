import fractions
import math
import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from svageval import spatial, synth
from svageval.model import (BoundingBox, Detection, PredictionSet, Query,
                            Referent, TemporalSegment, Track)
from svageval.pipeline import _duplicate_winners, evaluate_query
from svageval.spatial import (
    ALPHAS,
    MAPPING_ALPHA,
    hota_sweep,
    mean_components,
    restrict_track,
)

from svageval.synth import ScenarioSpec, generate
from svageval.temporal import build_temporal_pairs

from conftest import (constant_track, float_scenarios, make_track,
                      random_tracks)


def _table_iou(a, b):
    """The exact IoU of two boxes, from the integer boxes and overlap that
    a `_Scenario` table is built from; any positive overlap shows."""
    a_, b_ = (spatial._int_box(box, spatial._shift((a, b))) for box in (a, b))
    inter = spatial._overlap(a_, b_)
    return Fraction(inter, a_[4] + b_[4] - inter)


class TestBoxIou:
    def test_identical(self, unit_box):
        assert _table_iou(unit_box, unit_box) == 1

    def test_disjoint(self, unit_box):
        assert _table_iou(unit_box, BoundingBox(100, 100, 10, 10)) == 0

    def test_touching_edges_is_zero(self, unit_box):
        assert _table_iou(unit_box, BoundingBox(10, 0, 10, 10)) == 0

    def test_half_overlap(self, unit_box):
        # shift by half the width: inter 50, union 150
        assert (_table_iou(unit_box, BoundingBox(5, 0, 10, 10))
                == Fraction(1, 3))

    def test_exact_half(self, unit_box):
        # same origin, double height: inter 100, union 200
        assert (_table_iou(unit_box, BoundingBox(0, 0, 10, 20))
                == Fraction(1, 2))

    def test_symmetry(self, unit_box):
        other = BoundingBox(3, 4, 7, 9)
        assert _table_iou(unit_box, other) == _table_iou(other, unit_box)


class TestAlphaSweep:
    def test_nineteen_thresholds(self):
        assert len(ALPHAS) == 19
        assert ALPHAS[0] == Fraction(5, 100)
        assert ALPHAS[-1] == Fraction(95, 100)
        steps = {b - a for a, b in zip(ALPHAS, ALPHAS[1:])}
        assert steps == {Fraction(5, 100)}


def _perfect_pair(unit_box, frames=4):
    gt = [constant_track(1, unit_box, range(1, frames + 1))]
    pred = [constant_track(1, unit_box, range(1, frames + 1))]
    return gt, pred


def _id_switch_scenario():
    """Two GT tracks, predictions swap identities halfway through."""
    a = BoundingBox(0, 0, 10, 10)
    b = BoundingBox(50, 50, 10, 10)
    gt = [constant_track(1, a, range(1, 5)), constant_track(2, b, range(1, 5))]
    pred = [make_track(1, [(1, a), (2, a), (3, b), (4, b)]),
            make_track(2, [(1, b), (2, b), (3, a), (4, a)])]
    return gt, pred


class TestHotaPerfect:
    def test_all_ones(self, unit_box):
        gt, pred = _perfect_pair(unit_box)
        c = hota_sweep(gt, pred).components
        assert c.hota == 1.0
        assert c.det_a == c.ass_a == c.loc_a == 1.0
        assert c.det_re == c.det_pr == c.ass_re == c.ass_pr == 1.0
        assert c.tp == 4.0 and c.fn == 0.0 and c.fp == 0.0

    def test_empty_both_sides_vacuously_perfect(self):
        c = hota_sweep([], []).components
        assert c.hota == 1.0
        assert c.det_a == c.ass_a == c.loc_a == 1.0
        assert c.tp == 0.0

    def test_no_predictions(self, unit_box):
        gt, _ = _perfect_pair(unit_box)
        c = hota_sweep(gt, []).components
        assert c.hota == 0.0
        assert c.det_a == 0.0
        assert c.ass_a == 0.0 and c.loc_a == 0.0
        assert c.fn == 4.0

    def test_no_gt_all_false_positives(self, unit_box):
        _, pred = _perfect_pair(unit_box)
        c = hota_sweep([], pred).components
        assert c.hota == 0.0
        assert c.fp == 4.0


class TestIdSwitch:
    """Perfect localization, one identity swap at the midpoint. Every TP's
    association triple is (2, 2, 2), so AssA = 2/(2+2+2) = 1/3 at every
    threshold and HOTA = sqrt(1/3)."""

    def test_sweep_components(self):
        gt, pred = _id_switch_scenario()
        c = hota_sweep(gt, pred).components
        assert c.hota == 0.577350269189626
        assert c.det_a == 1.0
        assert c.ass_a == pytest.approx(1 / 3, abs=0)
        assert c.det_re == 1.0 and c.det_pr == 1.0
        assert c.ass_re == 0.5 and c.ass_pr == 0.5
        assert c.loc_a == 1.0
        assert c.tp == 8.0 and c.fn == 0.0 and c.fp == 0.0

    def test_single_alpha(self):
        gt, pred = _id_switch_scenario()
        c = hota_sweep(gt, pred).at(Fraction(1, 2))[0]
        assert c.hota == 0.5773502691896257
        assert c.tp == 8 and c.fn == 0 and c.fp == 0
        assert c.hota == math.sqrt(c.det_a * c.ass_a)


class TestPartialLocalization:
    """Constant IoU of exactly 1/2: matched for alpha <= 0.5 (10 of the 19
    thresholds), unmatched above. Every averaged ratio lands on 10/19."""

    def test_sweep(self, unit_box):
        gt = [constant_track(1, unit_box, range(1, 4))]
        pred = [constant_track(1, BoundingBox(0, 0, 10, 20), range(1, 4))]
        c = hota_sweep(gt, pred).components
        expected = 10 / 19
        assert c.det_a == 0.5263157894736842
        assert c.ass_a == expected and c.det_re == expected
        assert c.det_pr == expected and c.ass_re == expected
        assert c.ass_pr == expected
        # LocA only counts matched thresholds; IoU is 1/2 on each of them.
        assert c.loc_a == 0.2631578947368421
        assert c.tp == pytest.approx(30 / 19, abs=0)
        assert c.hota == pytest.approx(10 / 19, abs=1e-12)


class TestMatching:
    def test_alignment_guides_matching(self):
        """Two predictions overlap one GT box equally in one frame; the one
        with the better track-level alignment must win the match."""
        box = BoundingBox(0, 0, 10, 10)
        near = BoundingBox(0, 2, 10, 10)  # IoU 2/3 with box
        gt = [constant_track(1, box, range(1, 5))]
        pred = [make_track(1, [(1, near)]),
                make_track(2, [(1, near), (2, box), (3, box), (4, box)])]
        frames = hota_sweep(gt, pred).at(Fraction(1, 2))[1]
        assert [m[:2] for m in frames[0].matches] == [(1, 2)]

    def test_tie_breaks_to_ascending_ids(self):
        """Fully symmetric two-by-two frame: ids decide."""
        box = BoundingBox(0, 0, 10, 10)
        gt = [make_track(1, [(1, box)]), make_track(2, [(1, box)])]
        pred = [make_track(3, [(1, box)]), make_track(4, [(1, box)])]
        frames = hota_sweep(gt, pred).at(Fraction(1, 2))[1]
        assert [(g, p) for g, p, _ in frames[0].matches] == [(1, 3), (2, 4)]

    def test_threshold_is_inclusive(self, unit_box):
        gt = [make_track(1, [(1, unit_box)])]
        pred = [make_track(1, [(1, BoundingBox(0, 0, 10, 20))])]  # IoU = 1/2
        frames = hota_sweep(gt, pred).at(Fraction(1, 2))[1]
        assert len(frames[0].matches) == 1

    def test_float_alpha_is_its_decimal(self, unit_box):
        """0.05 is 1/20, not the binary float just above it: an IoU of
        exactly 1/20 is matched."""
        gt = [make_track(1, [(1, unit_box)])]
        pred = [make_track(1, [(1, BoundingBox(0, 0, 10, 200))])]  # 1/20
        sweep = hota_sweep(gt, pred)
        for alpha in (0.05, Fraction(1, 20)):
            assert len(sweep.at(alpha)[1][0].matches) == 1

    @pytest.mark.parametrize("alpha", [0, 1, -0.5, 1.5, 0.33, 0.1 + 0.2])
    def test_alpha_domain(self, alpha, unit_box):
        """A threshold is one of ALPHAS, read as its decimal: anything else
        is refused, however close."""
        gt = [make_track(1, [(1, unit_box)])]
        pred = [make_track(1, [(1, BoundingBox(0, 0, 10, 200))])]  # 1/20
        sweep = hota_sweep(gt, pred)
        with pytest.raises(ValueError, match="is not one of ALPHAS"):
            sweep.at(alpha)
        # A float 0.05 is 1/20: the IoU of exactly 1/20 is a TP at both.
        assert sweep.at(0.05) == sweep.at(Fraction(1, 20))
        assert sweep.at(0.05)[0].tp == 1

    def test_matching_maximizes_cardinality_over_alignment(self):
        """A greedy best-alignment-first pairing would match (1, 1) and
        strand both leftovers; the optimal matching pairs everyone."""
        box_a = BoundingBox(0, 0, 10, 10)
        box_b = BoundingBox(20, 0, 10, 10)
        shift_a = BoundingBox(0, 1, 10, 10)
        gt = [make_track(1, [(1, box_a), (2, box_a)]),
              make_track(2, [(1, box_b)])]
        pred = [make_track(1, [(1, box_b), (2, box_a)]),
                make_track(2, [(1, shift_a)])]
        frames = hota_sweep(gt, pred).at(Fraction(1, 2))[1]
        assert len(frames[0].matches) == 2


class TestRestrictTrack:
    def test_clips_to_segments(self, unit_box):
        track = constant_track(1, unit_box, range(1, 11))
        out = restrict_track(track, [TemporalSegment(2, 3),
                                     TemporalSegment(8, 9)])
        assert out.frames == (2, 3, 8, 9)
        assert out.track_id == 1

    def test_empty_result_ok(self, unit_box):
        track = constant_track(1, unit_box, range(1, 5))
        assert restrict_track(track, [TemporalSegment(20, 30)]).frames == ()


class TestMeanComponents:
    def test_counts_sum_ratios_average(self, unit_box):
        gt, pred = _perfect_pair(unit_box)
        perfect = hota_sweep(gt, pred).components
        miss = hota_sweep(gt, []).components
        mean = mean_components([perfect, miss])
        assert mean.hota == 0.5
        assert mean.det_a == 0.5
        assert mean.tp == 4.0 and mean.fn == 4.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_components([])


class TestSweepDecomposition:
    def test_sweep_hota_is_mean_of_roots(self):
        """The aggregate HOTA averages per-threshold sqrt(DetA * AssA); with
        a threshold-dependent scenario that differs from sqrt(mean * mean)."""
        rng = random.Random(91)
        saw_gap = False
        for _ in range(40):
            gt = random_tracks(rng, 3, 6, id_base=1)
            pred = random_tracks(rng, 3, 6, id_base=1)
            result = hota_sweep(gt, pred)
            sweep = result.components
            per_alpha = [result.at(alpha)[0] for alpha in ALPHAS]
            expected = sum(c.hota for c in per_alpha) / len(ALPHAS)
            assert sweep.hota == expected
            for name in ("tp", "fn", "fp"):
                assert getattr(sweep, name) == sum(
                    getattr(c, name) for c in per_alpha) / len(ALPHAS)
            naive = math.sqrt(sweep.det_a * sweep.ass_a)
            if abs(naive - sweep.hota) > 1e-9:
                saw_gap = True
        assert saw_gap, "sweep never separated the two formulas"


def _cut_in_two(rng, tracks):
    """Each track as two ids: its own id before a random frame, and its
    id + 10 from that frame on."""
    halves = []
    for track in tracks:
        cut = rng.randint(1, 6)
        for tid, after in ((track.track_id, False),
                           (track.track_id + 10, True)):
            dets = tuple(Detection(d.frame, tid, d.box)
                         for d in track.detections
                         if (d.frame >= cut) == after)
            if dets:
                halves.append(Track(tid, dets))
    return halves


class TestIdentityVote:
    """``hota_sweep``'s identity map: each GT id to the predicted id it
    matched in the most frames at MAPPING_ALPHA."""

    def test_majority_vote(self, unit_box):
        far = BoundingBox(50, 50, 10, 10)
        gt = [constant_track(1, unit_box, range(1, 6))]
        # pred 7 covers 3 frames, pred 8 covers the other 2 elsewhere-placed
        pred = [make_track(7, [(1, unit_box), (2, unit_box), (3, unit_box),
                               (4, far), (5, far)]),
                make_track(8, [(4, unit_box), (5, unit_box)])]
        assert hota_sweep(gt, pred).id_map == {1: 7}

    def test_vote_tie_goes_to_smaller_pred_id(self, unit_box):
        gt = [constant_track(1, unit_box, range(1, 5))]
        pred = [make_track(9, [(1, unit_box), (2, unit_box)]),
                make_track(4, [(3, unit_box), (4, unit_box)])]
        assert hota_sweep(gt, pred).id_map == {1: 4}

    def test_unmatched_gt_stays_unmapped(self, unit_box):
        gt = [constant_track(1, unit_box, range(1, 3)),
              constant_track(2, BoundingBox(50, 50, 5, 5), range(1, 3))]
        pred = [constant_track(1, unit_box, range(1, 3))]
        assert hota_sweep(gt, pred).id_map == {1: 1}

    def test_not_globally_one_to_one(self, unit_box):
        """One predicted track can win the vote for several GT ids; that is
        reported, not prevented."""
        near = BoundingBox(0, 1, 10, 10)
        gt = [make_track(1, [(1, unit_box), (2, unit_box)]),
              make_track(2, [(3, near), (4, near)])]
        pred = [constant_track(5, unit_box, range(1, 5))]
        id_map = hota_sweep(gt, pred).id_map
        assert id_map == {1: 5, 2: 5}
        query = Query("q", "v", "", (Referent(1, (TemporalSegment(1, 2),)),
                                     Referent(2, (TemporalSegment(3, 4),))))
        pairs = build_temporal_pairs(id_map, query, None)
        assert _duplicate_winners(pairs) == {5: [1, 2]}

    def test_map_is_the_vote_over_the_mapping_match(self):
        """On random GT tracks each predicted as two ids, one before and
        one after a random frame, the map is the vote over the sweep's
        matching at MAPPING_ALPHA: most matched frames, then the smaller
        predicted id, in ascending GT id."""
        rng = random.Random(5)
        contested = tied = False
        for _ in range(60):
            gt = random_tracks(rng, 3, 6, id_base=1)
            pred = _cut_in_two(rng, gt)
            sweep = hota_sweep(gt, pred)
            votes = {}
            for fm in sweep.at(MAPPING_ALPHA)[1]:
                for gid, pid, _ in fm.matches:
                    tally = votes.setdefault(gid, {})
                    tally[pid] = tally.get(pid, 0) + 1
            expected = {}
            for gid in sorted(votes):
                tally = votes[gid]
                expected[gid] = min(tally, key=lambda p: (-tally[p], p))
                counts = sorted(tally.values(), reverse=True)
                contested |= len(counts) > 1
                tied |= len(counts) > 1 and counts[0] == counts[1]
            assert list(sweep.id_map.items()) == list(expected.items())
        assert contested and tied


class TestOnePass:
    @staticmethod
    def _count(monkeypatch):
        """Count the scenarios built and their `sweep` and `ratios`
        calls."""
        calls = {"__init__": 0, "sweep": 0, "ratios": 0}
        for name in calls:
            method = getattr(spatial._Scenario, name)

            def counting(self, *args, _name=name, _method=method):
                calls[_name] += 1
                return _method(self, *args)

            monkeypatch.setattr(spatial._Scenario, name, counting)
        return calls

    def test_query_builds_one_scenario_and_sweeps_it_once(self, monkeypatch):
        calls = self._count(monkeypatch)
        bundle, predictions = generate(ScenarioSpec(seed=4, queries=1))
        video = bundle.videos[predictions[0].video_id]
        evaluate_query(video, video.queries[0], predictions[0])
        assert calls["__init__"] == calls["sweep"] == 1

    def test_thresholds_are_read_from_the_sweep(self, monkeypatch):
        """Every threshold's result comes from the sweep already made: no
        scenario is built, matched or reduced again."""
        sweep = hota_sweep(*_id_switch_scenario())
        calls = self._count(monkeypatch)
        per_alpha = [sweep.at(alpha) for alpha in ALPHAS]
        assert calls == {"__init__": 0, "sweep": 0, "ratios": 0}
        assert [c.tp for c, _ in per_alpha] == [8] * len(ALPHAS)

    def test_equal_matchings_are_reduced_once(self, monkeypatch):
        """`ratios` runs once per threshold whose matching differs from the
        one below it, and the sweep's result is unchanged."""
        gt, pred = _id_switch_scenario()
        gt.append(constant_track(3, BoundingBox(100, 0, 10, 10), range(1, 5)))
        pred.append(constant_track(3, BoundingBox(102, 0, 10, 10),
                                   range(1, 5)))
        matchings = spatial._Scenario(gt, pred).sweep()
        distinct = 1 + sum(a != b for a, b in zip(matchings, matchings[1:]))
        assert 1 < distinct < len(ALPHAS)
        expected = hota_sweep(gt, pred)
        reduced = []
        ratios = spatial._Scenario.ratios

        def counting(self, matching):
            reduced.append(matching)
            return ratios(self, matching)

        monkeypatch.setattr(spatial._Scenario, "ratios", counting)
        assert hota_sweep(gt, pred) == expected
        assert len(reduced) == distinct


class TestLevels:
    """Each pair's IoU is tested against the thresholds once, as a level."""

    @settings(max_examples=100, deadline=None)
    @given(float_scenarios())
    def test_levels_and_counts_are_the_exact_ious(self, scenario):
        """Each table entry's level is the number of thresholds its exact
        IoU reaches, no table holds a pair below ALPHAS[0], and each track
        pair's count at i is its frames whose IoU reaches ALPHAS[i]."""
        gt, pred = scenario
        table = spatial._Scenario(gt, pred)
        for g in gt:
            for p in pred:
                boxes = {det.frame: det.box for det in p.detections}
                levels = {}
                for det in g.detections:
                    if det.frame in boxes:
                        iou = synth._oracle_iou(det.box, boxes[det.frame])
                        levels[det.frame] = sum(iou >= a for a in ALPHAS)
                pair = g.track_id, p.track_id
                for frame, level in levels.items():
                    entry = table.iou[frame].get(pair)
                    assert (entry[4] if entry else 0) == level
                assert table.counts.get(pair, [0] * len(ALPHAS)) == [
                    sum(level > i for level in levels.values())
                    for i in range(len(ALPHAS))]
        assert all(entry[4] >= 1 for entries in table.iou.values()
                   for entry in entries.values())


def _optimal_pairs(feasible, iou_table, alignment):
    """The one-frame reference solve: maximum-cardinality assignment over
    the feasible pairs; among those, maximum total (alignment +
    IOU_EPSILON * iou); remaining ties broken toward the lexicographically
    smallest sorted (gt_id, pred_id) pair list. `iou_table` maps each pair
    to its IoU's (inter, union, ...) and `alignment` to (count, span), the
    alignment being count / span; the objective is then an int numerator
    over IOU_EPSILON's denominator times span * union. Each connected
    component is solved by `_component_optimum`, as the sweep solves it."""
    if len(feasible) < 2:
        return feasible
    pairs = []
    for component in spatial._components(feasible):
        objective = {}
        for pair in component:
            count, span = alignment[pair]
            inter, union = iou_table[pair][:2]
            objective[pair] = (spatial._EPS_DEN * count * union
                               + spatial._EPS_NUM * span * inter,
                               spatial._EPS_DEN * span * union)
        pairs.extend(spatial._component_optimum(component, objective))
    pairs.sort()
    return pairs


def _solve_each_threshold(table):
    """The sweep's reference: at each threshold index i, `_optimal_pairs`
    over each frame's pairs of level above i, with alignment (counts[pair][i],
    span[pair])."""
    return [[(frame, _optimal_pairs(
                [pair for pair, entry in iou.items() if entry[4] > i], iou,
                {pair: (hits[i], table.span[pair])
                 for pair, hits in table.counts.items()}))
             for frame, iou in table.iou.items()]
            for i in range(len(ALPHAS))]


@st.composite
def _lane_clips(draw):
    """(gt, pred) tracks in lanes 40 units apart, so that most frames are
    conflict-free: each GT box overlaps its own lane's predicted box alone,
    at an IoU the offsets vary. Now and then a predicted box strays into the
    next lane, where two predicted boxes then meet one GT box."""
    frames = draw(st.integers(1, 8))
    lanes = draw(st.integers(1, 4))
    offsets = st.integers(0, 6)
    gt, pred = [], []
    for lane in range(lanes):
        gt.append(constant_track(lane + 1, BoundingBox(40 * lane, 0, 10, 10),
                                 range(1, frames + 1)))
        boxes = []
        for frame in range(1, frames + 1):
            if draw(st.integers(0, 4)) == 0:
                continue
            stray = (lane + 1) % lanes if draw(st.integers(0, 9)) == 0 else lane
            boxes.append((frame, BoundingBox(40 * stray + draw(offsets),
                                             draw(offsets), 10, 10)))
        if boxes:
            pred.append(make_track(lane + 10, boxes))
    return gt, pred


@st.composite
def _splitting_crowds(draw):
    """(gt, pred) tracks in a tight row, each GT box 4 units from the next
    and each predicted box within 1 of its own GT box in either direction.
    Every frame has the first two predicted boxes, and neighbours overlap
    at an IoU of at least 0.29, so at alpha = 0.05 each frame is one
    component. Each predicted box's IoU is at least 0.68 with its own GT
    box and at most 0.54 with any other, so at alpha = 0.6 that component
    has split. The offsets vary by frame, so the alignment counts do too."""
    frames = draw(st.integers(1, 6))
    count = draw(st.integers(2, 4))
    offsets = st.integers(-1, 1)
    gt = [constant_track(k, BoundingBox(4 * k, 0, 10, 10),
                         range(1, frames + 1)) for k in range(1, count + 1)]
    pred = []
    for k in range(1, count + 1):
        boxes = [(frame, BoundingBox(4 * k + draw(offsets), draw(offsets), 10,
                                     10))
                 for frame in range(1, frames + 1)
                 if k < 3 or draw(st.integers(0, 5))]
        if boxes:
            pred.append(make_track(draw(st.sampled_from((0, 10))) + k, boxes))
    return gt, pred


class TestSweep:
    """One pass from the highest threshold down gives, at every threshold,
    the matching of an independent solve there."""

    @settings(max_examples=100, deadline=None)
    @given(float_scenarios())
    def test_float_scenarios(self, scenario):
        table = spatial._Scenario(*scenario)
        assert table.sweep() == _solve_each_threshold(table)

    @settings(max_examples=100, deadline=None)
    @given(_lane_clips())
    def test_mostly_conflict_free_clips(self, scenario):
        table = spatial._Scenario(*scenario)
        assert table.sweep() == _solve_each_threshold(table)

    @settings(max_examples=100, deadline=None)
    @given(_splitting_crowds())
    def test_components_that_split(self, scenario):
        table = spatial._Scenario(*scenario)
        assert table.sweep() == _solve_each_threshold(table)
        split = ALPHAS.index(Fraction(3, 5))
        for iou in table.iou.values():
            assert len(spatial._components(list(iou))) == 1
            assert len(spatial._components(
                [pair for pair, entry in iou.items() if entry[4] > split])) > 1

    def test_counts_alone_change_a_component_optimum(self, unit_box):
        """In frame 1 both predicted boxes equal the GT box, so its
        component is the same at every threshold. Predicted track 2 also
        overlaps it at IoU 0.3 in frames 2 and 3, and track 1 at 0.9 in
        frame 2: track 1 has the better alignment above 0.3, and track 2
        at 0.3 and below, so frame 1's matching changes with the counts
        alone."""
        gt = [constant_track(1, unit_box, range(1, 4))]
        pred = [make_track(1, [(1, unit_box), (2, BoundingBox(0, 0, 10, 9))]),
                make_track(2, [(1, unit_box), (2, BoundingBox(0, 0, 10, 3)),
                               (3, BoundingBox(0, 0, 10, 3))])]
        table = spatial._Scenario(gt, pred)
        matchings = table.sweep()
        assert matchings == _solve_each_threshold(table)
        first = [dict(matching)[1] for matching in matchings]
        low = ALPHAS.index(Fraction(3, 10))
        assert first == [[(1, 2)]] * (low + 1) + [[(1, 1)]] * (18 - low)

    @settings(max_examples=50, deadline=None)
    @given(_splitting_crowds())
    def test_each_component_state_is_solved_once(self, scenario):
        """Every component of two or more pairs is solved once per distinct
        (frame, sorted pairs, their counts) state, and no other is; the
        union-find of `_components` runs only inside such a solve, for its
        doubtful pairs."""
        table = spatial._Scenario(*scenario)
        states = set()
        for frame, iou in table.iou.items():
            for i in range(len(ALPHAS)):
                for component in spatial._components(
                        [pair for pair, entry in iou.items() if entry[4] > i]):
                    if len(component) > 1:
                        states.add((frame, tuple(component), tuple(
                            table.counts[pair][i] for pair in component)))
        solved = []
        solve = spatial._component_optimum

        def counting(component, objective):
            solved.append(tuple(component))
            return solve(component, objective)

        # Whether each `_components` call ran inside `_component_pairs`.
        inside, unions = [], []
        components, component_pairs = (spatial._components,
                                       spatial._component_pairs)

        def solving(*args):
            inside.append(True)
            try:
                return component_pairs(*args)
            finally:
                inside.pop()

        def recording(pairs):
            unions.append(bool(inside))
            return components(pairs)

        with mock.patch.object(spatial, "_component_optimum", counting), \
                mock.patch.object(spatial, "_component_pairs", solving), \
                mock.patch.object(spatial, "_components", recording):
            table.sweep()
        assert len(solved) == len(states)
        assert all(unions)
        assert sorted(solved) == sorted(component for _, component, _
                                        in states)


class TestRepeatedTrackId:
    """Two tracks with one id on either side are refused, naming the id;
    scored, they gave a result that depended on their order."""

    @staticmethod
    def _tracks():
        box = BoundingBox(0, 0, 10, 10)
        return constant_track(1, box, (1, 2)), constant_track(1, box, (2, 3))

    def test_gt_side(self):
        t1, t1b = self._tracks()
        with pytest.raises(ValueError, match="track id 1 is given twice"):
            hota_sweep([t1, t1b], [t1])

    def test_predicted_side(self):
        t1, t1b = self._tracks()
        for pred in ([t1, t1b], [t1b, t1]):
            with pytest.raises(ValueError, match="track id 1 is given twice"):
                hota_sweep([t1], pred)

    def test_query_with_a_repeated_predicted_track(self):
        bundle, predictions = generate(ScenarioSpec(seed=4, queries=1))
        predset = predictions[0]
        video = bundle.videos[predset.video_id]
        repeated = PredictionSet(predset.query_id, predset.video_id,
                                 predset.tracks + predset.tracks[:1],
                                 predset.temporal)
        tid = predset.tracks[0].track_id
        with pytest.raises(ValueError,
                           match=f"track id {tid} is given twice"):
            evaluate_query(video, video.queries[0], repeated)


_ALIGNMENTS = (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2), Fraction(1))
_IOUS = (Fraction(1, 2), Fraction(2, 3), Fraction(1))


@st.composite
def _tied_frames(draw):
    """One frame's feasible pairs with their IoUs and alignments, at most
    6 ids a side. The pairs fall in blocks over disjoint ids, so a frame
    has several components, 1 x k and k x 1 ones among them; the ids are
    shuffled so that components interleave in id order, and the values
    come from a few fractions so that exact ties are common."""
    gids = draw(st.permutations(range(1, 7)))
    pids = draw(st.permutations(range(1, 7)))
    feasible = []
    used_g = used_p = 0
    blocks = draw(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)),
                           min_size=1, max_size=4))
    for rows, cols in blocks:
        rows, cols = min(rows, 6 - used_g), min(cols, 6 - used_p)
        if rows < 1 or cols < 1:
            break
        cells = [(gids[used_g + i], pids[used_p + j])
                 for i in range(rows) for j in range(cols)]
        feasible += draw(st.lists(
            st.sampled_from(cells), min_size=min(len(cells), rows + cols - 1),
            max_size=len(cells), unique=True))
        used_g += rows
        used_p += cols
    iou_table = {pair: draw(st.sampled_from(_IOUS)) for pair in feasible}
    alignment = {pair: draw(st.sampled_from(_ALIGNMENTS))
                 for pair in feasible}
    return feasible, iou_table, alignment


def _exhaustive_pairs(feasible, iou_table, alignment):
    """The oracle's rule over every partial matching: most pairs, then the
    largest objective, then the smallest sorted pair list."""
    gids = sorted({g for g, _ in feasible})
    pids = sorted({p for _, p in feasible})
    best = best_key = None
    for matching in synth._enumerate_matchings(gids, pids, set(feasible)):
        pairs = sorted(matching)
        objective = sum((alignment[pair] + synth._ORACLE_EPS * iou_table[pair]
                         for pair in pairs), Fraction(0))
        key = (len(pairs), objective)
        if best is None or key > best_key or (key == best_key
                                              and pairs < best):
            best, best_key = pairs, key
    return best


def _solve_exactly(frame):
    """`_optimal_pairs` on a `_tied_frames` frame, and the oracle's pairs."""
    feasible, iou_table, alignment = frame
    as_ints = [{pair: value.as_integer_ratio()
                for pair, value in table.items()}
               for table in (iou_table, alignment)]
    return (_optimal_pairs(feasible, *as_ints),
            _exhaustive_pairs(*frame))


class TestAssignment:
    @settings(max_examples=200, deadline=None)
    @given(_tied_frames())
    def test_optimal_pairs_match_exhaustive_search(self, frame):
        found, best = _solve_exactly(frame)
        assert found == best

    @staticmethod
    def _count_fallbacks(monkeypatch):
        """Record the size of each component the exact solve runs on."""
        calls = []
        exact = spatial._exact_pairs

        def counting(component, objective):
            calls.append(len(component))
            return exact(component, objective)

        monkeypatch.setattr(spatial, "_exact_pairs", counting)
        return calls

    @pytest.mark.parametrize("bits", (1, 2))
    def test_low_widths_fall_back_to_the_exact_solve(self, monkeypatch,
                                                     bits):
        """With one or two fixed-point bits most components are left in
        doubt, and the exact solve over the doubtful pairs still gives the
        oracle's matching."""
        calls = self._count_fallbacks(monkeypatch)
        monkeypatch.setattr(spatial, "_FIX_BITS", bits)

        @settings(max_examples=200, deadline=None)
        @given(_tied_frames())
        def check(frame):
            found, best = _solve_exactly(frame)
            assert found == best

        check()
        assert calls

    def test_doubt_reaches_paths_entering_a_row_from_behind(self,
                                                            monkeypatch):
        """Pair (1, 1) is in the unique fixed-point optimum, but (2, 5),
        the tie-break's choice, is reached only by a path that gives up
        another row's column first; its bound must count that start."""
        monkeypatch.setattr(spatial, "_FIX_BITS", 8)
        feasible = [(1, 1), (1, 2), (1, 3), (1, 4), (2, 5), (2, 6), (4, 5),
                    (4, 6), (3, 5)]
        iou_table = {pair: (1, 2) for pair in feasible}
        alignment = {pair: (1, 6) for pair in feasible}
        alignment[2, 5] = alignment[2, 6] = (1, 3)
        assert (_optimal_pairs(feasible, iou_table, alignment)
                == [(1, 1), (2, 5), (4, 6)])

    def test_tie_free_dense_frame_is_certified(self, monkeypatch):
        """Every pair of a 6 x 6 frame is feasible and the k-th has
        alignment 2**-k, so no two matchings tie: the fixed-point solve
        alone decides it."""
        calls = self._count_fallbacks(monkeypatch)
        feasible = [(g, p) for g in range(1, 7) for p in range(1, 7)]
        iou_table = {pair: (1, 2) for pair in feasible}
        alignment = {pair: (1, 2 ** k)
                     for k, pair in enumerate(feasible, start=1)}
        frame = (feasible, {pair: Fraction(1, 2) for pair in feasible},
                 {pair: Fraction(*value) for pair, value in alignment.items()})
        assert (_optimal_pairs(feasible, iou_table, alignment)
                == _exhaustive_pairs(*frame))
        assert calls == []

    def test_exact_tie_falls_back_to_the_smaller_pair_list(self,
                                                           monkeypatch):
        """Both perfect matchings of a 2 x 2 frame have objective 2/3 plus
        the same IoU term; the fixed-point solve cannot tell them apart,
        and the exact solve picks the lexicographically smaller."""
        calls = self._count_fallbacks(monkeypatch)
        alignment = {(1, 1): (1, 3), (1, 2): (1, 2), (2, 1): (1, 6),
                     (2, 2): (1, 3)}
        iou_table = {pair: (1, 2) for pair in alignment}
        assert (_optimal_pairs(sorted(alignment), iou_table,
                                       alignment) == [(1, 1), (2, 2)])
        assert calls == [4]

    def test_solves_only_connected_components(self, monkeypatch):
        """Three overlapping referents and ten far-away predicted tracks: no
        assignment matrix is larger than the referents' component."""
        sizes = []
        solve = spatial._max_weight_assignment

        def recording(weight):
            sizes.append((len(weight), len(weight[0])))
            return solve(weight)

        monkeypatch.setattr(spatial, "_max_weight_assignment", recording)
        frames = range(1, 6)
        gt = [constant_track(k, BoundingBox(4 * k, 0, 10, 10), frames)
              for k in (1, 2, 3)]
        pred = [constant_track(k, BoundingBox(4 * k + 1, 0, 10, 10), frames)
                for k in (1, 2, 3)]
        pred += [constant_track(10 + k, BoundingBox(500 + 40 * k, 500, 10, 10),
                                frames) for k in range(10)]
        hota_sweep(gt, pred)
        assert sizes
        assert max(max(size) for size in sizes) <= 3


def _exact_sweep_loc_a(sweep):
    """LocA of the sweep from the matched IoUs summed as Fractions."""
    total = Fraction(0)
    for alpha in ALPHAS:
        ious = [iou for fm in sweep.at(alpha)[1]
                for _, _, iou in fm.matches]
        if ious:
            total += sum(ious, Fraction(0)) / len(ious)
    return float(total / len(ALPHAS))


class TestBoundedLocA:
    """LocA is bounded by the fixed-point floors of the matched IoUs; the
    Fraction sum runs only when the bounds round to two doubles."""

    @staticmethod
    def _count_fallbacks(monkeypatch):
        calls = []
        exact = spatial._exact_loc_a

        def counting(scenario, matchings):
            calls.append(len(matchings))
            return exact(scenario, matchings)

        monkeypatch.setattr(spatial, "_exact_loc_a", counting)
        return calls

    @pytest.mark.parametrize("bits", (1, 2))
    def test_undecided_bounds_fall_back_to_the_exact_sum(self, monkeypatch,
                                                         bits):
        frames = range(1, 4)
        gt = [constant_track(1, BoundingBox(0, 0, 10, 10), frames),
              constant_track(2, BoundingBox(0.5, 20, 7, 9), frames)]
        pred = [constant_track(1, BoundingBox(5, 0, 10, 10), frames),
                constant_track(2, BoundingBox(1.25, 21, 7, 7), frames[1:])]
        calls = self._count_fallbacks(monkeypatch)
        sweep = hota_sweep(gt, pred)
        single = sweep.at(Fraction(1, 5))[0]
        assert calls == []
        monkeypatch.setattr(spatial, "_LOC_BITS", bits)
        bounded = hota_sweep(gt, pred)
        assert bounded == sweep
        assert bounded.at(Fraction(1, 5))[0] == single
        assert calls == [len(ALPHAS), 1]
        assert sweep.components == synth.oracle_hota(gt, pred)
        assert sweep.components.loc_a == _exact_sweep_loc_a(sweep)

    def test_thresholds_build_no_fraction(self):
        """Building the table, and matching and reducing every threshold,
        constructs no Fraction: everything runs on ints."""
        gt, pred = self._float_scenario()
        built = []
        hook = self._fraction_hook(built)
        sys.setprofile(hook)
        try:
            table = spatial._Scenario(gt, pred)
            matchings = table.sweep()
            per_alpha = [table.ratios(matching) for matching in matchings]
        finally:
            sys.setprofile(None)
        assert any(values["tp"] for values in per_alpha)
        assert built == []
        # The hook does see Fractions being built, as the fallback does.
        sys.setprofile(hook)
        try:
            spatial._exact_loc_a(table, matchings)
        finally:
            sys.setprofile(None)
        assert built

    def test_sweep_builds_no_fraction(self, monkeypatch):
        """When the LocA bounds decide, the sweep, its identity map
        included, builds no Fraction."""
        gt, pred = self._float_scenario()
        calls = self._count_fallbacks(monkeypatch)
        built = []
        sys.setprofile(self._fraction_hook(built))
        try:
            id_map = hota_sweep(gt, pred).id_map
        finally:
            sys.setprofile(None)
        assert calls == []
        assert id_map
        assert built == []

    @staticmethod
    def _float_scenario():
        frames = range(1, 4)
        gt = [constant_track(1, BoundingBox(0.1, 0, 10, 10.3), frames),
              constant_track(2, BoundingBox(0.5, 2.25, 7, 9), frames)]
        pred = [constant_track(1, BoundingBox(5, 0.7, 10, 10), frames),
                constant_track(2, BoundingBox(1.25, 2, 7, 7), frames)]
        return gt, pred

    @staticmethod
    def _fraction_hook(built):
        """A profile hook that records every Fraction constructed."""
        def hook(frame, event, arg):
            if (event == "call"
                    and frame.f_code.co_filename == fractions.__file__
                    and frame.f_code.co_name in ("__new__",
                                                 "_from_coprime_ints")):
                built.append(frame.f_code.co_name)
        return hook

    @settings(max_examples=100, deadline=None)
    @given(float_scenarios(), st.sampled_from((1, 2, 8, 64, 128)))
    def test_bounds_hold_the_fraction_sum(self, scenario, bits):
        """At any precision the bounds hold the exact IoU sum, differ by at
        most one unit per matched IoU, and the sweep's LocA is the float
        of the exact mean."""
        gt, pred = scenario
        assume(gt or pred)
        with mock.patch.object(spatial, "_LOC_BITS", bits):
            table = spatial._Scenario(gt, pred)
            sweep = hota_sweep(gt, pred)
        for matching in table.sweep():
            ious = [Fraction(*table.iou[frame][pair][:2])
                    for frame, pairs in matching for pair in pairs]
            if not ious:
                continue
            (low, den), (high, high_den) = table.ratios(matching)["loc_a"]
            assert den == high_den == len(ious) << bits
            assert low <= sum(ious, Fraction(0)) * (1 << bits) <= high
            assert high - low <= len(ious)
        assert sweep.components.loc_a == _exact_sweep_loc_a(sweep)
