"""Segment/atomic measures: ball masses, atomization, text round-trips."""

import random
from fractions import Fraction as F

import pytest

from betacantor import (AtomicMeasure, Ball, CantorMeasure, RationalPoint,
                        SegmentMeasure, WeightedSegment, atomize, ball_mass,
                        clip_measure, dumps_measure, loads_measure,
                        schedule_tame)
from betacantor.geometry import CLIP_REL_TOL

LINE = SegmentMeasure([WeightedSegment(RationalPoint(0, 0),
                                       RationalPoint(1, 0), 1)])


class TestBallMass:
    def test_centered_chord(self):
        assert ball_mass(LINE, Ball((F(1, 2), 0), F(1, 4))) == F(1, 2)

    def test_disjoint_support(self):
        assert ball_mass(LINE, Ball((F(1, 2), F(3, 4)), F(1, 4))) == 0

    def test_four_atoms_all_inside(self):
        mu = AtomicMeasure([(-1, 0, 1), (1, 0, 1), (-1, F(1, 5), 1),
                            (1, F(1, 5), 1)])
        assert ball_mass(mu, Ball((0, F(1, 10)), 2)) == 4

    def test_closed_ball_keeps_boundary_atom(self):
        mu = AtomicMeasure([(1, 0, F(1, 3))])
        assert ball_mass(mu, Ball((0, 0), 1)) == F(1, 3)

    def test_monotone_in_radius(self):
        rng = random.Random(2)
        segs = [WeightedSegment(RationalPoint(F(rng.randrange(-8, 0), 4), F(i, 7)),
                                RationalPoint(F(rng.randrange(1, 9), 4), F(i, 7)),
                                F(rng.randrange(1, 5)))
                for i in range(5)]
        mu = SegmentMeasure(segs)
        center = (F(1, 3), F(1, 5))
        masses = [ball_mass(mu, Ball(center, F(r, 8))) for r in range(1, 20)]
        assert all(a <= b for a, b in zip(masses, masses[1:]))

    def test_additive_over_disjoint_measures(self):
        a = SegmentMeasure([WeightedSegment(RationalPoint(0, 0),
                                            RationalPoint(1, 0), 2)])
        b = SegmentMeasure([WeightedSegment(RationalPoint(0, F(1, 3)),
                                            RationalPoint(1, F(1, 3)), 3)])
        both = SegmentMeasure(list(a.segments) + list(b.segments))
        ball = Ball((F(1, 2), F(1, 6)), F(2, 3))
        assert ball_mass(both, ball) == ball_mass(a, ball) + ball_mass(b, ball)


class TestBallMasses:
    """The float ``ball_masses`` of each measure kind against the exact
    ``ball_mass``, one ball at a time."""

    RADII = [0.25, 0.03, 1.3, 0.1, 0.6]  # unsorted on purpose
    CENTERS = [(0.1, 0.05), (0.5, 0.0), (-0.3, 0.4)]

    def reference(self, mu, cx, cy):
        return [float(ball_mass(mu, Ball((cx, cy), r))) for r in self.RADII]

    def test_segment_union(self):
        rng = random.Random(7)
        mu = SegmentMeasure([
            WeightedSegment(RationalPoint(F(rng.randrange(-40, 0), 40), F(i, 9)),
                            RationalPoint(F(rng.randrange(1, 40), 40), F(i, 9)),
                            F(rng.randrange(1, 6)))
            for i in range(-4, 5)])
        # the exact path widens each irrational half-chord by CLIP_REL_TOL,
        # so the reference itself sits up to that much above the true mass
        for cx, cy in self.CENTERS:
            got = mu.ball_masses(cx, cy, self.RADII)
            assert got.tolist() == pytest.approx(
                self.reference(mu, cx, cy), rel=2 * CLIP_REL_TOL, abs=0)

    def test_atom_cloud(self):
        rng = random.Random(8)
        mu = AtomicMeasure([(rng.uniform(-1, 1), rng.uniform(-1, 1),
                             rng.uniform(0.1, 2.0)) for _ in range(300)])
        xs, ys, _ = mu.float_arrays()
        for cx, cy in self.CENTERS:
            d = ((xs - cx) ** 2 + (ys - cy) ** 2) ** 0.5
            # membership is decided far from rounding
            assert all(abs(d - r).min() > 1e-9 for r in self.RADII)
            got = mu.ball_masses(cx, cy, self.RADII)
            assert got.tolist() == pytest.approx(
                self.reference(mu, cx, cy), rel=1e-12, abs=0)

    def test_cantor_matches_exactly(self):
        mu = CantorMeasure(schedule_tame(2), 2)
        for cx, cy in self.CENTERS:
            got = mu.ball_masses(cx, cy, self.RADII)
            assert got.tolist() == self.reference(mu, cx, cy)

    def test_no_radii(self):
        for mu in (LINE, AtomicMeasure([(0, 0, 1)]),
                   CantorMeasure(schedule_tame(1), 1)):
            assert mu.ball_masses(0.5, 0.0, []).shape == (0,)


class TestStructure:
    def test_overlap_detection(self):
        bad = SegmentMeasure([
            WeightedSegment(RationalPoint(0, 0), RationalPoint(2, 0), 1),
            WeightedSegment(RationalPoint(1, 0), RationalPoint(3, 0), 1),
        ])
        with pytest.raises(ValueError):
            bad.check_disjoint()

    def test_touching_segments_allowed(self):
        ok = SegmentMeasure([
            WeightedSegment(RationalPoint(0, 0), RationalPoint(1, 0), 1),
            WeightedSegment(RationalPoint(1, 0), RationalPoint(2, 0), 1),
        ])
        ok.check_disjoint()

    def test_clip_measure_total(self):
        clipped = clip_measure(LINE, Ball((F(1, 2), 0), F(1, 4)))
        assert clipped.total_mass == F(1, 2)

    def test_atomize_spacing_and_mass(self):
        mu = SegmentMeasure([WeightedSegment(RationalPoint(0, 0),
                                             RationalPoint(1, 0), F(3, 2))])
        atoms = atomize(mu, F(1, 16))
        assert atoms.total_mass == mu.total_mass
        xs = sorted(x for x, _, _ in atoms.atoms)
        gaps = [b - a for a, b in zip(xs, xs[1:])]
        assert max(gaps) < F(1, 16)


class TestSerialization:
    def test_segment_roundtrip_exact(self):
        rng = random.Random(5)
        segs = []
        for i in range(10):
            x0 = F(rng.randrange(-100, 100), rng.randrange(1, 50))
            segs.append(WeightedSegment(
                RationalPoint(x0, F(i, 13)),
                RationalPoint(x0 + F(rng.randrange(1, 60), 7), F(i, 13)),
                F(rng.randrange(0, 30), 11)))
        mu = SegmentMeasure(segs)
        back = loads_measure(dumps_measure(mu))
        assert isinstance(back, SegmentMeasure)
        assert back.segments == mu.segments

    def test_atom_roundtrip_exact(self):
        mu = AtomicMeasure([(F(1, 3), F(-2, 7), F(5, 9)), (0, 1, 2)])
        back = loads_measure(dumps_measure(mu))
        assert isinstance(back, AtomicMeasure)
        assert back.atoms == mu.atoms

    def test_float_inputs_roundtrip(self):
        mu = AtomicMeasure([(0.1, -0.25, 1.5)])
        back = loads_measure(dumps_measure(mu))
        assert back.atoms == mu.atoms

    def test_mixed_records_rejected(self):
        with pytest.raises(ValueError):
            loads_measure("S 0 0 1 0 1\nA 0 0 1\n")

    def test_comments_and_blank_lines_skipped(self):
        mu = loads_measure("# header\n\nS 0 0 1 0 1/2\n")
        assert isinstance(mu, SegmentMeasure)
        assert mu.total_mass == F(1, 2)

    def test_nonhorizontal_rejected(self):
        with pytest.raises(ValueError):
            loads_measure("S 0 0 1 1 1\n")
