"""Segment/atomic measures: ball masses, atomization, text round-trips."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from betacantor import (AtomicMeasure, Ball, CantorMeasure, RationalPoint,
                        SegmentMeasure, WeightedSegment, atomize,
                        dumps_measure, loads_measure, locate, schedule_tame,
                        schedule_thm11)
from betacantor.beta import _best_lines, build_window
from betacantor.density import build_mu_tilde
from betacantor.geometry import CLIP_REL_TOL, ball_chord

LINE = SegmentMeasure([WeightedSegment(RationalPoint(0, 0),
                                       RationalPoint(1, 0), 1)])


def clip(seg, ball):
    """The x-interval ``(lo, hi)`` where a horizontal segment meets a
    closed ball (degenerate when tangent), or None: the segment cut to the
    :func:`ball_chord` of its line."""
    chord = ball_chord(ball, seg.y)
    if chord is None:
        return None
    lo, hi = max(seg.left.x, chord[0]), min(seg.right.x, chord[1])
    return None if lo > hi else (lo, hi)


class TestBallMass:
    def test_centered_chord(self):
        assert LINE.ball_mass(Ball((F(1, 2), 0), F(1, 4))) == F(1, 2)

    def test_disjoint_support(self):
        assert LINE.ball_mass(Ball((F(1, 2), F(3, 4)), F(1, 4))) == 0

    def test_four_atoms_all_inside(self):
        mu = AtomicMeasure([(-1, 0, 1), (1, 0, 1), (-1, F(1, 5), 1),
                            (1, F(1, 5), 1)])
        assert mu.ball_mass(Ball((0, F(1, 10)), 2)) == 4

    def test_closed_ball_keeps_boundary_atom(self):
        mu = AtomicMeasure([(1, 0, F(1, 3))])
        assert mu.ball_mass(Ball((0, 0), 1)) == F(1, 3)

    def test_monotone_in_radius(self):
        rng = random.Random(2)
        segs = [WeightedSegment(RationalPoint(F(rng.randrange(-8, 0), 4), F(i, 7)),
                                RationalPoint(F(rng.randrange(1, 9), 4), F(i, 7)),
                                F(rng.randrange(1, 5)))
                for i in range(5)]
        mu = SegmentMeasure(segs)
        center = (F(1, 3), F(1, 5))
        masses = [mu.ball_mass(Ball(center, F(r, 8))) for r in range(1, 20)]
        assert all(a <= b for a, b in zip(masses, masses[1:]))

    def test_one_chord_per_line_matches_per_segment_clip(self):
        # several disjoint segments per line, so each chord serves many
        rng = random.Random(5)
        segs = []
        for i in range(-3, 4):
            cuts = sorted(rng.sample(range(-60, 61), 12))
            segs += [WeightedSegment(RationalPoint(F(lo, 40), F(i, 9)),
                                     RationalPoint(F(hi, 40), F(i, 9)),
                                     F(rng.randrange(1, 6)))
                     for lo, hi in zip(cuts[::2], cuts[1::2])]
        mu = SegmentMeasure(segs)
        a, b, y = segs[0].left.x, segs[0].right.x, segs[0].y
        t = (b - a) / 8
        balls = [Ball((F(rng.randrange(-48, 49), 32),
                       F(rng.randrange(-30, 31), 90)),
                      F(rng.randrange(1, 80), 40)) for _ in range(150)]
        balls += [
            Ball(((a + b) / 2, y + F(1, 5)), F(1, 5)),  # tangent: w2 == 0
            Ball((a, y - F(1, 5)), F(1, 5)),  # tangent at an endpoint
            Ball((F(1, 7), y + F(3, 10)), F(1, 2)),  # rational chord 2/5
            Ball(((a + b) / 2, y + 3 * t), 5 * t),  # chord ends on a, b
        ]
        for ball in balls:
            ref = F(0)
            for seg in segs:
                bounds = clip(seg, ball)
                if bounds is not None:
                    ref += seg.density * (bounds[1] - bounds[0])
            assert mu.ball_mass(ball) == ref
        assert mu.ball_mass(balls[-1]) >= segs[0].mass
        assert clip(segs[0], balls[-1]) == (a, b)
        assert clip(segs[0], balls[-4]) == ((a + b) / 2,) * 2

    def test_additive_over_disjoint_measures(self):
        a = SegmentMeasure([WeightedSegment(RationalPoint(0, 0),
                                            RationalPoint(1, 0), 2)])
        b = SegmentMeasure([WeightedSegment(RationalPoint(0, F(1, 3)),
                                            RationalPoint(1, F(1, 3)), 3)])
        both = SegmentMeasure(list(a.segments) + list(b.segments))
        ball = Ball((F(1, 2), F(1, 6)), F(2, 3))
        assert both.ball_mass(ball) == a.ball_mass(ball) + b.ball_mass(ball)


def atom_mass(atoms, ball):
    """The exact mass of ``(x, y, m)`` atoms in a closed ball: one
    ``Fraction`` test per atom."""
    r2 = ball.radius * ball.radius
    return sum((F(m) for x, y, m in atoms
                if (F(x) - ball.cx) ** 2 + (F(y) - ball.cy) ** 2 <= r2), F(0))


class TestAtomsAgainstFractionLoop:
    """``AtomicMeasure`` on its int rows against test-local ``Fraction``
    loops: ball masses, the total mass and the float mirrors."""

    @staticmethod
    def clouds():
        rng = random.Random(17)
        # float-given atoms, about a quarter of them massless
        yield [(rng.uniform(-1, 1), rng.uniform(-1, 1),
                0.0 if rng.random() < 0.25 else rng.uniform(0, 2))
               for _ in range(200)]
        # pairwise coprime denominators, zero masses included
        primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]
        yield [(F(rng.randrange(-60, 60), p), F(rng.randrange(-60, 60), q),
                F(rng.randrange(0, 4), p * q))
               for p, q in zip(primes, primes[1:]) for _ in range(10)]
        # atoms exactly on the sphere |z - (1/3, -2/7)| = 5/11, from
        # Pythagorean offsets, and atoms just outside it
        cx, cy, r = F(1, 3), F(-2, 7), F(5, 11)
        sphere = [(cx + dx * r, cy + dy * r, F(1, k))
                  for k, (dx, dy) in enumerate(
                      [(F(3, 5), F(4, 5)), (F(-4, 5), F(3, 5)), (1, 0),
                       (0, -1), (F(-5, 13), F(-12, 13))], start=2)]
        grow = 1 + F(1, 10 ** 9)
        outside = [(cx + (x - cx) * grow, cy + (y - cy) * grow, m)
                   for x, y, m in sphere[:2]]
        yield sphere + outside + [(cx, cy, 0)]

    @staticmethod
    def balls(atoms, rng):
        yield Ball((F(1, 3), F(-2, 7)), F(5, 11))
        for x, y, _ in atoms[:5]:
            yield Ball((F(x), F(y)), F(rng.randrange(1, 40), 17))
        for _ in range(20):
            yield Ball((F(rng.randrange(-20, 20), 13),
                        F(rng.randrange(-20, 20), 11)),
                       F(rng.randrange(1, 30), rng.randrange(1, 20)))

    def test_ball_mass_total_and_floats(self):
        rng = random.Random(3)
        for atoms in self.clouds():
            mu = AtomicMeasure(atoms)
            for ball in self.balls(atoms, rng):
                assert mu.ball_mass(ball) == atom_mass(atoms, ball)
            assert mu.total_mass == sum((F(m) for _, _, m in atoms), F(0))
            for got, col in zip(mu.float_arrays, zip(*atoms)):
                want = np.array([float(F(v)) for v in col])
                assert got.tobytes() == want.tobytes()
            keep = [i % 3 == 0 for i in range(len(atoms))]
            assert mu.subset(keep).atoms == tuple(
                a for a, k in zip(mu.atoms, keep) if k)

    def test_sphere_atoms_count_and_outside_ones_do_not(self):
        sphere_cloud = list(self.clouds())[-1]
        mu = AtomicMeasure(sphere_cloud)
        ball = Ball((F(1, 3), F(-2, 7)), F(5, 11))
        assert mu.ball_mass(ball) == sum(F(1, k) for k in range(2, 7))

    def test_empty(self):
        mu = AtomicMeasure([])
        assert mu.ball_mass(Ball((0, 0), 1)) == 0
        assert mu.total_mass == 0 and len(mu) == 0
        assert [a.shape for a in mu.float_arrays] == [(0,)] * 3


def segment_union(seed):
    rng = random.Random(seed)
    return SegmentMeasure([
        WeightedSegment(RationalPoint(F(rng.randrange(-40, 0), 40), F(i, 9)),
                        RationalPoint(F(rng.randrange(1, 40), 40), F(i, 9)),
                        F(rng.randrange(1, 6)))
        for i in range(-4, 5)])


def atom_cloud(seed, n=300):
    rng = random.Random(seed)
    return AtomicMeasure([(rng.uniform(-1, 1), rng.uniform(-1, 1),
                           rng.uniform(0.1, 2.0)) for _ in range(n)])


class TestBallMasses:
    """The float ``ball_masses`` of each measure kind against the exact
    ``ball_mass``, one ball at a time."""

    RADII = [0.25, 0.03, 1.3, 0.1, 0.6]  # unsorted on purpose
    CENTERS = [(0.1, 0.05), (0.5, 0.0), (-0.3, 0.4)]

    def reference(self, mu, cx, cy):
        return [float(mu.ball_mass(Ball((cx, cy), r))) for r in self.RADII]

    def test_segment_union(self):
        mu = segment_union(7)
        # the exact path widens each irrational half-chord by CLIP_REL_TOL,
        # so the reference itself sits up to that much above the true mass
        for cx, cy in self.CENTERS:
            got = mu.ball_masses(cx, cy, self.RADII)
            assert got.tolist() == pytest.approx(
                self.reference(mu, cx, cy), rel=2 * CLIP_REL_TOL, abs=0)

    def test_atom_cloud(self):
        mu = atom_cloud(8)
        xs, ys, _ = mu.float_arrays
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


#: one measure of each kind, with a box of centers around its support
KINDS = [
    ("segments", lambda: segment_union(7), (-1.0, 1.0, -0.5, 0.5)),
    ("atoms", lambda: atom_cloud(8), (-1.0, 1.0, -1.0, 1.0)),
    ("cantor", lambda: CantorMeasure(schedule_tame(2), 2),
     (0.0, 1.0, 0.0, 0.2)),
]


class TestUnitWindow:
    """The rescaled window of each measure kind carries the exact ball mass
    divided by the radius, up to the float chord clip (near-tangent chords
    amplify the float half-chord error)."""

    @pytest.mark.parametrize("name, make, box", KINDS)
    def test_mass_matches_ball_mass(self, name, make, box):
        mu = make()
        x0, x1, y0, y1 = box
        rng = random.Random(21)
        for _ in range(60):
            cx = F(rng.uniform(x0, x1))
            cy = F(rng.uniform(y0, y1))
            r = F(2.0 ** rng.uniform(-7, 0))
            win, = mu.unit_windows(cx, cy, [r])
            exact = float(mu.ball_mass(Ball((cx, cy), r)))
            assert win.mass * float(r) == pytest.approx(exact, rel=1e-10,
                                                        abs=0)
            # the window lives in the unit ball
            for x in (win.s, win.e):
                assert (x ** 2 + win.y ** 2 <= 1.0 + 1e-9).all()
            # an atom is a piece of zero length, a clipped segment is not
            n = len(win.s)
            if name == "atoms":
                assert (win.s == win.e).all()
                assert (win.n_atoms, win.n_segments) == (n, 0)
            else:
                assert (win.e > win.s).all()
                assert (win.n_segments, win.n_atoms) == (n, 0)

    @staticmethod
    def fraction_rescale(mu, cx, cy, r):
        """The unit-window arrays ``(s, e, y, m)`` of a segment measure by
        ``Fraction`` quotients, each rounded once to a float, then the float
        chord clip and the density scaled by ``r`` and back."""
        ss, ee, yy, rho = [], [], [], []
        for seg in mu.segments:
            y = float((seg.y - cy) / r)
            if abs(y) > 1.0 + CLIP_REL_TOL:
                continue
            w = math.sqrt(max(0.0, 1.0 - min(1.0, y * y)))
            s = max(float((seg.left.x - cx) / r), -w)
            e = min(float((seg.right.x - cx) / r), w)
            if e - s <= 0.0:
                continue
            ss.append(s)
            ee.append(e)
            yy.append(y)
            rho.append(float(seg.density) * float(r))
        s, e = np.array(ss, dtype=float), np.array(ee, dtype=float)
        m = np.array(rho, dtype=float) * (1.0 / float(r)) * (e - s)
        return s, e, np.array(yy, dtype=float), m

    def test_int_rescale_matches_fraction_rescale(self):
        # non-dyadic denominators everywhere, so the int rows, the centers
        # and the radii share no common denominator
        rng = random.Random(23)
        for trial in range(30):
            segs = []
            for i in range(-4, 5):
                cuts = sorted(rng.sample(range(-90, 91), 6))
                segs += [WeightedSegment(
                    RationalPoint(F(lo, 63), F(i, 11)),
                    RationalPoint(F(hi, 63), F(i, 11)),
                    F(rng.randrange(1, 40), rng.randrange(1, 13)))
                    for lo, hi in zip(cuts[::2], cuts[1::2])]
            mu = SegmentMeasure(segs)
            cx = F(rng.randrange(-99, 100), rng.choice((3, 7, 45, 101)))
            cy = F(rng.randrange(-30, 31), rng.choice((9, 13, 77)))
            radii = [F(rng.randrange(1, 200), rng.choice((17, 60, 99))),
                     F(2.0 ** rng.uniform(-6, 1)), F(1, 22)]
            for r, win in zip(radii, mu.unit_windows(cx, cy, radii)):
                want = self.fraction_rescale(mu, cx, cy, r)
                for a, b in zip((win.s, win.e, win.y, win.m), want):
                    assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("name, make, box", KINDS)
    def test_nonpositive_radius_rejected(self, name, make, box):
        mu = make()
        for r in (0, -1, F(-1, 3)):
            with pytest.raises(ValueError):
                build_window(mu, (F(1, 2), 0), r)


class TestProtocol:
    #: the ball-mass and window protocol of the ``measures`` docstring
    METHODS = {"ball_mass", "ball_masses", "unit_windows",
               "candidate_centers"}

    @pytest.mark.parametrize("name, make, box", KINDS)
    def test_each_kind_answers_exactly_the_protocol(self, name, make, box):
        mu = make()
        names = {n for n in dir(mu)
                 if n.lstrip("_").startswith(("ball_", "unit_window",
                                              "candidate_"))
                 or "moments" in n}
        assert names == self.METHODS
        assert all(callable(getattr(mu, n)) for n in self.METHODS)


def exact_line(mu, cx, cy, r):
    """Whether one line carries the window of ``B((cx, cy), r)``, decided
    in ``Fraction`` (an empty window has one): for atoms, every cross
    product of the atoms in the ball with the direction from the first to
    the first other position vanishes; for segment and Cantor windows, the
    segments clipped exactly to positive length lie at one height."""
    ball = Ball((cx, cy), r)
    if isinstance(mu, AtomicMeasure):
        pts = [(x, y) for x, y, _ in mu.atoms
               if (x - cx) ** 2 + (y - cy) ** 2 <= r * r]
        if not pts:
            return True
        x0, y0 = pts[0]
        dx, dy = next(((x - x0, y - y0) for x, y in pts if (x, y) != pts[0]),
                      (1, 0))
        return all(dx * (y - y0) == dy * (x - x0) for x, y in pts)
    segs = mu.window((cx, cy), r).segments if isinstance(
        mu, CantorMeasure) else mu.segments
    heights = set()
    for seg in segs:
        cut = clip(seg, ball)
        if cut is not None and cut[0] < cut[1]:
            heights.add(seg.y)
    return len(heights) <= 1


class TestBallMoments:
    """The line each window's builder states, which every coefficient reads
    before it runs a closed form or a search, against an exact oracle."""

    RADII = [F(1, 4), 0.03, 1.3, 0.1, 0.6, 1e-3, 2.0 ** -0.5]

    @staticmethod
    def check(mu, cx, cy, radii):
        """Assert that every window of ``radii`` has a line exactly when
        :func:`exact_line` finds one; the flags."""
        wins = list(mu.unit_windows(cx, cy, radii))
        assert len(wins) == len(radii)
        flags = []
        for r, win in zip(radii, wins):
            assert (win.line is not None) == exact_line(mu, cx, cy, F(r))
            flags.append(win.line is not None)
        return flags

    @pytest.mark.parametrize("name, make, box", KINDS)
    def test_screen_agrees_with_collinear_line(self, name, make, box):
        # each builder's line agrees with the exact oracle; both outcomes
        # occur among these windows
        mu = make()
        x0, x1, y0, y1 = box
        rng = random.Random(22)
        flags = []
        for _ in range(6):
            flags += self.check(mu, F(rng.uniform(x0, x1)),
                                F(rng.uniform(y0, y1)), self.RADII)
        assert any(flags) and not all(flags)

    def test_atom_windows_keep_index_order(self):
        # the atom windows are the direct restriction of the float mirrors,
        # in index order, so their sums add in the same order
        mu = atom_cloud(31)
        xs, ys, ms = mu.float_arrays
        cx, cy = F(1, 3), F(2, 7)
        wins = mu.unit_windows(cx, cy, self.RADII)
        for r, win in zip(self.RADII, wins):
            fr = float(r)
            keep = ((xs - float(cx)) ** 2 + (ys - float(cy)) ** 2
                    <= (fr * (1.0 + CLIP_REL_TOL)) ** 2)
            np.testing.assert_array_equal(win.s, (xs[keep] - float(cx)) / fr)
            np.testing.assert_array_equal(win.y, (ys[keep] - float(cy)) / fr)
            np.testing.assert_array_equal(win.m, ms[keep] * (1.0 / fr))

    def test_atoms_collinear_until_an_outlier_enters(self):
        # exact rational atoms on y = (3/7)x - 2/5, one atom off the line
        # at distance 1 from the center, and a horizontal row
        m, b0 = F(3, 7), F(-2, 5)
        line = [(x, m * x + b0, 1) for x in
                (F(-1, 2), F(1, 3), F(2, 3), F(9, 10), F(1, 11))]
        mu = AtomicMeasure(line + [(0, b0 + 1, 2)])
        radii = [F(1, 8), F(1, 2), F(99, 100), 1, F(3, 2), 4]
        assert self.check(mu, F(0), b0, radii) == [True] * 3 + [False] * 3
        row = AtomicMeasure([(F(i, 7), F(1, 3), 1) for i in range(-9, 9)])
        assert all(self.check(row, F(0), F(1, 3), radii))

    @staticmethod
    def searched(mu, cx, cy, r):
        """Whether the window of ``B((cx, cy), r)`` has no line and goes to
        the search at p = 1.5."""
        win, = mu.unit_windows(cx, cy, [r])
        return win.line is None and _best_lines([win], 1.5)[0][3] > 0

    def test_near_collinear_windows_are_searched(self):
        # 1e-14 off a line in unit-window units is off the line: a float
        # fit with a tolerance such as 1e-12 would score these windows 0
        m, b0 = F(3, 7), F(-2, 5)
        line = [(x, m * x + b0, 1) for x in (F(-1, 2), F(1, 3), F(2, 3))]
        atoms = AtomicMeasure(line + [(F(1, 5), m * F(1, 5) + b0
                                       + F(1, 10 ** 14), 1)])
        assert self.searched(atoms, F(0), b0, F(1))
        rows = SegmentMeasure([
            WeightedSegment(RationalPoint(0, y), RationalPoint(1, y), 1)
            for y in (F(0), F(1, 10 ** 14))])
        assert self.searched(rows, F(1, 2), F(0), F(1))

    def test_large_numerator_slanted_atoms_keep_a_line(self):
        # exact points on a slanted rational line with large numerators
        # keep a line at every radius, the line carries them, and each
        # window scores 0 without a search
        m = F(123456789012345, 987654321098765)
        b0 = F(-31415926535897932, 10 ** 17)
        xs = [F(k, 1000003) for k in (-700001, -123457, 3, 99991, 512345)]
        mu = AtomicMeasure([(x, m * x + b0, k + 1)
                            for k, x in enumerate(xs)])
        cx, cy = xs[2], m * xs[2] + b0
        radii = [F(1, 10 ** 6), F(1, 9), F(1, 3), 1, 50]
        sizes = []
        for win in mu.unit_windows(cx, cy, radii):
            assert win.line is not None
            assert max(win.line.distance(x, y)
                       for x, y in zip(win.s, win.y)) < 1e-12
            sizes.append(len(win.m))
        assert sizes == [1, 2, 3, 5, 5]
        assert all(res[0] == 0.0 and res[3] == 0 for res in
                   _best_lines(mu.unit_windows(cx, cy, radii), 1.5))

    def test_empty_and_no_radii(self):
        mu = atom_cloud(8)
        wins = list(mu.unit_windows(F(9), F(9), [F(1, 2), 1]))
        assert len(wins) == 2
        assert all(win.mass == 0.0 for win in wins)
        for kind in (LINE, mu, CantorMeasure(schedule_tame(1), 1)):
            assert list(kind.unit_windows(F(1, 2), F(0), [])) == []


class TestCandidateCenters:
    """Candidate centers are sorted, distinct and on the support."""

    @staticmethod
    def sorted_distinct(centers):
        return all(a < b for a, b in zip(centers, centers[1:]))

    def test_atoms_sampled_from_positions(self):
        mu = atom_cloud(9)
        positions = set(mu.points())
        sample = mu.candidate_centers(F(1, 16), seed=3, max_centers=50)
        assert len(sample) == 50
        assert set(sample) <= positions
        assert self.sorted_distinct(sample)
        assert sample == mu.candidate_centers(F(1, 16), 3, 50)
        assert sample != mu.candidate_centers(F(1, 16), 4, 50)
        every = mu.candidate_centers(F(1, 16), seed=3, max_centers=1000)
        assert every == sorted(positions)
        # coincident atoms give one center
        twice = AtomicMeasure(list(mu.atoms) + list(mu.atoms[:5]))
        assert twice.candidate_centers(F(1, 16), 3, 1000) == every
        assert twice.candidate_centers(F(1, 16), 3, 50) == sample

    @staticmethod
    def fraction_centers(mu, seed, max_centers):
        """The atom centers from their ``Fraction`` points: sorted and
        distinct, then a ``seed``-ed sample when there are too many."""
        centers = sorted(set(mu.points()))
        if len(centers) > max_centers:
            centers = sorted(random.Random(seed).sample(centers, max_centers))
        return centers

    @pytest.mark.parametrize("cloud", ["packing", "coprime"])
    def test_atoms_match_fraction_reference(self, cloud):
        if cloud == "packing":
            # the atoms of the packing pipeline: the approximation measure
            # of thm11(2) generation 2, cut into atoms 1/25000 apart
            mu_tilde, _ = build_mu_tilde(
                CantorMeasure(schedule_thm11(2), 2), 50.0, F(1, 64), 0.35,
                c_star=2.0, max_centers=128, seed=0)
            mu = atomize(mu_tilde, F(1, 25_000))
        else:
            # pairwise coprime denominators, repeated positions included
            rng = random.Random(5)
            primes = [3, 5, 7, 11, 13, 17, 19, 23]
            mu = AtomicMeasure([
                (F(rng.randrange(-9, 9), p), F(rng.randrange(-9, 9), q), 1)
                for p, q in zip(primes, primes[::-1]) for _ in range(40)])
            assert len(set(mu.points())) < len(mu)
        n = len(set(mu.points()))
        for seed, max_centers in ((0, n), (0, n + 5), (3, n // 2), (4, 7)):
            got = mu.candidate_centers(F(1, 64), seed, max_centers)
            assert got == self.fraction_centers(mu, seed, max_centers)
            assert all(type(v) is F for center in got for v in center)

    def test_cantor_centers_on_support(self):
        sched = schedule_tame(2)
        mu = CantorMeasure(sched, 2)
        centers = mu.candidate_centers(F(1, 16), seed=5, max_centers=40)
        assert 0 < len(centers) <= 40
        assert self.sorted_distinct(centers)
        for cx, cy in centers:
            locate(RationalPoint(cx, cy), 2, sched)  # raises off the support

    def test_segment_grid_on_segments(self):
        mu = segment_union(10)
        centers = mu.candidate_centers(F(1, 16), seed=0, max_centers=1)
        assert self.sorted_distinct(centers)
        assert {(s.left.x, s.y) for s in mu.segments} <= set(centers)
        assert {(s.right.x, s.y) for s in mu.segments} <= set(centers)
        for cx, cy in centers:
            assert any(s.y == cy and s.left.x <= cx <= s.right.x
                       for s in mu.segments)


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

    def test_atomize_spacing_and_mass(self):
        mu = SegmentMeasure([WeightedSegment(RationalPoint(0, 0),
                                             RationalPoint(1, 0), F(3, 2))])
        atoms = atomize(mu, F(1, 16))
        assert atoms.total_mass == mu.total_mass
        xs = sorted(x for x, _, _ in atoms.atoms)
        gaps = [b - a for a, b in zip(xs, xs[1:])]
        assert max(gaps) < F(1, 16)

    def test_atomize_matches_midpoint_chain(self):
        # oracle: the sub-interval midpoints as one Fraction chain per atom,
        # on dyadic, non-dyadic and negative segments
        rng = random.Random(11)
        segs = [WeightedSegment(RationalPoint(0, 0), RationalPoint(1, 0), 1),
                WeightedSegment(RationalPoint(F(-3, 7), F(1, 3)),
                                RationalPoint(F(2, 9), F(1, 3)), F(5, 11))]
        for _ in range(8):
            x0 = F(rng.randrange(-50, 50), rng.randrange(1, 40))
            x1 = x0 + F(rng.randrange(1, 60), rng.randrange(1, 30))
            y = F(rng.randrange(-9, 9), 13)
            segs.append(WeightedSegment(
                RationalPoint(x0, y), RationalPoint(x1, y),
                F(rng.randrange(1, 30), rng.randrange(1, 17))))
        spacing = F(2, 45)
        want = []
        for seg in segs:
            n = int(seg.length // spacing) + 1  # fewest steps below spacing
            step = seg.length / n
            want += [(seg.left.x + step * i + step / 2, seg.y, seg.mass / n)
                     for i in range(n)]
        got = atomize(SegmentMeasure(segs), spacing).atoms
        assert got == tuple(want)
        assert all(isinstance(v, F) for atom in got for v in atom)


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

    @pytest.mark.parametrize("first, record, reason", [
        ("S 0 0 1 0 1", "S 0 0 1/0 0 1", "zero denominator"),
        ("S 0 0 1 0 1", "S 1 0 0 0 1", "need left.x < right.x"),
        ("S 0 0 1 0 1", "S 0 0 1 0 -1", "density must be nonnegative"),
        ("S 0 0 1 0 1", "S 0 0 x 0 1", "Invalid literal"),
        ("S 0 0 1 0 1", "Q 0 0", "unknown record kind 'Q'"),
        ("A 0 0 1", "A 0 0", "A record needs 3 fields"),
        ("A 0 0 1", "A 0 0 -1", "atom masses must be nonnegative"),
        ("S 0 0 1 0 1", "A 0 0 1", "mixed segment/atom files"),
    ])
    def test_malformed_record_names_its_line(self, first, record, reason):
        text = f"# header\n{first}\n\n{record}\n"
        with pytest.raises(ValueError, match=rf"^line 4: {reason}"):
            loads_measure(text)
