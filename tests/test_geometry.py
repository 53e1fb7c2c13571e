"""Geometry primitives: clipping, closed-form projected moments vs
quadrature, diameters."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.integrate import quad

from betacantor import Ball, RationalPoint, WeightedSegment, diameter
from betacantor.beta import _Projection
from betacantor.geometry import ball_chord
from betacantor.measures import Window

UNIT = WeightedSegment(RationalPoint(0, 0), RationalPoint(1, 0), 1)


def seg(x0, y, x1, density=1):
    return WeightedSegment(RationalPoint(x0, y), RationalPoint(x1, y),
                           density)


def clip(s, ball):
    """The x-interval ``(lo, hi)`` where a horizontal segment meets a
    closed ball (degenerate when tangent), or None: the segment cut to the
    :func:`ball_chord` of its line."""
    chord = ball_chord(ball, s.y)
    if chord is None:
        return None
    lo, hi = max(s.left.x, chord[0]), min(s.right.x, chord[1])
    return None if lo > hi else (lo, hi)


class TestClip:
    def test_centered_ball_chord(self):
        got = clip(UNIT, Ball((F(1, 2), 0), F(1, 4)))
        assert got == (F(1, 4), F(3, 4))

    def test_pythagorean_chord_is_exact(self):
        # half-chord sqrt(1 - 9/25) = 4/5, so the clip stays rational
        got = clip(UNIT, Ball((0, F(3, 5)), 1))
        assert got == (F(0), F(4, 5))

    def test_vertical_miss(self):
        assert clip(UNIT, Ball((F(1, 2), 2), 1)) is None

    def test_tangent_gives_degenerate_interval(self):
        got = clip(UNIT, Ball((F(1, 2), 1), 1))
        assert got == (F(1, 2), F(1, 2))

    def test_clip_contained_in_both(self):
        rng = random.Random(1)
        for _ in range(100):
            s = seg(F(rng.randrange(-8, 0), 4), F(rng.randrange(-4, 5), 4),
                    F(rng.randrange(1, 9), 4))
            ball = Ball((F(rng.randrange(-8, 9), 4),
                         F(rng.randrange(-8, 9), 4)),
                        F(rng.randrange(1, 17), 4))
            got = clip(s, ball)
            if got is None:
                continue
            lo, hi = got
            assert s.left.x <= lo <= hi <= s.right.x
            pad = float(ball.radius) * 1e-11
            for t in (lo, (lo + hi) / 2, hi):
                d = math.hypot(float(t - ball.cx), float(s.y - ball.cy))
                assert d <= float(ball.radius) + pad


def projection(segments, phi, atoms=()):
    """``_Projection`` of a window holding float segments
    ``(x0, x1, y, density)`` and atoms ``(x, y, mass)``, onto one normal
    direction; the projection reads no line, so the window states none."""
    pieces = ([(x0, x1, y, dens * (x1 - x0)) for x0, x1, y, dens in segments]
              + [(x, x, y, m) for x, y, m in atoms])
    s, e, y, m = zip(*pieces)
    return _Projection(Window(s, e, y, m, None), np.array([phi]))


def quad_moment(segments, atoms, phi, c, p):
    """Quadrature oracle for ``(int |u - c|^p, d/dc int |u - c|^p)`` with
    ``u = <y, (cos phi, sin phi)>``, split at the zero of ``u - c``."""
    nx, ny = math.cos(phi), math.sin(phi)
    moment = deriv = 0.0
    for x0, x1, y, dens in segments:
        def u(t):
            return t * nx + y * ny - c
        kinks = []
        if abs(nx) > 1e-15 and x0 < (c - y * ny) / nx < x1:
            kinks.append((c - y * ny) / nx)
        opts = dict(epsabs=1e-14, epsrel=1e-12, limit=200,
                    points=kinks or None)
        moment += quad(lambda t: dens * abs(u(t)) ** p, x0, x1, **opts)[0]
        deriv += quad(lambda t: -p * dens * math.copysign(
            abs(u(t)) ** (p - 1), u(t)), x0, x1, **opts)[0]
    for x, y, m in atoms:
        v = x * nx + y * ny - c
        moment += m * abs(v) ** p
        deriv += -p * m * math.copysign(abs(v) ** (p - 1), v)
    return moment, deriv


class TestMoment:
    def test_support_on_line_gives_zero(self):
        prj = projection([(0.0, 1.0, 0.0, 1.0)], math.pi / 2)
        assert prj.moment(np.array([0.0]), 2)[0] <= 1e-30
        assert abs(prj.dmoment(np.array([0.0]), 2)[0]) <= 1e-15

    def test_diagonal_line_p2(self):
        # dist((t,0), {y=x}) = t/sqrt(2); integral of t^2/2 over [0,1] = 1/6
        segs = [(0.0, 1.0, 0.0, 1.0)]
        prj = projection(segs, 3 * math.pi / 4)
        got = prj.moment(np.array([0.0]), 2)[0]
        oracle, doracle = quad_moment(segs, (), 3 * math.pi / 4, 0.0, 2)
        assert got == pytest.approx(1 / 6, rel=1e-12)
        assert got == pytest.approx(oracle, rel=1e-12)
        # d/dc int (u - c)^2 = -2 int u = 1/sqrt(2) at c = 0
        dgot = prj.dmoment(np.array([0.0]), 2)[0]
        assert dgot == pytest.approx(1 / math.sqrt(2), rel=1e-12)
        assert dgot == pytest.approx(doracle, rel=1e-12)

    def test_diagonal_line_p1(self):
        prj = projection([(0.0, 1.0, 0.0, 1.0)], 3 * math.pi / 4)
        got = prj.moment(np.array([0.0]), 1)[0]
        assert got == pytest.approx(1 / (2 * math.sqrt(2)), rel=1e-12)

    def test_against_quadrature(self):
        # closed forms vs adaptive quadrature on random windows, for the
        # moment and its derivative in the offset
        rng = random.Random(7)
        for _ in range(300):
            segs = []
            for _ in range(rng.randrange(1, 4)):
                x0 = rng.uniform(-1, 0.5)
                segs.append((x0, x0 + rng.uniform(0.05, 1.5),
                             rng.uniform(-1, 1), rng.uniform(0.1, 4)))
            atoms = [(rng.uniform(-1, 1), rng.uniform(-1, 1),
                      rng.uniform(0.1, 2)) for _ in range(rng.randrange(3))]
            # the normal orthogonal to the segments takes the point branch
            phi = rng.choice([rng.uniform(0, math.pi), math.pi / 2])
            c = rng.uniform(-1, 1)
            p = rng.choice([1, 1.25, 1.5, 2, 2.5, 3])
            prj = projection(segs, phi, atoms)
            got = prj.moment(np.array([c]), p)[0]
            dgot = prj.dmoment(np.array([c]), p)[0]
            oracle, doracle = quad_moment(segs, atoms, phi, c, p)
            assert got == pytest.approx(oracle, rel=1e-9, abs=1e-13)
            assert dgot == pytest.approx(doracle, rel=1e-9, abs=1e-13)

    def test_zero_iff_on_line(self):
        rng = random.Random(3)
        for _ in range(50):
            y = rng.randrange(-4, 5) / 4
            prj = projection([(-1.0, 1.0, y, 1.0)], math.pi / 2)
            on = prj.moment(np.array([y]), 1.5)[0]
            off = prj.moment(np.array([y + 0.25]), 1.5)[0]
            assert on <= 1e-15
            assert off > 1e-6


class TestDiameter:
    def test_single_point(self):
        assert diameter([(F(1, 3), F(2, 7))]) == 0.0

    def test_two_parallel_segments(self):
        h = F(1, 5)
        pts = [(0, 0), (1, 0), (0, h), (1, h)]
        assert diameter(pts) == pytest.approx(math.sqrt(1 + float(h) ** 2))

    def test_two_atoms(self):
        assert diameter([(0, 0), (3, 4)]) == pytest.approx(5.0)

    def test_matches_bruteforce(self):
        rng = random.Random(11)
        pts = [(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(60)]
        brute = max(math.hypot(a[0] - b[0], a[1] - b[1])
                    for a in pts for b in pts)
        assert diameter(pts) == pytest.approx(brute, rel=1e-12)
