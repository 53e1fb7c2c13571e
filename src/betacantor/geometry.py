"""Exact planar primitives that everything else is built on: rational
points, horizontal weighted segments, lines in normal form, closed balls,
ball chords and diameters.

Construction geometry is kept in exact rational arithmetic
(``fractions.Fraction``); evaluation switches to floats only after the
caller has rescaled a query window to unit size.  Equality of rational
points is decidable and no rounding happens inside these types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple, Union

Rational = Union[Fraction, int]
Scalar = Union[Fraction, int, float]

#: relative tolerance used when a ball/segment intersection has to fall back
#: to floating point (relative to the ball radius)
CLIP_REL_TOL = 1e-12


def to_fraction(value: Scalar) -> Fraction:
    """Convert ints, floats and fractions to an exact ``Fraction``.

    ``Fraction(float)`` is exact (binary floats are dyadic rationals), so
    this never introduces rounding; it only makes downstream arithmetic
    exact.
    """
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


@dataclass(frozen=True)
class RationalPoint:
    """A point of the plane with exact rational coordinates."""

    x: Fraction
    y: Fraction

    def __init__(self, x: Scalar, y: Scalar):
        object.__setattr__(self, "x", to_fraction(x))
        object.__setattr__(self, "y", to_fraction(y))


@dataclass(frozen=True)
class WeightedSegment:
    """Closed horizontal segment with a constant linear mass density.

    Invariants: both endpoints share the same ``y``, ``left.x < right.x``,
    and ``density >= 0``.  The segment mass is ``density * length``.
    """

    left: RationalPoint
    right: RationalPoint
    density: Fraction

    def __init__(self, left: RationalPoint, right: RationalPoint,
                 density: Scalar = 1):
        if not isinstance(left, RationalPoint):
            left = RationalPoint(*left)
        if not isinstance(right, RationalPoint):
            right = RationalPoint(*right)
        if left.y != right.y:
            raise ValueError("segment must be horizontal (left.y == right.y)")
        if not left.x < right.x:
            raise ValueError("need left.x < right.x")
        dens = to_fraction(density)
        if dens < 0:
            raise ValueError("density must be nonnegative")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "density", dens)

    @property
    def y(self) -> Fraction:
        return self.left.y

    @property
    def length(self) -> Fraction:
        return self.right.x - self.left.x

    @property
    def mass(self) -> Fraction:
        return self.density * self.length


@dataclass(frozen=True)
class Line:
    """A line in normal form ``{y : <y, (cos phi, sin phi)> = c}``.

    ``phi`` is the angle of the unit normal, normalized to ``[0, pi)``;
    ``c`` the signed offset.  ``dist(p, line) = |<p, n> - c|``.
    """

    phi: float
    c: float

    def __init__(self, phi: float, c: float):
        phi = float(phi)
        c = float(c)
        # fold the normal into the upper half plane, flipping the offset
        phi = math.fmod(phi, math.pi)
        if phi < 0:
            phi += math.pi
            c = -c
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "c", c)

    @property
    def normal(self) -> Tuple[float, float]:
        return math.cos(self.phi), math.sin(self.phi)

    def distance(self, x: float, y: float) -> float:
        nx, ny = self.normal
        return abs(x * nx + y * ny - self.c)

    @staticmethod
    def horizontal(height: float) -> "Line":
        return Line(math.pi / 2, float(height))


@dataclass(frozen=True)
class Ball:
    """Closed ball ``B(center, radius)``; points on the sphere belong to it."""

    cx: Fraction
    cy: Fraction
    radius: Fraction

    def __init__(self, center, radius: Scalar):
        if isinstance(center, RationalPoint):
            cx, cy = center.x, center.y
        else:
            cx, cy = to_fraction(center[0]), to_fraction(center[1])
        radius = to_fraction(radius)
        if radius <= 0:
            raise ValueError("radius must be positive")
        object.__setattr__(self, "cx", cx)
        object.__setattr__(self, "cy", cy)
        object.__setattr__(self, "radius", radius)


def half_chord(num: int, den: int) -> Fraction:
    """The half-chord ``sqrt(num / den)`` for ints ``num >= 0`` and
    ``den > 0``.  It is exact when ``num`` and ``den`` are both perfect
    squares, which for a reduced fraction or a square ``den`` is exactly
    when the root is rational.  Otherwise it is the float square root,
    widened by the relative tolerance ``CLIP_REL_TOL`` so that points on the
    sphere are not lost to rounding, as an exact fraction of that float
    (``num / den`` is correctly rounded for ints of any size, like
    ``float(Fraction)``)."""
    rn = math.isqrt(num)
    rd = math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return Fraction(math.sqrt(num / den) * (1.0 + CLIP_REL_TOL))


def ball_chord(ball: Ball, y: Fraction) -> Optional[Tuple[Fraction, Fraction]]:
    """The x-interval ``(cx - w, cx + w)`` where the line at height ``y``
    meets a closed ball, or ``None`` when it misses; ``w`` is the
    :func:`half_chord` of ``r^2 - dy^2``."""
    dy = y - ball.cy
    w2 = ball.radius * ball.radius - dy * dy
    if w2 < 0:
        return None
    w = half_chord(w2.numerator, w2.denominator)
    return ball.cx - w, ball.cx + w


def _convex_hull(points: Sequence[Tuple[float, float]]):
    """Andrew's monotone chain; returns hull vertices in ccw order."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for pt in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], pt) <= 0:
            lower.pop()
        lower.append(pt)
    for pt in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], pt) <= 0:
            upper.pop()
        upper.append(pt)
    return lower[:-1] + upper[:-1]


def diameter(points: Iterable[Tuple[Scalar, Scalar]]) -> float:
    """Euclidean diameter of a finite point set.

    The diameter of a union of segments is attained at endpoints, so this
    also serves unions of segments once their endpoints are passed in.
    Goes through the convex hull, so large inputs stay cheap.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) <= 1:
        return 0.0
    hull = _convex_hull(pts)
    best = 0.0
    for i in range(len(hull)):
        xi, yi = hull[i]
        for j in range(i + 1, len(hull)):
            d = math.hypot(hull[j][0] - xi, hull[j][1] - yi)
            if d > best:
                best = d
    return best
