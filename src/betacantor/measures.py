"""Finite measures supported on horizontal segments or on point masses,
their ball masses, and a line-oriented text serialization.

Two concrete representations are used throughout:

* ``SegmentMeasure`` -- a finite union of weighted horizontal segments with
  pairwise disjoint relative interiors (the generations of the Cantor-type
  constructions, and ad-hoc unions);
* ``AtomicMeasure`` -- a finite collection of point masses (discrete input
  for the lattice/corona machinery and for oracle tests).

Ball-mass protocol: every measure kind (these two and the lazy
``cantor.CantorMeasure``, together ``AnyMeasure``) answers

* ``ball_mass(ball) -> Fraction`` -- the exact mass of a closed ball;
* ``ball_masses(cx, cy, radii) -> np.ndarray`` -- float masses of the
  closed balls ``B((cx, cy), r)``, one per radius, for screening many
  balls around one center.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import (TYPE_CHECKING, Iterable, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from .geometry import (Ball, RationalPoint, Scalar, WeightedSegment,
                       clip_segment_to_ball, diameter, to_fraction)

if TYPE_CHECKING:
    from .cantor import CantorMeasure


@dataclass(frozen=True)
class SegmentMeasure:
    """A finite weighted union of horizontal segments.

    ``generation`` records which construction generation the measure is
    (``None`` for ad-hoc unions such as clipped windows or approximating
    measures).
    """

    segments: Tuple[WeightedSegment, ...]
    generation: Optional[int] = None

    def __init__(self, segments: Iterable[WeightedSegment],
                 generation: Optional[int] = None):
        object.__setattr__(self, "segments", tuple(segments))
        object.__setattr__(self, "generation", generation)

    def __len__(self) -> int:
        return len(self.segments)

    @property
    def total_mass(self) -> Fraction:
        return sum((s.mass for s in self.segments), Fraction(0))

    def endpoints(self) -> List[Tuple[Fraction, Fraction]]:
        pts: List[Tuple[Fraction, Fraction]] = []
        for s in self.segments:
            pts.append((s.left.x, s.y))
            pts.append((s.right.x, s.y))
        return pts

    def float_arrays(self):
        """Cached float mirrors ``(s, e, y, rho)`` for vectorized numerics."""
        if not hasattr(self, "_floats"):
            ss = np.array([float(s.left.x) for s in self.segments])
            ee = np.array([float(s.right.x) for s in self.segments])
            yy = np.array([float(s.y) for s in self.segments])
            rr = np.array([float(s.density) for s in self.segments])
            object.__setattr__(self, "_floats", (ss, ee, yy, rr))
        return self._floats  # type: ignore[attr-defined]

    def ball_mass(self, ball: Ball) -> Fraction:
        """Clipped lengths times densities; exact whenever the chord
        endpoints are rational."""
        total = Fraction(0)
        for seg in self.segments:
            bounds = clip_segment_to_ball(seg, ball)
            if bounds is not None:
                total += seg.density * (bounds[1] - bounds[0])
        return total

    def ball_masses(self, cx: float, cy: float,
                    radii: Sequence[float]) -> np.ndarray:
        """Float chord masses of ``B((cx, cy), r)`` for each radius."""
        ss, ee, yy, rr = self.float_arrays()
        dy2 = (yy - cy) ** 2
        out = np.empty(len(radii))
        for i, r in enumerate(radii):
            w = np.sqrt(np.maximum(0.0, r * r - dy2))
            lo = np.maximum(ss, cx - w)
            hi = np.minimum(ee, cx + w)
            out[i] = (rr * np.maximum(0.0, hi - lo)).sum()
        return out

    def diameter(self) -> float:
        return diameter(self.endpoints())

    def check_disjoint(self) -> None:
        """Raise ``ValueError`` if two segments overlap in the interior.

        Exact: groups by line and sweeps sorted x-intervals.
        """
        by_line: dict = {}
        for s in self.segments:
            by_line.setdefault(s.y, []).append((s.left.x, s.right.x))
        for y, intervals in by_line.items():
            intervals.sort()
            for (a0, b0), (a1, b1) in zip(intervals, intervals[1:]):
                if a1 < b0:
                    raise ValueError(
                        f"overlapping segments on line y={y}: "
                        f"[{a0},{b0}] and [{a1},{b1}]")


@dataclass(frozen=True)
class AtomicMeasure:
    """A finite collection of point masses.

    Coordinates and masses are stored as exact rationals (floats are
    converted losslessly), so ball masses against rational balls are exact.
    Float mirrors are cached for the numeric engines.
    """

    atoms: Tuple[Tuple[Fraction, Fraction, Fraction], ...]

    def __init__(self, atoms: Iterable[Tuple[Scalar, Scalar, Scalar]]):
        norm = []
        for x, y, m in atoms:
            m = to_fraction(m)
            if m < 0:
                raise ValueError("atom masses must be nonnegative")
            norm.append((to_fraction(x), to_fraction(y), m))
        object.__setattr__(self, "atoms", tuple(norm))

    def __len__(self) -> int:
        return len(self.atoms)

    @property
    def total_mass(self) -> Fraction:
        return sum((m for _, _, m in self.atoms), Fraction(0))

    def float_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if not hasattr(self, "_floats"):
            xs = np.array([float(x) for x, _, _ in self.atoms])
            ys = np.array([float(y) for _, y, _ in self.atoms])
            ms = np.array([float(m) for _, _, m in self.atoms])
            object.__setattr__(self, "_floats", (xs, ys, ms))
        return self._floats  # type: ignore[attr-defined]

    def points(self) -> List[Tuple[Fraction, Fraction]]:
        return [(x, y) for x, y, _ in self.atoms]

    def ball_mass(self, ball: Ball) -> Fraction:
        """Exact sum of the atom masses inside the closed ball."""
        total = Fraction(0)
        r2 = ball.radius * ball.radius
        for x, y, m in self.atoms:
            if (x - ball.cx) ** 2 + (y - ball.cy) ** 2 <= r2:
                total += m
        return total

    def ball_masses(self, cx: float, cy: float,
                    radii: Sequence[float]) -> np.ndarray:
        """Float masses of ``B((cx, cy), r)`` for each radius: prefix sums
        over the atoms within the largest radius, stably sorted by distance
        (a prefix of the full stable order, so the sums match it bit for
        bit)."""
        radii = np.asarray(radii, dtype=float)
        if radii.size == 0:
            return np.zeros(0)
        xs, ys, ms = self.float_arrays()
        d = np.hypot(xs - cx, ys - cy)
        near = d <= radii.max()
        d = d[near]
        order = np.argsort(d, kind="stable")
        cum = np.concatenate(([0.0], np.cumsum(ms[near][order])))
        return cum[np.searchsorted(d[order], radii, side="right")]

    def diameter(self) -> float:
        return diameter(self.points())


AnyMeasure = Union[SegmentMeasure, AtomicMeasure, "CantorMeasure"]


def ball_mass(mu: AnyMeasure, ball: Ball) -> Fraction:
    """Exact mass of a closed ball under any measure kind."""
    return mu.ball_mass(ball)


def clip_measure(mu: SegmentMeasure, ball: Ball) -> SegmentMeasure:
    """Restrict a segment measure to a closed ball (dropping degenerate
    zero-length pieces)."""
    kept = []
    for seg in mu.segments:
        bounds = clip_segment_to_ball(seg, ball)
        if bounds is None or bounds[0] >= bounds[1]:
            continue
        kept.append(WeightedSegment(RationalPoint(bounds[0], seg.y),
                                    RationalPoint(bounds[1], seg.y),
                                    seg.density))
    return SegmentMeasure(kept, generation=None)


def atomize(mu: SegmentMeasure, spacing: Scalar) -> AtomicMeasure:
    """Split each segment into equal-mass atoms at sub-interval midpoints.

    The per-segment atom count is chosen so that the atom spacing is
    strictly below ``spacing``.  Atom positions and masses stay rational.
    """
    spacing = to_fraction(spacing)
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    atoms: List[Tuple[Fraction, Fraction, Fraction]] = []
    for seg in mu.segments:
        n = max(1, int(math.ceil(seg.length / spacing)))
        if Fraction(seg.length, n) >= spacing:
            n += 1
        step = Fraction(seg.length, n)
        m = Fraction(seg.mass, n)
        for i in range(n):
            x = seg.left.x + step * i + step / 2
            atoms.append((x, seg.y, m))
    return AtomicMeasure(atoms)


# ---------------------------------------------------------------------------
# text serialization: one record per line,
#   S x0 y0 x1 y1 density     (rationals, num/den or plain integer)
#   A x y mass
# ---------------------------------------------------------------------------

def _format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _parse_rational(tok: str) -> Fraction:
    return Fraction(tok)


def dumps_measure(mu: SegmentMeasure | AtomicMeasure) -> str:
    """Serialize a measure in the line-oriented text format."""
    out = io.StringIO()
    if isinstance(mu, SegmentMeasure):
        for s in mu.segments:
            out.write("S {} {} {} {} {}\n".format(
                _format_rational(s.left.x), _format_rational(s.y),
                _format_rational(s.right.x), _format_rational(s.y),
                _format_rational(s.density)))
    else:
        for x, y, m in mu.atoms:
            out.write("A {} {} {}\n".format(
                _format_rational(x), _format_rational(y),
                _format_rational(m)))
    return out.getvalue()


def loads_measure(text: str) -> SegmentMeasure | AtomicMeasure:
    """Parse the text format back into a measure.

    Files must be homogeneous: all-``S`` gives a ``SegmentMeasure``,
    all-``A`` an ``AtomicMeasure``; mixing the two kinds is rejected.
    """
    segments: List[WeightedSegment] = []
    atoms: List[Tuple[Fraction, Fraction, Fraction]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        kind = toks[0]
        if kind == "S":
            if len(toks) != 6:
                raise ValueError(f"line {ln}: S record needs 5 fields")
            x0, y0, x1, y1, dens = map(_parse_rational, toks[1:])
            if y0 != y1:
                raise ValueError(f"line {ln}: segment is not horizontal")
            segments.append(WeightedSegment(RationalPoint(x0, y0),
                                            RationalPoint(x1, y1), dens))
        elif kind == "A":
            if len(toks) != 4:
                raise ValueError(f"line {ln}: A record needs 3 fields")
            x, y, m = map(_parse_rational, toks[1:])
            atoms.append((x, y, m))
        else:
            raise ValueError(f"line {ln}: unknown record kind {kind!r}")
    if segments and atoms:
        raise ValueError("mixed segment/atom files are not supported")
    if atoms:
        return AtomicMeasure(atoms)
    return SegmentMeasure(segments)


def write_measure(mu: SegmentMeasure | AtomicMeasure, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_measure(mu))


def read_measure(path) -> SegmentMeasure | AtomicMeasure:
    with open(path) as fh:
        return loads_measure(fh.read())
