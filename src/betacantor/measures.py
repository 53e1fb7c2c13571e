"""Finite measures on horizontal segments or on point masses, their ball
masses and unit windows, and a line-oriented text serialization.

Two concrete representations are used throughout:

* ``SegmentMeasure`` -- a finite union of weighted horizontal segments with
  pairwise disjoint relative interiors (the generations of the Cantor-type
  constructions, and ad-hoc unions);
* ``AtomicMeasure`` -- a finite collection of point masses (discrete input
  for the lattice/corona machinery and for oracle tests).

Every measure kind (these two and the lazy ``cantor.CantorMeasure``,
together ``AnyMeasure``) keeps its exact data as int pieces of the one piece
core below, an atom being a piece of width 0, and answers the ball-mass
protocol (the first two methods) and the window protocol (the last two):

* ``ball_mass(ball) -> Fraction`` -- the exact mass of a closed ball;
* ``ball_masses(cx, cy, radii) -> np.ndarray`` -- float masses of the
  closed balls ``B((cx, cy), r)``, one per radius, for screening many
  balls around one center;
* ``unit_windows(cx, cy, radii) -> Iterator[Window]`` -- per radius, the
  restriction to the closed ball ``B((cx, cy), r)`` (exact rational
  center), rescaled to the unit ball at the origin, for the best-line
  coefficients: one array of weighted horizontal pieces, where an atom is
  a piece of zero length;
* ``candidate_centers(rho, seed, max_centers)`` -- sorted, distinct,
  deterministic support points, for centering candidate balls.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import (TYPE_CHECKING, Dict, Iterable, Iterator, List,
                    Optional, Sequence, Tuple, Union)

import numpy as np

from .geometry import (CLIP_REL_TOL, Ball, Line, RationalPoint, Scalar,
                       WeightedSegment, diameter, half_chord, to_fraction)

if TYPE_CHECKING:
    from .cantor import CantorMeasure

#: collinear-support test, in rescaled units
COLLINEAR_TOL = 1e-12
_EPS = float(np.finfo(float).eps)


class Window:
    """A measure restricted to a ball and rescaled to the unit ball at the
    origin: float arrays of horizontal pieces ``[s, e] x {y}`` of mass
    ``m``; a piece with ``s == e`` is a point mass."""

    __slots__ = ("s", "e", "y", "m", "mass", "_moments")

    def __init__(self, s, e, y, m):
        self.s = np.asarray(s, dtype=float)
        self.e = np.asarray(e, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.m = np.asarray(m, dtype=float)
        self.mass = float(self.m.sum())
        self._moments: Optional[Tuple[float, ...]] = None

    @property
    def n_segments(self) -> int:
        return int(np.count_nonzero(self.e > self.s))

    @property
    def n_atoms(self) -> int:
        return int(np.count_nonzero(self.e == self.s))

    def support_points(self) -> np.ndarray:
        return np.vstack([np.column_stack([self.s, self.y]),
                          np.column_stack([self.e, self.y])])

    def moments(self) -> Tuple[float, ...]:
        """Mass, raw first moments (x, y) and raw second moments (xx, yy,
        xy) of the pieces (exact closed forms per piece), computed once."""
        if self._moments is None:
            w = self.m
            mx = 0.5 * (self.s + self.e)
            mxx = (self.s ** 2 + self.s * self.e + self.e ** 2) / 3.0
            self._moments = (self.mass, (w * mx).sum(), (w * self.y).sum(),
                             (w * mxx).sum(), (w * self.y ** 2).sum(),
                             (w * mx * self.y).sum())
        return self._moments

    def collinear_line(self) -> Optional[Line]:
        """:func:`collinear_line` of the support, skipped (None) where the
        smallest eigenvalue of :meth:`moments` rules collinearity out.

        A support that :func:`collinear_line` accepts has every float
        residual within ``COLLINEAR_TOL``, so every true distance to that
        line is below ``2 * COLLINEAR_TOL`` (for a segment too: the distance
        is affine along it, so its endpoints bound it), and the exact
        eigenvalue is at most ``4 * COLLINEAR_TOL^2 * mass``.  The computed
        one is off by about ``8 (k + 2) eps * mass`` at most, for ``k``
        pieces: each of the six sums adds ``k`` terms of size at most
        ``m_i`` (rescaled points lie in the unit ball), so it is off by at
        most ``(k + 2) eps * mass``; each centered entry carries its raw
        sum's error and three more through ``sx^2 / m`` (the centroid lies
        in the unit ball too); and by Weyl's inequality the eigenvalue moves
        by at most twice the largest entry error.  The slack ``16 (k + 2)
        eps * mass`` doubles that, so a window whose eigenvalue exceeds
        ``mass * (4 COLLINEAR_TOL^2 + 16 (k + 2) eps)`` is not
        collinear."""
        if self.mass > 0.0:
            slack = self.mass * (4.0 * COLLINEAR_TOL ** 2
                                 + 16.0 * (len(self.m) + 2) * _EPS)
            if centered_moments(*self.moments())[5] > slack:
                return None
        return collinear_line(self.support_points())


def collinear_line(pts: np.ndarray) -> Optional[Line]:
    """Return a line carrying every point of an ``(n, 2)`` array (within
    ``COLLINEAR_TOL``, in rescaled units), or None."""
    if len(pts) == 0:
        return Line.horizontal(0.0)
    if len(pts) == 1:
        return Line.horizontal(pts[0, 1])
    # two extreme support points span the candidate line when the support
    # is genuinely collinear
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    p0, p1 = pts[order[0]], pts[order[-1]]
    dx, dy = p1[0] - p0[0], p1[1] - p0[1]
    norm = math.hypot(dx, dy)
    if norm < COLLINEAR_TOL:  # all support at one point
        return Line.horizontal(p0[1])
    nx, ny = -dy / norm, dx / norm
    phi = math.atan2(ny, nx) % math.pi
    line = Line(phi, p0[0] * math.cos(phi) + p0[1] * math.sin(phi))
    resid = np.abs(pts[:, 0] * math.cos(line.phi)
                   + pts[:, 1] * math.sin(line.phi) - line.c)
    if resid.max() <= COLLINEAR_TOL:
        return line
    return None


def centered_moments(m, sx, sy, sxx, syy, sxy):
    """Centroid, centered second moments and their smallest eigenvalue
    ``(cx, cy, cxx, cyy, cxy, lam_min)`` from the raw moments of
    :meth:`Window.moments`; ``lam_min`` is the L^2 objective of the best
    line."""
    cx, cy = sx / m, sy / m
    cxx = sxx - m * cx * cx
    cyy = syy - m * cy * cy
    cxy = sxy - m * cx * cy
    half_tr = 0.5 * (cxx + cyy)
    disc = math.sqrt(max(0.0, (0.5 * (cxx - cyy)) ** 2 + cxy * cxy))
    return cx, cy, cxx, cyy, cxy, max(0.0, half_tr - disc)


# ---------------------------------------------------------------------------
# the piece core: pieces (y, x, w, m), ints over one denominator u, each the
# segment [x, x + w] x {y} of mass m (density m / w), or for w == 0 the atom
# of mass m at (x, y)
# ---------------------------------------------------------------------------

def _to_int_rows(rows: Iterable[Sequence[Fraction]],
                 ) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
    """``(u, rows)``: rows of rationals as ints over their least common
    denominator ``u``, in order.  On coprime denominators ``u`` grows with
    the row count and slows every exact clip (20x on 1000 segments);
    grouping rows by denominator is still open."""
    rows = list(rows)
    u = math.lcm(*(q.denominator for row in rows for q in row))
    return u, tuple(tuple(q.numerator * (u // q.denominator) for q in row)
                    for row in rows)


def _lift(u: int, ball: Ball) -> Tuple[int, int, int, int, int]:
    """``(v, v // u, cx, cy, r)``: the ball as ints over ``v = lcm(u, den
    cx, den cy, den r)``, the common denominator of pieces and ball."""
    cx, cy, r = ball.cx, ball.cy, ball.radius
    v = math.lcm(u, cx.denominator, cy.denominator, r.denominator)
    return (v, v // u, cx.numerator * (v // cx.denominator),
            cy.numerator * (v // cy.denominator),
            r.numerator * (v // r.denominator))


def _clip_mass(u: int, rows: Iterable[Tuple[int, int, int, int]],
               ball: Ball) -> Fraction:
    """The exact mass of the pieces in the closed ball: :func:`_clip_ints`
    of the pieces and the :func:`_lift` of the ball, as a ``Fraction``."""
    return Fraction(*_clip_ints(*_lift(u, ball), rows))


def _clip_ints(v: int, k: int, cx: int, cy: int, r: int,
               rows: Iterable[Tuple[int, int, int, int]]) -> Tuple[int, int]:
    """``(num, den)``: the exact mass of pieces over ``u = v // k`` in the
    closed ball ``B((cx, cy), r)`` of ints over ``v``, as ``num / den``,
    not reduced; ``den`` is a multiple of ``v``, so a mass over ``u`` adds
    ``mass * k * (den // v)`` to ``num``.  An atom counts when ``dx^2 +
    dy^2 <= r^2`` in ints.  A segment's line is cut to one
    :func:`half_chord` and the clipped masses are summed as ints over ``v``
    (times the denominator of an irrational chord's dyadic float), per such
    denominator and piece width; each sum is reduced once before the sums
    go over their least common denominator."""
    r2, v2 = r * r, v * v
    # per line: None when the chord misses, else (lo, hi, s) over v * s
    chords: Dict[int, Optional[Tuple[int, int, int]]] = {}
    # clipped masses clip * m / w as numerators over v * s * w, per (s, w)
    sums: Dict[Tuple[int, int], int] = {}
    atoms = 0  # atom masses inside, over u
    for y, x, w, m in rows:
        if not w:
            dx, dy = x * k - cx, y * k - cy
            if dx * dx + dy * dy <= r2:
                atoms += m
            continue
        if y not in chords:
            dy = y * k - cy
            w2 = r2 - dy * dy
            if w2 < 0:
                chords[y] = None
            else:
                half = half_chord(w2, v2)
                s = half.denominator // math.gcd(half.denominator, v)
                hw = half.numerator * (v * s // half.denominator)
                chords[y] = (cx * s - hw, cx * s + hw, s)
        chord = chords[y]
        if chord is None:
            continue
        lo_c, hi_c, s = chord
        lo = max(x * k * s, lo_c)
        hi = min((x + w) * k * s, hi_c)
        if lo < hi:
            sums[s, w] = sums.get((s, w), 0) + (hi - lo) * m
    # each sum as n / (v * q), q reduced, then all over v * lcm(q)
    terms = []
    for (s, w), n in sums.items():
        g = math.gcd(n, s * w)
        terms.append((n // g, s * w // g))
    lcm = math.lcm(*(q for _, q in terms))
    return (sum(n * (lcm // q) for n, q in terms) + atoms * k * lcm,
            v * lcm)


def _unit_window(u: int, rows: Iterable[Tuple[int, int, int, int]],
                 ball: Ball) -> Window:
    """The pieces in the ball rescaled to the unit ball, in row order: each
    rescaled coordinate and density is one int / int division, correctly
    rounded like ``float(Fraction)``, then the chord clip runs in floats
    with tolerance ``CLIP_REL_TOL`` relative to the unit radius."""
    _, k, cx, cy, r = _lift(u, ball)
    fr = float(ball.radius)
    pieces: List[Tuple[float, float, float, float]] = []
    for y, x, w, m in rows:
        fy = (y * k - cy) / r
        if abs(fy) > 1.0 + CLIP_REL_TOL:
            continue
        hw = math.sqrt(max(0.0, 1.0 - min(1.0, fy * fy)))
        s = max((x * k - cx) / r, -hw)
        e = min(((x + w) * k - cx) / r, hw)
        if e - s > 0.0:
            pieces.append((s, e, fy, m / w * fr))
    s, e, y, rho = np.array(pieces, dtype=float).reshape(-1, 4).T.copy()
    # a unit of rescaled density keeps its value while lengths shrink by r,
    # so rescaled masses are the original ones divided by r
    return Window(s, e, y, rho * (1.0 / fr) * (e - s))


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

    @cached_property
    def float_arrays(self) -> Tuple[np.ndarray, ...]:
        """Float mirrors ``(s, e, y, rho)`` for vectorized numerics."""
        return tuple(np.array(
            [(float(s.left.x), float(s.right.x), float(s.y), float(s.density))
             for s in self.segments], dtype=float).reshape(-1, 4).T.copy())

    @cached_property
    def _int_rows(self) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
        """The segments in order as pieces ``(y, x, w, m)`` over ``u``."""
        return _to_int_rows((s.y, s.left.x, s.length, s.mass)
                            for s in self.segments)

    def ball_mass(self, ball: Ball) -> Fraction:
        """:func:`_clip_mass` of the segments."""
        return _clip_mass(*self._int_rows, ball)

    def ball_masses(self, cx: float, cy: float,
                    radii: Sequence[float]) -> np.ndarray:
        """Float chord masses of ``B((cx, cy), r)`` for each radius."""
        ss, ee, yy, rr = self.float_arrays
        dy2 = (yy - cy) ** 2
        out = np.empty(len(radii))
        for i, r in enumerate(radii):
            w = np.sqrt(np.maximum(0.0, r * r - dy2))
            lo = np.maximum(ss, cx - w)
            hi = np.minimum(ee, cx + w)
            out[i] = (rr * np.maximum(0.0, hi - lo)).sum()
        return out

    def unit_windows(self, cx: Fraction, cy: Fraction,
                     radii: Sequence[Scalar]) -> Iterator[Window]:
        """:func:`_unit_window` of the segments, per radius."""
        for r in radii:
            yield _unit_window(*self._int_rows, Ball((cx, cy), r))

    def candidate_centers(self, rho: Fraction, seed: int, max_centers: int,
                          ) -> List[Tuple[Fraction, Fraction]]:
        """Grid points along each segment, about ``rho / 2`` apart with 2 to
        64 steps per segment, sorted and distinct (``seed`` and
        ``max_centers`` are unused)."""
        centers = set()
        for seg in self.segments:
            steps = min(64, max(2, int(math.ceil(seg.length / rho)) * 2))
            for i in range(steps + 1):
                centers.add((seg.left.x + Fraction(i, steps) * seg.length,
                             seg.y))
        return sorted(centers)

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

    The atoms are held in order as pieces ``(y, x, 0, m)`` of the piece
    core (floats are converted losslessly, or ``int_rows = (u, rows)`` are
    taken as given), so ball masses against rational balls are exact.
    :attr:`atoms` and :meth:`points` build fractions on demand.
    """

    _int_rows: Tuple[int, Tuple[Tuple[int, ...], ...]]

    def __init__(self, atoms: Iterable[Tuple[Scalar, Scalar, Scalar]] = (),
                 int_rows: Optional[Tuple[int, tuple]] = None):
        if int_rows is None:
            rows = [(to_fraction(y), to_fraction(x), 0, to_fraction(m))
                    for x, y, m in atoms]
            if any(row[3] < 0 for row in rows):
                raise ValueError("atom masses must be nonnegative")
            int_rows = _to_int_rows(rows)
        object.__setattr__(self, "_int_rows", int_rows)

    def __len__(self) -> int:
        return len(self._int_rows[1])

    @property
    def atoms(self) -> Tuple[Tuple[Fraction, Fraction, Fraction], ...]:
        """The atoms as exact ``(x, y, mass)`` triples."""
        u, rows = self._int_rows
        return tuple((Fraction(x, u), Fraction(y, u), Fraction(m, u))
                     for y, x, _, m in rows)

    @property
    def total_mass(self) -> Fraction:
        u, rows = self._int_rows
        return Fraction(sum(row[3] for row in rows), u)

    @cached_property
    def float_arrays(self) -> Tuple[np.ndarray, ...]:
        """Float mirrors ``(x, y, m)``, each one int / int division,
        correctly rounded like ``float(Fraction)``."""
        u, rows = self._int_rows
        return tuple(np.array([(x / u, y / u, m / u) for y, x, _, m in rows],
                              dtype=float).reshape(-1, 3).T.copy())

    def points(self) -> List[Tuple[Fraction, Fraction]]:
        return [(x, y) for x, y, _ in self.atoms]

    def subset(self, keep: Sequence[bool]) -> AtomicMeasure:
        """The atoms at the true entries of the row mask ``keep``."""
        u, rows = self._int_rows
        return AtomicMeasure(int_rows=(u, tuple(r for r, k in zip(rows, keep)
                                                if k)))

    def ball_mass(self, ball: Ball) -> Fraction:
        """:func:`_clip_mass` of the atoms."""
        return _clip_mass(*self._int_rows, ball)

    def ball_masses(self, cx: float, cy: float,
                    radii: Sequence[float]) -> np.ndarray:
        """Float masses of ``B((cx, cy), r)`` for each radius: prefix sums
        over the atoms within the largest radius, stably sorted by distance
        (a prefix of the full stable order, so the sums match it bit for
        bit)."""
        radii = np.asarray(radii, dtype=float)
        if radii.size == 0:
            return np.zeros(0)
        xs, ys, ms = self.float_arrays
        d = np.hypot(xs - cx, ys - cy)
        near = d <= radii.max()
        d = d[near]
        order = np.argsort(d, kind="stable")
        cum = np.concatenate(([0.0], np.cumsum(ms[near][order])))
        return cum[np.searchsorted(d[order], radii, side="right")]

    def unit_windows(self, cx: Fraction, cy: Fraction,
                     radii: Sequence[Scalar]) -> Iterator[Window]:
        """The atoms in each ``B((cx, cy), r)`` rescaled to the unit ball,
        in index order, with the squared distances computed once; the
        membership test runs in floats with tolerance ``CLIP_REL_TOL``
        relative to the radius."""
        xs, ys, ms = self.float_arrays
        fcx, fcy = float(cx), float(cy)
        fr = [float(r) for r in radii]
        lim = [(r * (1.0 + CLIP_REL_TOL)) ** 2 for r in fr]
        d2 = (xs - fcx) ** 2 + (ys - fcy) ** 2
        near = d2 <= max(lim, default=0.0)
        xs, ys, ms, d2 = xs[near], ys[near], ms[near], d2[near]
        for r, lim_r in zip(fr, lim):
            keep = d2 <= lim_r
            u = (xs[keep] - fcx) / r
            yield Window(u, u, (ys[keep] - fcy) / r, ms[keep] * (1.0 / r))

    def candidate_centers(self, rho: Fraction, seed: int, max_centers: int,
                          ) -> List[Tuple[Fraction, Fraction]]:
        """The distinct atom positions, sorted; a ``seed``-ed sample of
        ``max_centers`` of them when there are more (``rho`` is unused).
        Positions are sorted and sampled as int pairs over ``u``, which
        order like their fractions, and only the centers returned become
        fractions."""
        u, rows = self._int_rows
        centers = sorted({(x, y) for y, x, _, _ in rows})
        if len(centers) > max_centers:
            rng = random.Random(seed)
            centers = sorted(rng.sample(centers, max_centers))
        return [(Fraction(x, u), Fraction(y, u)) for x, y in centers]

    def diameter(self) -> float:
        xs, ys, _ = self.float_arrays
        return diameter(zip(xs.tolist(), ys.tolist()))


AnyMeasure = Union[SegmentMeasure, AtomicMeasure, "CantorMeasure"]


def atomize(mu: SegmentMeasure, spacing: Scalar) -> AtomicMeasure:
    """Split each segment into equal-mass atoms at sub-interval midpoints.

    A segment of length ``L`` gets ``n = floor(L / spacing) + 1`` atoms, the
    fewest whose spacing ``L / n`` is strictly below ``spacing``.  The first
    atom and the step of each segment go over one common denominator, and
    each atom is one int row from them, with no fraction per atom.
    """
    spacing = to_fraction(spacing)
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    counts = [s.length // spacing + 1 for s in mu.segments]
    u, firsts = _to_int_rows(
        (s.y, s.left.x + s.length / (2 * n), s.length / n, s.mass / n)
        for s, n in zip(mu.segments, counts))
    return AtomicMeasure(int_rows=(u, tuple(
        (y, x + i * step, 0, m)
        for (y, x, step, m), n in zip(firsts, counts) for i in range(n))))


# ---------------------------------------------------------------------------
# text serialization: one record per line,
#   S x0 y0 x1 y1 density     (rationals, num/den or plain integer)
#   A x y mass
# ---------------------------------------------------------------------------

def dumps_measure(mu: SegmentMeasure | AtomicMeasure) -> str:
    """Serialize a measure in the line-oriented text format."""
    if isinstance(mu, SegmentMeasure):
        recs = [("S", s.left.x, s.y, s.right.x, s.y, s.density)
                for s in mu.segments]
    else:
        recs = [("A",) + atom for atom in mu.atoms]
    return "".join(" ".join(map(str, rec)) + "\n" for rec in recs)


def _parse_record(toks: List[str], records: Dict[str, list]) -> None:
    """Append one ``S`` (segment) or ``A`` (atom) record to ``records``."""
    kind, fields = toks[0], toks[1:]
    size = {"S": 5, "A": 3}.get(kind)
    if size is None:
        raise ValueError(f"unknown record kind {kind!r}")
    if len(fields) != size:
        raise ValueError(f"{kind} record needs {size} fields")
    if records["A" if kind == "S" else "S"]:
        raise ValueError("mixed segment/atom files are not supported")
    vals = [Fraction(tok) for tok in fields]
    if kind == "A":
        if vals[2] < 0:
            raise ValueError("atom masses must be nonnegative")
        records[kind].append(tuple(vals))
    elif vals[1] != vals[3]:
        raise ValueError("segment is not horizontal")
    else:
        records[kind].append(WeightedSegment(
            RationalPoint(*vals[:2]), RationalPoint(*vals[2:4]), vals[4]))


def loads_measure(text: str) -> SegmentMeasure | AtomicMeasure:
    """Parse the text format back into a measure.

    Files must be homogeneous: all-``S`` gives a ``SegmentMeasure``,
    all-``A`` an ``AtomicMeasure``; mixing the two kinds is rejected.  A
    malformed record raises ``ValueError("line N: ...")``.
    """
    records: Dict[str, list] = {"S": [], "A": []}
    for ln, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split()
        if not toks or toks[0].startswith("#"):
            continue
        try:
            _parse_record(toks, records)
        except ZeroDivisionError:
            raise ValueError(f"line {ln}: zero denominator") from None
        except ValueError as exc:
            raise ValueError(f"line {ln}: {exc}") from None
    if records["A"]:
        return AtomicMeasure(records["A"])
    return SegmentMeasure(records["S"])


def write_measure(mu: SegmentMeasure | AtomicMeasure, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_measure(mu))


def read_measure(path) -> SegmentMeasure | AtomicMeasure:
    with open(path) as fh:
        return loads_measure(fh.read())
