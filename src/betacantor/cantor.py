"""Cantor-type generations of horizontal segments.

A generation-``k`` set is a finite union of horizontal weighted segments
built inductively: every segment of generation ``k`` spawns a "down" family
of ``n_{k+1}`` children on its own line (total length fraction
``1 - a_{k+1}``) and an "up" family of ``n_{k+1}`` children on the parallel
line ``h_{k+1}`` above (total length fraction ``a_{k+1}``), both spanning
the parent's x-range with the first child left-aligned and the last
right-aligned.  Total mass is conserved exactly at every step.

Faithful schedules force the vertical steps to collapse extremely fast
(``h_{k+1} <= 2^{-2k-5} min(h_k, shortest segment)``) and take
``n_k`` as the smallest integer above ``1/h_k^2``; generation 2 then already
has ~2^45 segments.  The tree is therefore laid out once per schedule and
generation, per path class, as Python ints over one denominator
(:func:`_tree_layout`), and that one layout serves the lazy, window
restricted descent (``CantorMeasure``), addresses, :func:`locate`, transport
and the conservation probe.  The descent is exact: its coordinates are ints
over one common denominator (the layout's lcm with those of the center and
every radius of one query), which the segment core of ``measures`` clips and
rescales as they are.  By default it collapses sub-resolution periodic runs
of children into equivalent uniform segments (mass preserved exactly); at
resolution 0 it returns the exact restriction.  Ball masses run one mass
descent per center, in which children wholly inside a ball add their mass
without being expanded or clipped; windows still emit every piece.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

import numpy as np

from .errors import (InvariantViolationError, ResourceBudgetError,
                     ScheduleExhaustedError)
from .geometry import (Ball, RationalPoint, Scalar, WeightedSegment,
                       to_fraction)
from .measures import (SegmentMeasure, Window, _clip_ints, _to_int_rows,
                       _unit_window)

DOWN = "d"
UP = "u"

#: root segment of every construction: [0,1] x {0} with unit density
ROOT = WeightedSegment(RationalPoint(0, 0), RationalPoint(1, 0), 1)

#: largest ``k_max`` the built-in schedules accept
K_MAX_BUDGET = 8

#: most segments :func:`generate` materializes
MAX_SEGMENTS = 3_000_000

#: most tree nodes one :class:`CantorMeasure` descent visits
MAX_NODES = 500_000


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Schedule:
    """Parameter sequences ``(a_k, h_k, n_k)`` for generations ``1..k_max``.

    ``a`` and ``h`` are exact rationals in (0,1); ``n_k > 2`` integers.
    ``gap_ok[k-1]`` records whether ``h_k`` meets the :func:`gap_bound` of
    step ``k - 1`` (with ``h_0 = 1``), in exact arithmetic.  ``approx_a``
    flags schedules whose ``a_k`` are rational approximations of
    irrational targets.
    """

    a: Tuple[Fraction, ...]
    h: Tuple[Fraction, ...]
    n: Tuple[int, ...]
    flavor: str = "custom"
    approx_a: bool = False

    def __post_init__(self):
        if not (len(self.a) == len(self.h) == len(self.n)):
            raise ValueError("a, h, n must have equal length")
        for ak in self.a:
            if not 0 < ak < 1:
                raise ValueError("each a_k must lie in (0,1)")
        for hk in self.h:
            if not 0 < hk < 1:
                raise ValueError("each h_k must lie in (0,1)")
        for nk in self.n:
            if nk <= 2:
                raise ValueError("each n_k must exceed 2")
        # generation -> _tree_layout, filled on first use
        object.__setattr__(self, "_layouts", {})

    @property
    def k_max(self) -> int:
        return len(self.a)

    def require_generation(self, gen: int) -> None:
        if gen < 0:
            raise ValueError("generation must be nonnegative")
        if gen > self.k_max:
            raise ScheduleExhaustedError(
                f"generation {gen} beyond schedule k_max={self.k_max}")

    # 1-indexed accessors (generation k uses a_k, h_k, n_k)
    def a_of(self, k: int) -> Fraction:
        return self.a[k - 1]

    def h_of(self, k: int) -> Fraction:
        return self.h[k - 1]

    def n_of(self, k: int) -> int:
        return self.n[k - 1]

    def min_length(self, gen: int) -> Fraction:
        """Exact shortest segment length at a generation."""
        self.require_generation(gen)
        length = ROOT.length
        for k in range(1, gen + 1):
            length *= min(self.a_of(k), 1 - self.a_of(k))
            length /= self.n_of(k)
        return length

    def segment_count(self, gen: int) -> int:
        """``m_gen = prod 2 n_k`` (exact integer)."""
        self.require_generation(gen)
        m = 1
        for k in range(1, gen + 1):
            m *= 2 * self.n_of(k)
        return m

    def h_span(self, lo_gen: int, hi_gen: int) -> Fraction:
        """``sum_{j in (lo_gen, hi_gen]} h_j``."""
        return sum(self.h[lo_gen:hi_gen], Fraction(0))

    @property
    def gap_ok(self) -> Tuple[bool, ...]:
        """Per-step exact check of the fast-collapse gap condition."""
        hs = (Fraction(1),) + self.h
        return tuple(hs[k + 1] <= gap_bound(k, hs[k], self.min_length(k))
                     for k in range(self.k_max))

    @property
    def n_rule_ok(self) -> Tuple[bool, ...]:
        """Whether ``n_k`` is the smallest integer above ``1/h_k^2``."""
        return tuple(self.n_of(k) == smallest_integer_above(1 / self.h_of(k) ** 2)
                     for k in range(1, self.k_max + 1))

    @property
    def faithful(self) -> bool:
        decreasing = all(x > y for x, y in zip(self.a, self.a[1:])) and \
            all(x > y for x, y in zip(self.h, self.h[1:]))
        return decreasing and all(self.gap_ok) and all(self.n_rule_ok)


def smallest_integer_above(q: Fraction) -> int:
    """The smallest integer strictly greater than a rational."""
    return math.floor(q) + 1


def gap_bound(k: int, h_k: Fraction, min_len: Fraction) -> Fraction:
    """The fast-collapse bound ``2^{-2k-5} min(h_k, min_len)`` on
    ``h_{k+1}``, for the shortest generation-``k`` segment ``min_len``."""
    return Fraction(1, 2 ** (2 * k + 5)) * min(h_k, min_len)


def _equality_case_h(a: Sequence[Fraction], k_max: int,
                     h1: Fraction) -> Tuple[List[Fraction], List[int]]:
    """Build ``h``/``n`` at the equality case of the gap condition:
    ``h_{k+1}`` is the :func:`gap_bound` of step ``k``, from the given
    ``h_1``; ``n_k`` the smallest integer above ``1/h_k^2``."""
    hs: List[Fraction] = []
    ns: List[int] = []
    minlen = ROOT.length
    hk = h1
    for k in range(1, k_max + 1):
        hs.append(hk)
        nk = smallest_integer_above(1 / hk ** 2)
        ns.append(nk)
        minlen = minlen * min(a[k - 1], 1 - a[k - 1]) / nk
        hk = gap_bound(k, hk, minlen)
    return hs, ns


def _check_k_max(k_max: int) -> None:
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if k_max > K_MAX_BUDGET:
        raise ResourceBudgetError(
            f"k_max={k_max} beyond budget {K_MAX_BUDGET}")


def schedule_thm11(k_max: int, h1: Scalar = Fraction(1, 128)) -> Schedule:
    """Harmonic-type schedule ``a_k = 1/(2k)`` with fastest admissible
    vertical collapse.  ``sum a_k^{2/p}`` converges for ``p < 2`` while
    ``sum a_k`` diverges."""
    _check_k_max(k_max)
    a = [Fraction(1, 2 * k) for k in range(1, k_max + 1)]
    hs, ns = _equality_case_h(a, k_max, to_fraction(h1))
    return Schedule(tuple(a), tuple(hs), tuple(ns), flavor="thm11")


def schedule_thm12(k_max: int, h1: Scalar = Fraction(1, 128)) -> Schedule:
    """Slow-decay schedule ``a_k ~ 1/(k log^2(e+k))``: ``sum a_k`` converges
    but ``sum a_k^{2/p}`` diverges for every ``p > 2``.

    The targets are irrational; a rational approximation with error below
    1e-12 is stored and the schedule is flagged ``approx_a``.
    """
    _check_k_max(k_max)
    scale = 10 ** 14
    a = []
    for k in range(1, k_max + 1):
        target = 1.0 / (k * math.log(math.e + k) ** 2)
        a.append(Fraction(round(target * scale), scale))
    hs, ns = _equality_case_h(a, k_max, to_fraction(h1))
    return Schedule(tuple(a), tuple(hs), tuple(ns), flavor="thm12",
                    approx_a=True)


def schedule_tame(k_max: int) -> Schedule:
    """Small smoke-test schedule: ``h_k = 8^-k``, ``n_k = 8^k``,
    ``a_k = 1/(2k)``.  Violates both the gap condition and the ``n_k`` rule,
    so it is never faithful, but generations up to ~6 stay tractable."""
    _check_k_max(k_max)
    a = tuple(Fraction(1, 2 * k) for k in range(1, k_max + 1))
    h = tuple(Fraction(1, 8 ** k) for k in range(1, k_max + 1))
    n = tuple(8 ** k for k in range(1, k_max + 1))
    return Schedule(a, h, n, flavor="tame")


def schedule_custom(a: Sequence[Scalar], h: Sequence[Scalar],
                    n: Sequence[int]) -> Schedule:
    return Schedule(tuple(to_fraction(x) for x in a),
                    tuple(to_fraction(x) for x in h),
                    tuple(int(v) for v in n), flavor="custom")


# ---------------------------------------------------------------------------
# one refinement step
# ---------------------------------------------------------------------------

def children(parent: WeightedSegment, h: Scalar, a: Scalar,
             n: int) -> List[WeightedSegment]:
    """The ``n`` equal children of a segment on the parallel line ``h``
    above, of total length ``a * len(parent)``, first child left-aligned,
    last child right-aligned, equal gaps ``(1-a)/(n-1) * len(parent)``.

    ``a = 1`` is accepted as the degenerate gapless case.  Densities are
    inherited, so the family carries mass ``a * mass(parent)``.
    """
    a = to_fraction(a)
    h = to_fraction(h)
    if not 0 < a <= 1:
        raise ValueError("need 0 < a <= 1")
    if n < 2:
        raise ValueError("need n >= 2")
    if h < 0:
        raise ValueError("need h >= 0")
    layout = _child_layout(parent.length, a, n)
    return [_child(parent, h, layout, i) for i in range(n)]


def _child_layout(length: Fraction, frac: Fraction,
                  n: int) -> Tuple[Fraction, Fraction]:
    """``(width, pitch)`` of ``n`` equal children of total length ``frac *
    length``, first child left-aligned, last right-aligned, equal gaps
    ``(1-frac)/(n-1) * length``."""
    width = frac * length / n
    return width, width + (1 - frac) * length / (n - 1)


def _child(parent: WeightedSegment, dy: Fraction,
           layout: Tuple[Fraction, Fraction], i: int) -> WeightedSegment:
    """Child ``i`` of a :func:`_child_layout` of ``parent`` on the line
    ``dy`` above, with the parent's density."""
    width, pitch = layout
    lo, y = parent.left.x + i * pitch, parent.y + dy
    return WeightedSegment(RationalPoint(lo, y), RationalPoint(lo + width, y),
                           parent.density)


def _tree_layout(sched: Schedule, gen: int, *dens: int):
    """``(u, widths, pitches, lifts, reaches)``: the generation-``gen``
    tree as ints over ``u = lcm(D, *dens)``, where the layout over its own
    denominator ``D`` is built on first use and cached on the schedule.  A
    generation-``g`` node of path class ``c`` (its branches as binary
    digits, down 0, up 1) has width ``widths[g][c]`` and sibling pitch
    ``pitches[g][c]``; its children have classes ``2c`` and ``2c + 1``
    (lifted by ``lifts[g + 1]``), and its subtree reaches ``reaches[g]``
    above it.  The root is ``[0, u] x {0}``."""
    if gen not in sched._layouts:
        widths = [[Fraction(1)]]
        pitches = [[Fraction(0)]]
        for g in range(1, gen + 1):
            a, n = sched.a_of(g), sched.n_of(g)
            ws, ps = zip(*(_child_layout(length, frac, n)
                           for length in widths[-1] for frac in (1 - a, a)))
            widths.append(ws)
            pitches.append(ps)
        lifts = [Fraction(0)] + list(sched.h[:gen])
        reaches = [sched.h_span(g, gen) for g in range(gen + 1)]
        sched._layouts[gen] = _to_int_rows(
            widths + pitches + [lifts, reaches])
    d, rows = sched._layouts[gen]
    u = math.lcm(d, *dens)
    if u != d:
        k = u // d
        rows = [[v * k for v in row] for row in rows]
    return u, rows[:gen + 1], rows[gen + 1:-2], rows[-2], rows[-1]


def refine(parents: Sequence[WeightedSegment], k: int,
           sched: Schedule) -> List[WeightedSegment]:
    """Full refinement of a generation-``k`` family into generation
    ``k+1``: per parent, the down family on its own line and the up family
    ``h_{k+1}`` above.  Mass is conserved exactly; segment count multiplies
    by ``2 n_{k+1}``; interior overlaps raise ``ValueError``.
    """
    sched.require_generation(k + 1)
    a, h, n = sched.a_of(k + 1), sched.h_of(k + 1), sched.n_of(k + 1)
    out: List[WeightedSegment] = []
    for parent in parents:
        out.extend(children(parent, 0, 1 - a, n))
        out.extend(children(parent, h, a, n))
    SegmentMeasure(out).check_disjoint()
    return out


def generate(sched: Schedule, gen: int) -> SegmentMeasure:
    """Materialize a full generation (only viable for small schedules)."""
    sched.require_generation(gen)
    if sched.segment_count(gen) > MAX_SEGMENTS:
        raise ResourceBudgetError(
            f"generation {gen} has {sched.segment_count(gen)} segments, "
            f"beyond the budget of {MAX_SEGMENTS}")
    segs: List[WeightedSegment] = [ROOT]
    for k in range(gen):
        segs = refine(segs, k, sched)
    return SegmentMeasure(segs, generation=gen)


# ---------------------------------------------------------------------------
# window-restricted generation
# ---------------------------------------------------------------------------

class CantorMeasure:
    """Lazy evaluation view of the generation-``gen`` measure.

    ``window(center, radius)`` returns a segment measure that agrees with
    the true restriction up to a transport error of about
    ``rel_resolution * radius``: periodic runs of children whose pitch falls
    below the resolution are collapsed into uniform segments of identical
    span and mass, and a subtree whose full reach is sub-resolution is
    represented by its root segment.  Masses are exact; only positions blur
    below the resolution.  This is what makes faithful generations >= 2
    (with ~2^45+ segments globally) evaluable at all scales.

    ``rel_resolution=0`` is the exact mode: nothing is collapsed and the
    ball is not enlarged, so ``window`` returns exactly the generation-
    ``gen`` segments that meet the closed ball.  In either mode the descent
    visits at most ``MAX_NODES`` tree nodes and raises
    ``ResourceBudgetError`` before it would visit more.

    ``ball_mass`` and ``ball_masses`` share one mass descent per center:
    its denominator and scaled layout serve every radius, the children
    wholly inside a ball add their mass by index arithmetic without being
    pushed, and only the pieces that may cross the sphere are clipped.  The
    masses equal the clip of the full window exactly, and the budget still
    counts every node the window would visit.  ``window`` and
    ``unit_windows`` emit every piece.
    """

    #: default run-collapse threshold: pitches below radius/64 are smeared;
    #: positions blur by at most that amount while line heights and masses
    #: stay exact, which is what the best-line objectives are sensitive to
    DEFAULT_RESOLUTION = Fraction(1, 64)

    def __init__(self, sched: Schedule, gen: int,
                 rel_resolution: Optional[Scalar] = None):
        sched.require_generation(gen)
        if rel_resolution is None:
            rel_resolution = self.DEFAULT_RESOLUTION
        rel_resolution = Fraction(rel_resolution)
        if not 0 <= rel_resolution < 1:
            raise ValueError("rel_resolution must lie in [0,1)")
        self.sched = sched
        self.gen = gen
        self.rel_resolution = rel_resolution

    @property
    def total_mass(self) -> Fraction:
        return ROOT.mass

    def _descend(self, cx: Fraction, cy: Fraction, radii: Sequence[Scalar],
                 count_inside: bool) -> Iterator[Tuple[
                     Fraction, Tuple[int, ...],
                     List[Tuple[int, int, int, int]], int]]:
        """The one tree descent behind every query, run per radius around
        one center: per ball ``B((cx, cy), r)``, ``(r, (u, 1, cx, cy, r),
        out, inside)``, the ball as ints over ``u`` as ``_lift`` gives it,
        where ``u`` is the common denominator of the layout, the center and
        every radius.  ``out`` holds one ``(y, x, w, m)`` per window
        segment, ints over ``u``: ``[x, x + w] x {y}`` of mass ``m`` (``m ==
        w`` for unit density), unsorted; the pieces are disjoint, so no two
        share ``(y, x)``.

        With ``count_inside`` (mass queries), the kids of a run whose reach
        boxes ``[x, x + w] x [y, y + reach]`` have all four corners in the
        true closed ball are found by index arithmetic and not pushed: their
        masses add to the int ``inside``, and ``out`` keeps only the pieces
        that may cross the sphere.  Aggregated runs are always emitted
        whole, because they smear their mass over the gaps.  Without it
        (windows), every piece is emitted and ``inside`` is 0.  In both
        modes a run that lies wholly above or below the enlarged ball is
        not pushed.

        The budget counts every node a descent without these shortcuts
        would push, the subtrees of inside kids included, so it fires on the
        same balls in both modes."""
        radii = [to_fraction(r) for r in radii]
        if any(r.numerator <= 0 for r in radii):
            raise ValueError("radius must be positive")
        p, q = self.rel_resolution.numerator, self.rel_resolution.denominator
        # every coordinate below is an int over the common denominator u;
        # q divides every radius over u, so r * p / q is exact
        u, widths, pitches, lifts, reaches = _tree_layout(
            self.sched, self.gen, cx.denominator, cy.denominator,
            *(radius.denominator * q for radius in radii))
        center = cx, cy
        cx = cx.numerator * (u // cx.denominator)
        cy = cy.numerator * (u // cy.denominator)
        gen, n_of = self.gen, self.sched.n_of
        for radius in radii:
            r = radius.numerator * (u // radius.denominator)
            # enlarge so segments touching the closed ball, and runs blurred
            # by up to one pitch, are never missed
            rr = r // q * (q + p)
            r2, rr2 = r * r, rr * rr
            lo_x, hi_x = cx - rr, cx + rr
            # a length L (over u) is below the resolution when L * res_d <
            # res_n
            res_n, res_d = r * p, q
            flat = [reach * res_d <= res_n for reach in reaches]
            below: Dict[Tuple[int, int], int] = {}

            def pushes_below(g: int, c: int) -> int:
                """The nodes pushed under a node the descent would expand
                whole (every kid in range, none missing the ball)."""
                if (g, c) not in below:
                    total = 0
                    if g < gen and not (flat[g]
                                        and widths[g][c] * res_d < res_n):
                        for kid in (2 * c, 2 * c + 1):
                            if not (flat[g + 1]
                                    and pitches[g + 1][kid] * res_d < res_n):
                                total += n_of(g + 1) * (
                                    1 + pushes_below(g + 1, kid))
                    below[g, c] = total
                return below[g, c]

            out: List[Tuple[int, int, int, int]] = []
            inside = 0
            stack: List[Tuple[int, int, int, int]] = [(0, 0, 0, 0)]
            # every stacked node is visited, so the budget is checked on push
            pushed = 1
            while stack:
                x, y, g, c = stack.pop()
                w = widths[g][c]
                dx = max(0, x - cx, cx - x - w)
                dy = max(0, y - cy, cy - y - reaches[g])
                if dx * dx + dy * dy > rr2:
                    continue
                if g == gen or (flat[g] and w * res_d < res_n):
                    # a leaf, or a whole subtree below resolution: its
                    # segments live in this x span, within the reach above,
                    # with total mass exactly this node's
                    out.append((y, x, w, w))
                    continue
                g += 1
                n = n_of(g)
                reach = reaches[g]
                for kid in (2 * c, 2 * c + 1):
                    kid_w, pitch = widths[g][kid], pitches[g][kid]
                    i_lo = max(0, -((x + kid_w - lo_x) // pitch))
                    i_hi = min(n - 1, (hi_x - x) // pitch)
                    if i_lo > i_hi:
                        continue
                    kid_y = y + lifts[g] if kid & 1 else y
                    count = i_hi - i_lo + 1
                    if flat[g] and pitch * res_d < res_n:
                        # the run as one uniform segment of the same mass
                        out.append((kid_y, x + i_lo * pitch,
                                    (count - 1) * pitch + kid_w,
                                    count * kid_w))
                        continue
                    pushed += count
                    # kids a .. b - 1 lie inside: their x spans fit in the
                    # half chord h at the farther height of their boxes
                    a = b = i_hi + 1
                    if count_inside:
                        fy = max(cy - kid_y, kid_y + reach - cy)
                        if fy <= r:
                            h = math.isqrt(r2 - fy * fy)
                            a = min(b, max(i_lo, -((x + h - cx) // pitch)))
                            b = max(a, min(i_hi, (cx + h - kid_w - x)
                                           // pitch) + 1)
                            inside += (b - a) * kid_w
                            pushed += (b - a) * pushes_below(g, kid)
                    if pushed > MAX_NODES:
                        raise ResourceBudgetError(
                            f"window descent at center ({float(center[0]):g}"
                            f", {float(center[1]):g}), radius "
                            f"{float(radius):g} visits more than {MAX_NODES} "
                            f"nodes; coarsen rel_resolution (now "
                            f"{self.rel_resolution}) or shrink the window")
                    if kid_y - cy > rr or cy - kid_y - reach > rr:
                        continue  # the whole run is above or below the ball
                    stack.extend((x + i * pitch, kid_y, g, kid)
                                 for i in range(i_lo, a))
                    stack.extend((x + i * pitch, kid_y, g, kid)
                                 for i in range(b, i_hi + 1))
            yield radius, (u, 1, cx, cy, r), out, inside

    def window(self, center, radius: Scalar) -> SegmentMeasure:
        ball = Ball(center, radius)
        (_, (u, *_), out, _), = self._descend(ball.cx, ball.cy,
                                              [ball.radius], False)
        out.sort()
        return SegmentMeasure(
            (WeightedSegment(RationalPoint(Fraction(x, u), Fraction(y, u)),
                             RationalPoint(Fraction(x + w, u), Fraction(y, u)),
                             1 if m == w else Fraction(m, w))
             for y, x, w, m in out),
            generation=self.gen)

    def _masses(self, cx: Fraction, cy: Fraction, radii: Sequence[Scalar],
                ) -> Iterator[Tuple[int, int]]:
        """The one mass descent: per radius, the exact mass of the window
        around ``B((cx, cy), r)`` in the ball as ``(num, den)``, the
        :func:`_clip_ints` of the pieces not wholly inside plus the inside
        mass."""
        for _, ball, out, inside in self._descend(cx, cy, radii, True):
            num, den = _clip_ints(*ball, out)
            yield num + inside * (den // ball[0]), den

    def ball_mass(self, ball: Ball) -> Fraction:
        """The mass of the window around the ball in the ball: the true mass
        at ``rel_resolution=0``, the aggregated window's otherwise."""
        (num, den), = self._masses(ball.cx, ball.cy, [ball.radius])
        return Fraction(num, den)

    def ball_masses(self, cx: float, cy: float,
                    radii: Sequence[float]) -> np.ndarray:
        """The masses of ``B((cx, cy), r)`` as in :meth:`ball_mass`, from
        one descent call, each rounded to a float by one int / int division
        (correctly rounded like ``float(Fraction)``)."""
        return np.array([num / den for num, den in self._masses(
            to_fraction(cx), to_fraction(cy), radii)], dtype=float)

    def unit_windows(self, cx: Fraction, cy: Fraction,
                     radii: Sequence[Scalar]) -> Iterator[Window]:
        """:func:`_unit_window` of the lazy window around each ``B((cx,
        cy), r)``, its pieces sorted by ``(y, x)`` as in :meth:`window`."""
        cx, cy = to_fraction(cx), to_fraction(cy)
        for r, (u, *_), out, _ in self._descend(cx, cy, radii, False):
            yield _unit_window(u, sorted(out), Ball((cx, cy), r))

    def candidate_centers(self, rho: Fraction, seed: int, max_centers: int,
                          ) -> List[Tuple[Fraction, Fraction]]:
        """The distinct support points of ``max_centers`` mass-uniform
        address samples drawn from ``seed``, sorted (``rho`` is unused)."""
        rng = random.Random(seed)
        centers = set()
        for _ in range(max_centers):
            pt = point_of(sample_address(self.sched, self.gen, rng),
                          self.sched)
            centers.add((pt.x, pt.y))
        return sorted(centers)


# ---------------------------------------------------------------------------
# addresses, point location and classification
# ---------------------------------------------------------------------------

SegmentAddress = Tuple[Tuple[int, str], ...]


@dataclass(frozen=True)
class PointAddress:
    """Infinite-precision locator of a construction point: a segment
    address of some depth plus an exact relative offset in [0,1] within the
    addressed segment."""

    path: SegmentAddress
    offset: Fraction

    def __post_init__(self):
        if not 0 <= self.offset <= 1:
            raise ValueError("offset must lie in [0,1]")

    @property
    def depth(self) -> int:
        return len(self.path)


def _path_ints(path: SegmentAddress,
               sched: Schedule) -> Tuple[int, int, int, int]:
    """``(D, x, y, w)``: the segment ``[x, x + w] x {y}`` a (prefix-valid)
    address points at, as ints over the :func:`_tree_layout` denominator
    ``D`` of its generation."""
    gen = len(path)
    sched.require_generation(gen)
    d, widths, pitches, lifts, _ = _tree_layout(sched, gen)
    x = y = c = 0
    for g, (idx, branch) in enumerate(path, start=1):
        if not 0 <= idx < sched.n_of(g):
            raise ValueError(f"child index {idx} out of range at depth {g}")
        c = 2 * c + (branch == UP)
        x += idx * pitches[g][c]
        if branch == UP:
            y += lifts[g]
    return d, x, y, widths[gen][c]


def segment_of(path: SegmentAddress, sched: Schedule) -> WeightedSegment:
    """The segment a (prefix-valid) address points at."""
    d, x, y, w = _path_ints(path, sched)
    return WeightedSegment(RationalPoint(Fraction(x, d), Fraction(y, d)),
                           RationalPoint(Fraction(x + w, d), Fraction(y, d)))


def point_of(pa: PointAddress, sched: Schedule) -> RationalPoint:
    d, x, y, w = _path_ints(pa.path, sched)
    q = pa.offset
    return RationalPoint(Fraction(x * q.denominator + q.numerator * w,
                                  d * q.denominator), Fraction(y, d))


def classify(pa: PointAddress, k: int) -> str:
    """Branch class at level ``k``: ``"u"`` if the point descends through
    an up child at generation ``k`` (so its nearest generation-``k`` point
    lies on the up family), else ``"d"``."""
    if k < 1 or k > pa.depth:
        raise ValueError(f"address of depth {pa.depth} cannot classify "
                         f"level {k}")
    return pa.path[k - 1][1]


def sample_address(sched: Schedule, depth: int, rng: random.Random,
                   force_branch: Optional[Dict[int, str]] = None,
                   ) -> PointAddress:
    """Sample a point address mass-uniformly: at each generation the up
    branch is chosen with probability ``a_k``, the child index uniformly,
    and the final offset uniformly within the segment.

    ``force_branch`` pins chosen levels to a branch (used to condition on
    up-passages)."""
    sched.require_generation(depth)
    force_branch = force_branch or {}
    path: List[Tuple[int, str]] = []
    for k in range(1, depth + 1):
        branch = force_branch.get(k)
        if branch is None:
            branch = UP if rng.random() < float(sched.a_of(k)) else DOWN
        path.append((rng.randrange(sched.n_of(k)), branch))
    offset = Fraction(rng.getrandbits(53), 2 ** 53)
    return PointAddress(tuple(path), offset)


def locate(point: RationalPoint, gen: int, sched: Schedule) -> PointAddress:
    """Address of an exact point of the generation-``gen`` support.

    Branches are decided by the vertical coordinate (the subset of vertical
    steps that sum to ``point.y`` is unique because the steps collapse
    faster than geometrically), indices by exact division; raises
    ``ValueError`` if the point is not on the support.
    """
    sched.require_generation(gen)
    if not ROOT.left.x <= point.x <= ROOT.right.x:
        raise ValueError("point not on the root segment's x-range")
    # the layout and the point as ints over one denominator u
    u, widths, pitches, lifts, _ = _tree_layout(
        sched, gen, point.x.denominator, point.y.denominator)
    px = point.x.numerator * (u // point.x.denominator)
    rem_y = point.y.numerator * (u // point.y.denominator)
    path: List[Tuple[int, str]] = []
    x = c = 0
    for g in range(1, gen + 1):
        up = rem_y >= lifts[g]
        if up:
            rem_y -= lifts[g]
        c = 2 * c + up
        pitch = pitches[g][c]
        idx = min(max((px - x) // pitch, 0), sched.n_of(g) - 1)
        x += idx * pitch
        if not x <= px <= x + widths[g][c]:
            raise ValueError(f"point falls in a generation-{g} gap")
        path.append((idx, UP if up else DOWN))
    if rem_y != 0:
        raise ValueError("vertical coordinate does not match any branch sum")
    return PointAddress(tuple(path), Fraction(px - x, widths[gen][c]))


# ---------------------------------------------------------------------------
# transport from one generation to the next
# ---------------------------------------------------------------------------

def transport(x: RationalPoint, k: int, sched: Schedule) -> RationalPoint:
    """Piecewise-translation map carrying the generation-``k`` measure onto
    generation ``k+1``.

    Each generation-``k`` segment is split into ``n_{k+1}`` equal pieces;
    the left part of piece ``j`` (length fraction ``1 - a_{k+1}``)
    translates onto the ``j``-th down child, the right part (fraction
    ``a_{k+1}``, left-open) onto the ``j``-th up child of the same parent:
    ``x`` moves by the cell of :func:`transport_cells` that holds it.  The
    up assignment is one-to-one and moves points by at most one child
    pitch horizontally, so ``|x - T(x)| <= C h_{k+1}``; lengths match
    exactly, so cell masses push forward exactly.
    """
    sched.require_generation(k + 1)
    parent = segment_of(locate(x, k, sched).path, sched)
    n = sched.n_of(k + 1)
    j = min(math.floor((x.x - parent.left.x) * n / parent.length), n - 1)
    down, up = transport_cells(parent, k, sched, [j])
    cell = down if x.x <= down.source_hi else up
    return RationalPoint(cell.target.left.x + (x.x - cell.source_lo),
                         cell.target.y)


@dataclass(frozen=True)
class TransportCell:
    """One translation cell of the transport map over a single parent:
    the source x-interval (a piece part) and its target child segment."""

    source_lo: Fraction
    source_hi: Fraction
    target: WeightedSegment
    branch: str

    def source_mass_at(self, density: Fraction) -> Fraction:
        return density * (self.source_hi - self.source_lo)


def transport_cells(parent: WeightedSegment, k: int, sched: Schedule,
                    indices: Optional[Iterable[int]] = None,
                    ) -> List[TransportCell]:
    """The translation cells of the transport map over one parent segment,
    for the given piece indices ``0 <= j < n_{k+1}`` (all pieces when
    feasible)."""
    sched.require_generation(k + 1)
    a, h, n = sched.a_of(k + 1), sched.h_of(k + 1), sched.n_of(k + 1)
    piece = parent.length / n
    # a down child is as wide as the left part (1 - a) * piece of its piece
    down = _child_layout(parent.length, 1 - a, n)
    up = _child_layout(parent.length, a, n)
    if indices is None:
        if n > 200_000:
            raise ResourceBudgetError(
                "too many cells; pass explicit piece indices")
        indices = range(n)
    cells = []
    for j in indices:
        if not 0 <= j < n:
            raise ValueError(f"piece index {j} outside 0..{n - 1}")
        lo = parent.left.x + j * piece
        mid = lo + down[0]
        cells.append(TransportCell(lo, mid, _child(parent, 0, down, j), DOWN))
        cells.append(TransportCell(mid, lo + piece, _child(parent, h, up, j),
                                   UP))
    return cells


def verify_conservation(sched: Schedule, gen: int,
                        rng: random.Random) -> Fraction:
    """Structural exact-mass check: along five randomly sampled descent
    paths, verify at every level of the :func:`_tree_layout` that the two
    child families carry exactly the parent mass (count * width per family,
    at the root's unit density), and return the total mass of the
    generation (the conserved root mass).

    This exercises the layout arithmetic at generations far beyond
    enumerability.
    """
    sched.require_generation(gen)
    widths = _tree_layout(sched, gen)[1]
    for _ in range(5):
        c = 0
        for g in range(1, gen + 1):
            n = sched.n_of(g)
            if n * sum(widths[g][2 * c:2 * c + 2]) != widths[g - 1][c]:
                raise InvariantViolationError(
                    f"mass not conserved at generation {g}")
            c = 2 * c + (rng.random() < float(sched.a_of(g)))
            rng.randrange(n)  # the child index, drawn to keep the rng stream
    return ROOT.mass


def max_separation_squared(segs: Sequence[WeightedSegment]) -> Fraction:
    """Exact ``max_i dist(J_i, rest)^2`` over an enumerated family: the
    worst-case distance from a segment to the remainder of the set."""
    by_line: Dict[Fraction, List[WeightedSegment]] = {}
    for s in segs:
        by_line.setdefault(s.y, []).append(s)
    lines = sorted(by_line)
    sorted_lines = {}
    for y in lines:
        row = sorted(by_line[y], key=lambda s: s.left.x)
        sorted_lines[y] = (row, [s.left.x for s in row])

    def seg_dist2(s: WeightedSegment, o: WeightedSegment) -> Fraction:
        dx = max(Fraction(0), o.left.x - s.right.x, s.left.x - o.right.x)
        dy = s.y - o.y
        return dx * dx + dy * dy

    worst = Fraction(0)
    for y in lines:
        row, lefts = sorted_lines[y]
        for i, s in enumerate(row):
            best: Optional[Fraction] = None
            if i > 0:
                g = s.left.x - row[i - 1].right.x
                best = g * g
            if i + 1 < len(row):
                g = row[i + 1].left.x - s.right.x
                g2 = g * g
                best = g2 if best is None else min(best, g2)
            for y2 in lines:
                if y2 == y:
                    continue
                dy2 = (y2 - y) ** 2
                if best is not None and dy2 >= best:
                    continue
                row2, lefts2 = sorted_lines[y2]
                j = bisect.bisect_left(lefts2, s.left.x)
                for jj in (j - 1, j, j + 1):
                    if 0 <= jj < len(row2):
                        d2 = seg_dist2(s, row2[jj])
                        best = d2 if best is None else min(best, d2)
            if best is not None and best > worst:
                worst = best
    return worst


def separation_bound_holds(segs: Sequence[WeightedSegment], k: int,
                           sched: Schedule) -> bool:
    """Exact check of the separation bound at an enumerated generation:
    every segment has another segment within ``1/(n_k - 1)``."""
    bound = Fraction(1, sched.n_of(k) - 1)
    return max_separation_squared(segs) <= bound * bound
