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
has ~2^45 segments, so everything here is built around *lazy, window
restricted* generation with exact rational arithmetic, plus an aggregated
evaluation view that collapses sub-resolution periodic runs of children
into equivalent uniform segments (mass preserved exactly).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (ResourceBudgetError, ScheduleExhaustedError)
from .geometry import (Ball, RationalPoint, Scalar, WeightedSegment,
                       segment_ball_intersects, to_fraction)
from .measures import SegmentMeasure

DOWN = "d"
UP = "u"

#: root segment of every construction: [0,1] x {0} with unit density
ROOT = WeightedSegment(RationalPoint(0, 0), RationalPoint(1, 0), 1)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Schedule:
    """Parameter sequences ``(a_k, h_k, n_k)`` for generations ``1..k_max``.

    ``a`` and ``h`` are exact rationals in (0,1); ``n_k > 2`` integers.
    ``gap_ok[k-1]`` records whether the fast-collapse condition
    ``h_k <= 2^{-2(k-1)-5} min(h_{k-1}, shortest generation-(k-1) segment)``
    holds at step ``k`` (with ``h_0 = 1`` for the first step), checked in
    exact arithmetic.  ``approx_a`` flags schedules whose ``a_k`` are
    rational approximations of irrational targets.
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
        cum = [Fraction(0)]
        for hk in self.h:
            cum.append(cum[-1] + hk)
        object.__setattr__(self, "_h_cum", tuple(cum))

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

    def max_length(self, gen: int) -> Fraction:
        self.require_generation(gen)
        length = ROOT.length
        for k in range(1, gen + 1):
            length *= max(self.a_of(k), 1 - self.a_of(k))
            length /= self.n_of(k)
        return length

    def segment_count(self, gen: int) -> int:
        """``m_gen = prod 2 n_k`` (exact integer)."""
        self.require_generation(gen)
        m = 1
        for k in range(1, gen + 1):
            m *= 2 * self.n_of(k)
        return m

    def h_tail(self, gen: int) -> Fraction:
        """``sum_{j > gen} h_j`` over the generated range."""
        return self._h_cum[-1] - self._h_cum[gen]

    def h_span(self, lo_gen: int, hi_gen: int) -> Fraction:
        """``sum_{j in (lo_gen, hi_gen]} h_j``."""
        return self._h_cum[hi_gen] - self._h_cum[lo_gen]

    @property
    def gap_ok(self) -> Tuple[bool, ...]:
        """Per-step exact check of the fast-collapse gap condition."""
        flags = []
        prev_h = Fraction(1)
        for k in range(1, self.k_max + 1):
            bound = Fraction(1, 2 ** (2 * (k - 1) + 5)) * min(
                prev_h, self.min_length(k - 1))
            flags.append(self.h_of(k) <= bound)
            prev_h = self.h_of(k)
        return tuple(flags)

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


def _equality_case_h(a: Sequence[Fraction], k_max: int,
                     h1: Fraction) -> Tuple[List[Fraction], List[int]]:
    """Build ``h``/``n`` at the equality case of the gap condition.

    ``h_{k+1} = 2^{-2k-5} min(h_k, shortest generation-k segment)`` with the
    given ``h_1``; ``n_k`` the smallest integer above ``1/h_k^2``.
    """
    hs: List[Fraction] = []
    ns: List[int] = []
    minlen = ROOT.length
    hk = h1
    for k in range(1, k_max + 1):
        hs.append(hk)
        nk = smallest_integer_above(1 / hk ** 2)
        ns.append(nk)
        minlen = minlen * min(a[k - 1], 1 - a[k - 1]) / nk
        hk = Fraction(1, 2 ** (2 * k + 5)) * min(hk, minlen)
    return hs, ns


def schedule_thm11(k_max: int, h1: Scalar = Fraction(1, 128),
                   budget: int = 8) -> Schedule:
    """Harmonic-type schedule ``a_k = 1/(2k)`` with fastest admissible
    vertical collapse.  ``sum a_k^{2/p}`` converges for ``p < 2`` while
    ``sum a_k`` diverges."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if k_max > budget:
        raise ResourceBudgetError(f"k_max={k_max} beyond budget {budget}")
    a = [Fraction(1, 2 * k) for k in range(1, k_max + 1)]
    hs, ns = _equality_case_h(a, k_max, to_fraction(h1))
    return Schedule(tuple(a), tuple(hs), tuple(ns), flavor="thm11")


def schedule_thm12(k_max: int, h1: Scalar = Fraction(1, 128),
                   budget: int = 8) -> Schedule:
    """Slow-decay schedule ``a_k ~ 1/(k log^2(e+k))``: ``sum a_k`` converges
    but ``sum a_k^{2/p}`` diverges for every ``p > 2``.

    The targets are irrational; a rational approximation with error below
    1e-12 is stored and the schedule is flagged ``approx_a``.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if k_max > budget:
        raise ResourceBudgetError(f"k_max={k_max} beyond budget {budget}")
    scale = 10 ** 14
    a = []
    for k in range(1, k_max + 1):
        target = 1.0 / (k * math.log(math.e + k) ** 2)
        a.append(Fraction(round(target * scale), scale))
    hs, ns = _equality_case_h(a, k_max, to_fraction(h1))
    return Schedule(tuple(a), tuple(hs), tuple(ns), flavor="thm12",
                    approx_a=True)


def schedule_tame(k_max: int, budget: int = 8) -> Schedule:
    """Small smoke-test schedule: ``h_k = 8^-k``, ``n_k = 8^k``,
    ``a_k = 1/(2k)``.  Violates both the gap condition and the ``n_k`` rule,
    so it is never faithful, but generations up to ~6 stay tractable."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if k_max > budget:
        raise ResourceBudgetError(f"k_max={k_max} beyond budget {budget}")
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
    fam = _Family.of(parent, a, n, h, UP if h else DOWN)
    return [fam.child(i) for i in range(n)]


@dataclass(frozen=True)
class _Family:
    """Layout of one child family (down or up) of a parent segment."""

    x0: Fraction
    y: Fraction
    width: Fraction
    pitch: Fraction
    count: int
    density: Fraction
    branch: str

    @classmethod
    def of(cls, parent: WeightedSegment, frac: Fraction, n: int,
           dy: Fraction, branch: str) -> "_Family":
        """``n`` equal children of total length ``frac * len(parent)`` on
        the line ``dy`` above ``parent``, first child left-aligned, last
        right-aligned, equal gaps ``(1-frac)/(n-1) * len(parent)``."""
        length = parent.length
        width = frac * length / n
        pitch = width + (1 - frac) * length / (n - 1)
        return cls(parent.left.x, parent.y + dy, width, pitch, n,
                   parent.density, branch)

    def child(self, i: int) -> WeightedSegment:
        lo = self.x0 + i * self.pitch
        return WeightedSegment(RationalPoint(lo, self.y),
                               RationalPoint(lo + self.width, self.y),
                               self.density)

    def index_range(self, lo: Fraction, hi: Fraction,
                    ) -> Optional[Tuple[int, int]]:
        """Inclusive index range of children whose closed x-interval meets
        ``[lo, hi]`` (exact)."""
        if hi < self.x0 or lo > self.x0 + (self.count - 1) * self.pitch + self.width:
            return None
        i_lo = max(0, math.ceil((lo - self.x0 - self.width) / self.pitch))
        i_hi = min(self.count - 1, math.floor((hi - self.x0) / self.pitch))
        if i_lo > i_hi:
            return None
        return i_lo, i_hi

    def run_segment(self, i_lo: int, i_hi: int) -> WeightedSegment:
        """Uniform segment equivalent to the run ``i_lo..i_hi`` of children:
        same span, same total mass (exact)."""
        count = i_hi - i_lo + 1
        lo = self.x0 + i_lo * self.pitch
        span = (count - 1) * self.pitch + self.width
        dens = count * self.width * self.density / span
        return WeightedSegment(RationalPoint(lo, self.y),
                               RationalPoint(lo + span, self.y), dens)


def _families(parent: WeightedSegment, gen_child: int,
              sched: Schedule) -> Tuple[_Family, _Family]:
    """Down/up child family layouts of ``parent`` at generation
    ``gen_child``."""
    a = sched.a_of(gen_child)
    n = sched.n_of(gen_child)
    return (_Family.of(parent, 1 - a, n, Fraction(0), DOWN),
            _Family.of(parent, a, n, sched.h_of(gen_child), UP))


def refine(parents: Sequence[WeightedSegment], k: int, sched: Schedule,
           check_overlap: bool = True) -> List[WeightedSegment]:
    """Full refinement of a generation-``k`` family into generation
    ``k+1``: per parent, the down family on its own line and the up family
    ``h_{k+1}`` above.  Mass is conserved exactly; segment count multiplies
    by ``2 n_{k+1}``.
    """
    sched.require_generation(k + 1)
    out: List[WeightedSegment] = []
    for parent in parents:
        down, up = _families(parent, k + 1, sched)
        out.extend(down.child(i) for i in range(down.count))
        out.extend(up.child(i) for i in range(up.count))
    if check_overlap:
        SegmentMeasure(out).check_disjoint()
    return out


def generate(sched: Schedule, gen: int, max_segments: int = 3_000_000,
             check_overlap: bool = True) -> SegmentMeasure:
    """Materialize a full generation (only viable for small schedules)."""
    sched.require_generation(gen)
    if sched.segment_count(gen) > max_segments:
        raise ResourceBudgetError(
            f"generation {gen} has {sched.segment_count(gen)} segments, "
            f"beyond the budget of {max_segments}")
    segs: List[WeightedSegment] = [ROOT]
    for k in range(gen):
        segs = refine(segs, k, sched, check_overlap=check_overlap)
    return SegmentMeasure(segs, generation=gen)


# ---------------------------------------------------------------------------
# window-restricted generation
# ---------------------------------------------------------------------------

def _box_meets_ball(x_lo: Fraction, x_hi: Fraction, y_lo: Fraction,
                    y_hi: Fraction, ball: Ball) -> bool:
    """Exact closed box / closed ball intersection test."""
    dx = max(Fraction(0), x_lo - ball.cx, ball.cx - x_hi)
    dy = max(Fraction(0), y_lo - ball.cy, ball.cy - y_hi)
    return dx * dx + dy * dy <= ball.radius * ball.radius


SegmentAddress = Tuple[Tuple[int, str], ...]


def window_refine(window: Ball, gen: int, sched: Schedule,
                  max_segments: int = 500_000, with_addresses: bool = False):
    """Exactly the generation-``gen`` segments meeting a closed window.

    Equivalent to full refinement followed by intersection filtering, but
    computed by descending only those ancestors whose reachable region (the
    parent's x-range thickened by the remaining vertical steps) meets the
    window.  Raises ``ResourceBudgetError`` if the window holds more than
    ``max_segments`` segments.

    With ``with_addresses=True`` returns ``[(address, segment)]`` pairs,
    where an address is the path of ``(child_index, branch)`` choices.
    """
    sched.require_generation(gen)
    results = []
    addr_root: SegmentAddress = ()
    stack: List[Tuple[WeightedSegment, int, SegmentAddress]] = [
        (ROOT, 0, addr_root)]
    while stack:
        seg, g, addr = stack.pop()
        if g == gen:
            if segment_ball_intersects(seg, window):
                results.append((addr, seg))
                if len(results) > max_segments:
                    raise ResourceBudgetError(
                        f"window holds more than {max_segments} segments")
            continue
        reach = sched.h_span(g, gen)
        if not _box_meets_ball(seg.left.x, seg.right.x, seg.y,
                               seg.y + reach, window):
            continue
        down, up = _families(seg, g + 1, sched)
        for fam in (down, up):
            rng = fam.index_range(window.cx - window.radius,
                                  window.cx + window.radius)
            if rng is None:
                continue
            if (rng[1] - rng[0] + 1) > max_segments:
                raise ResourceBudgetError(
                    f"window holds more than {max_segments} segments")
            for i in range(rng[0], rng[1] + 1):
                stack.append((fam.child(i), g + 1, addr + ((i, fam.branch),)))
    results.sort(key=lambda t: t[0])
    if with_addresses:
        return results
    return SegmentMeasure([seg for _, seg in results], generation=gen)


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
    """

    #: default run-collapse threshold: pitches below radius/64 are smeared;
    #: positions blur by at most that amount while line heights and masses
    #: stay exact, which is what the best-line objectives are sensitive to
    DEFAULT_RESOLUTION = Fraction(1, 64)

    def __init__(self, sched: Schedule, gen: int,
                 rel_resolution: Optional[Scalar] = None,
                 max_nodes: int = 500_000):
        sched.require_generation(gen)
        if rel_resolution is None:
            rel_resolution = self.DEFAULT_RESOLUTION
        rel_resolution = Fraction(rel_resolution)
        if not 0 < rel_resolution < 1:
            raise ValueError("rel_resolution must lie in (0,1)")
        self.sched = sched
        self.gen = gen
        self.rel_resolution = rel_resolution
        self.max_nodes = max_nodes

    @property
    def total_mass(self) -> Fraction:
        return ROOT.mass

    def window(self, center, radius: Scalar) -> SegmentMeasure:
        ball = Ball(center, radius)
        res = self.rel_resolution * ball.radius
        # enlarge so segments touching the closed ball, and runs blurred by
        # up to one pitch, are never missed
        enlarged = Ball((ball.cx, ball.cy), ball.radius * (1 + self.rel_resolution))
        lo_x = enlarged.cx - enlarged.radius
        hi_x = enlarged.cx + enlarged.radius
        out: List[WeightedSegment] = []
        stack: List[Tuple[WeightedSegment, int]] = [(ROOT, 0)]
        nodes = 0
        while stack:
            seg, g = stack.pop()
            nodes += 1
            if nodes > self.max_nodes:
                raise ResourceBudgetError("window descent budget exceeded")
            reach = self.sched.h_span(g, self.gen)
            if not _box_meets_ball(seg.left.x, seg.right.x, seg.y,
                                   seg.y + reach, enlarged):
                continue
            if g == self.gen:
                out.append(seg)
                continue
            if seg.length < res and reach <= res:
                # whole remaining subtree is below resolution: its segments
                # live in the seg x span, within `reach` above, with total
                # mass exactly seg.mass
                out.append(seg)
                continue
            down, up = _families(seg, g + 1, self.sched)
            for fam in (down, up):
                rng = fam.index_range(lo_x, hi_x)
                if rng is None:
                    continue
                subtree_reach = self.sched.h_span(g + 1, self.gen)
                if fam.pitch < res and subtree_reach <= res:
                    out.append(fam.run_segment(rng[0], rng[1]))
                else:
                    for i in range(rng[0], rng[1] + 1):
                        stack.append((fam.child(i), g + 1))
        out.sort(key=lambda s: (s.y, s.left.x))
        return SegmentMeasure(out, generation=self.gen)

    def ball_mass(self, ball: Ball) -> Fraction:
        """Exact mass of the closed ball, from the lazy window around it."""
        return self.window((ball.cx, ball.cy), ball.radius).ball_mass(ball)

    def ball_masses(self, cx: float, cy: float,
                    radii: Sequence[float]) -> np.ndarray:
        """The exact masses of ``B((cx, cy), r)``, rounded to floats."""
        return np.array([float(self.ball_mass(Ball((cx, cy), r)))
                         for r in radii], dtype=float)


# ---------------------------------------------------------------------------
# addresses, point location and classification
# ---------------------------------------------------------------------------

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


def segment_of(path: SegmentAddress, sched: Schedule) -> WeightedSegment:
    """The segment a (prefix-valid) address points at."""
    sched.require_generation(len(path))
    seg = ROOT
    for g, (idx, branch) in enumerate(path, start=1):
        down, up = _families(seg, g, sched)
        fam = up if branch == UP else down
        if not 0 <= idx < fam.count:
            raise ValueError(f"child index {idx} out of range at depth {g}")
        seg = fam.child(idx)
    return seg


def point_of(pa: PointAddress, sched: Schedule) -> RationalPoint:
    seg = segment_of(pa.path, sched)
    return RationalPoint(seg.left.x + pa.offset * seg.length, seg.y)


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
    seg = ROOT
    path: List[Tuple[int, str]] = []
    rem_y = point.y - ROOT.y
    if not ROOT.left.x <= point.x <= ROOT.right.x:
        raise ValueError("point not on the root segment's x-range")
    for g in range(1, gen + 1):
        h = sched.h_of(g)
        branch = UP if rem_y >= h else DOWN
        if branch == UP:
            rem_y -= h
        down, up = _families(seg, g, sched)
        fam = up if branch == UP else down
        idx = math.floor((point.x - fam.x0) / fam.pitch)
        idx = min(max(idx, 0), fam.count - 1)
        child = fam.child(idx)
        if not child.left.x <= point.x <= child.right.x:
            raise ValueError(f"point falls in a generation-{g} gap")
        path.append((idx, branch))
        seg = child
    if rem_y != 0:
        raise ValueError("vertical coordinate does not match any branch sum")
    offset = (point.x - seg.left.x) / seg.length
    return PointAddress(tuple(path), offset)


# ---------------------------------------------------------------------------
# transport from one generation to the next
# ---------------------------------------------------------------------------

def transport(x: RationalPoint, k: int, sched: Schedule) -> RationalPoint:
    """Piecewise-translation map carrying the generation-``k`` measure onto
    generation ``k+1``.

    Each generation-``k`` segment is split into ``n_{k+1}`` equal pieces;
    the left part of piece ``j`` (length fraction ``1 - a_{k+1}``)
    translates onto the ``j``-th down child, the right part (fraction
    ``a_{k+1}``, left-open) onto the ``j``-th up child of the same parent.
    The up assignment is one-to-one and moves points by at most one child
    pitch horizontally, so ``|x - T(x)| <= C h_{k+1}``; lengths match
    exactly, so cell masses push forward exactly.
    """
    sched.require_generation(k + 1)
    pa = locate(x, k, sched)
    parent = segment_of(pa.path, sched)
    a = sched.a_of(k + 1)
    n = sched.n_of(k + 1)
    piece = parent.length / n
    t = x.x - parent.left.x
    j = min(math.floor(t / piece), n - 1)
    s = t - j * piece
    w_down = (1 - a) * piece
    down, up = _families(parent, k + 1, sched)
    if s <= w_down:
        child = down.child(j)
        return RationalPoint(child.left.x + s, child.y)
    child = up.child(j)
    return RationalPoint(child.left.x + (s - w_down), child.y)


@dataclass(frozen=True)
class TransportCell:
    """One translation cell of the transport map over a single parent:
    the source x-interval (a piece part) and its target child segment."""

    source_lo: Fraction
    source_hi: Fraction
    target: WeightedSegment
    branch: str

    @property
    def source_mass(self) -> Fraction:
        return self.source_hi - self.source_lo  # unit parent density

    def source_mass_at(self, density: Fraction) -> Fraction:
        return density * (self.source_hi - self.source_lo)


def transport_cells(parent: WeightedSegment, k: int, sched: Schedule,
                    indices: Optional[Iterable[int]] = None,
                    ) -> List[TransportCell]:
    """The translation cells of the transport map over one parent segment,
    for the given piece indices (all pieces when feasible)."""
    sched.require_generation(k + 1)
    a = sched.a_of(k + 1)
    n = sched.n_of(k + 1)
    piece = parent.length / n
    w_down = (1 - a) * piece
    down, up = _families(parent, k + 1, sched)
    if indices is None:
        if n > 200_000:
            raise ResourceBudgetError(
                "too many cells; pass explicit piece indices")
        indices = range(n)
    cells = []
    for j in indices:
        lo = parent.left.x + j * piece
        cells.append(TransportCell(lo, lo + w_down, down.child(j), DOWN))
        cells.append(TransportCell(lo + w_down, lo + piece, up.child(j), UP))
    return cells


def verify_conservation(sched: Schedule, gen: int, rng: random.Random,
                        samples_per_level: int = 5) -> Fraction:
    """Structural exact-mass check: along randomly sampled descent paths,
    verify at every level that the two child families carry exactly the
    parent mass (count * width * density per family), and return the total
    mass of the generation (the conserved root mass).

    This exercises the layout arithmetic at generations far beyond
    enumerability.
    """
    from .errors import InvariantViolationError
    sched.require_generation(gen)
    for _ in range(samples_per_level):
        seg = ROOT
        for g in range(1, gen + 1):
            down, up = _families(seg, g, sched)
            fam_mass = (down.count * down.width * down.density
                        + up.count * up.width * up.density)
            if fam_mass != seg.mass:
                raise InvariantViolationError(
                    f"mass not conserved at generation {g}")
            fam = up if rng.random() < float(sched.a_of(g)) else down
            seg = fam.child(rng.randrange(fam.count))
    return ROOT.mass


def max_separation_squared(segs: Sequence[WeightedSegment]) -> Fraction:
    """Exact ``max_i dist(J_i, rest)^2`` over an enumerated family: the
    worst-case distance from a segment to the remainder of the set."""
    import bisect
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
