"""Density and rectifiability diagnostics: density profiles along scale
grids, the low-density witness at up-passages of the construction, doubling
radii, a disjoint-ball approximation measure, and grid-restricted maximal
functions.

Conventions: ambient dimension ``d = 2``, support dimension ``n = 1``, so
density ratios are ``mu(B(x,r)) / (2r)`` and the maximal function is
``sup_r mu(B(x,r)) / r``.  Screening over many candidate balls runs on
vectorized floats; the masses recorded for selected balls (and hence the
approximating measure) are exact rationals.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .beta import ScaleGrid
from .cantor import (UP, CantorMeasure, PointAddress, Schedule, classify,
                     point_of, sample_address)
from .errors import ResourceBudgetError
from .geometry import (Ball, RationalPoint, Scalar, WeightedSegment,
                       to_fraction)
from .measures import AnyMeasure, AtomicMeasure, SegmentMeasure


@dataclass(frozen=True)
class DensityProfile:
    """Samples ``(r, mu(B(x,r)) / (2r))`` over a decreasing radius grid."""

    point: Tuple[float, float]
    samples: Tuple[Tuple[float, float], ...]

    def ratios(self) -> List[float]:
        return [ratio for _, ratio in self.samples]


def density_profile(mu: AnyMeasure, x, grid: ScaleGrid) -> DensityProfile:
    """One-dimensional density ratios of ``mu`` at ``x`` over the grid."""
    samples = []
    for r in grid.radii():
        m = float(mu.ball_mass(Ball(x, to_fraction(r))))
        samples.append((r, m / (2.0 * r)))
    return DensityProfile((float(x[0]), float(x[1])), tuple(samples))


def unrectifiability_witness(sched: Schedule, pa: PointAddress,
                             k_range: Sequence[int],
                             gen: Optional[int] = None,
                             ) -> List[Tuple[int, float]]:
    """Density ratios at ``r = h_k/2`` for a point descending through an up
    child at each probed level ``k``.

    Near such a point, the ball ``B(x, h_k/2)`` only reaches the sparse up
    family of generation ``k``, so the ratio is of the order ``a_k`` and
    decays with ``k``; this is the quantitative low-density witness used to
    rule out rectifiable pieces.  Raises ``ValueError`` when the address
    does not pass upward at a requested level.
    """
    if gen is None:
        gen = pa.depth
    sched.require_generation(gen)
    for k in k_range:
        if classify(pa, k) != UP:
            raise ValueError(f"witness needs an up passage at level {k}")
    x = point_of(pa, sched)
    mu = CantorMeasure(sched, gen)
    out = []
    for k in k_range:
        r = sched.h_of(k) / 2
        m = float(mu.ball_mass(Ball((x.x, x.y), r)))
        out.append((k, m / (2.0 * float(r))))
    return out


def doubling_scales(mu: AnyMeasure, x, lam: float, c_star: float,
                    grid: ScaleGrid, d: int = 2, n: int = 1) -> List[float]:
    """Grid radii ``r`` with ``mu(B(x, lam*r)) <= 2 lam^d mu(B(x,r))`` and
    ``mu(B(x,r)) <= 10 c_star lam^n r^n``."""
    if lam <= 2:
        raise ValueError("the dilation factor must exceed 2")
    fx, fy = float(x[0]), float(x[1])
    out = []
    radii = grid.radii()
    masses = mu.ball_masses(fx, fy, radii)
    dilated = mu.ball_masses(fx, fy, [r * lam for r in radii])
    for r, m_r, m_lr in zip(radii, masses, dilated):
        if m_lr <= 2.0 * lam ** d * m_r and m_r <= 10.0 * c_star * lam ** n * r ** n:
            out.append(r)
    return out


def doubling_descent(mu: AnyMeasure, x, s: float, lam: float, c_star: float,
                     max_steps: int = 60, n: int = 1) -> Optional[float]:
    """Descend ``r = lam^-j s`` from a low-density start until the density
    ratio first reaches ``3 c_star``; that radius satisfies
    ``mu(B(x, lam*r)) <= lam^n mu(B(x,r))`` and
    ``mu(B(x,r)) <= 3 c_star lam^n r^n``.

    Returns None when the threshold is never reached within ``max_steps``
    (the start must have ``mu(B(x,s))/s^n <= 2 c_star``).
    """
    if lam <= 2:
        raise ValueError("the dilation factor must exceed 2")
    fx, fy = float(x[0]), float(x[1])
    s = float(s)
    if mu.ball_masses(fx, fy, [s])[0] / s ** n > 2.0 * c_star:
        raise ValueError("descent start must have density ratio <= 2 c_star")
    for j in range(max_steps + 1):
        r = s * lam ** (-j)
        if mu.ball_masses(fx, fy, [r])[0] / r ** n >= 3.0 * c_star:
            return r
    return None


@dataclass(frozen=True)
class DoublingBallFamily:
    """A pairwise-disjoint family of doubling balls with their exact masses
    and the parameters the selection ran with."""

    balls: Tuple[Tuple[Fraction, Fraction, Fraction], ...]  # (cx, cy, r)
    masses: Tuple[Fraction, ...]
    lam: float
    c_star: float
    rho: Fraction
    eps: float

    def __len__(self) -> int:
        return len(self.balls)

    @property
    def covered_mass(self) -> Fraction:
        return sum(self.masses, Fraction(0))

    def check_disjoint(self) -> bool:
        """Exact pairwise disjointness of the closed balls."""
        for i in range(len(self.balls)):
            xi, yi, ri = self.balls[i]
            for j in range(i + 1, len(self.balls)):
                xj, yj, rj = self.balls[j]
                if (xi - xj) ** 2 + (yi - yj) ** 2 <= (ri + rj) ** 2:
                    return False
        return True


def _candidate_centers(mu: AnyMeasure, rho: Fraction, seed: int,
                       max_centers: int,
                       ) -> List[Tuple[Fraction, Fraction]]:
    """Deterministic candidate centers on the support of any measure
    kind."""
    if isinstance(mu, AtomicMeasure):
        centers = [(x, y) for x, y, _ in mu.atoms]
        if len(centers) > max_centers:
            rng = random.Random(seed)
            centers = rng.sample(sorted(centers), max_centers)
        return sorted(centers)
    if isinstance(mu, CantorMeasure):
        rng = random.Random(seed)
        centers = set()
        for _ in range(max_centers):
            pa = sample_address(mu.sched, mu.gen, rng)
            pt = point_of(pa, mu.sched)
            centers.add((pt.x, pt.y))
        return sorted(centers)
    centers = set()
    for seg in mu.segments:
        steps = min(64, max(2, int(math.ceil(seg.length / rho)) * 2))
        for i in range(steps + 1):
            centers.add((seg.left.x + Fraction(i, steps) * seg.length, seg.y))
    return sorted(centers)


def build_mu_tilde(mu: AnyMeasure, lam: float, rho: Scalar, eps: float,
                   c_star: float, radius_levels: int = 8,
                   max_balls: int = 100_000, max_centers: int = 4000,
                   seed: int = 0,
                   ) -> Tuple[SegmentMeasure, DoublingBallFamily]:
    """Greedy disjoint-ball approximation of a measure.

    Candidate balls are centered on the support with radii on the dyadic
    grid ``rho * 2^-i``; only balls passing the doubling and growth tests
    (``mu(lam B) <= 2 lam^d mu(B)`` and ``mu(B) <= 10 c_star lam^n r^n``)
    are eligible.  Eligible balls are selected greedily by decreasing mass
    (ties: lexicographic center, then larger radius), skipping any that
    meet an already selected ball, until at most an ``eps`` fraction of the
    total mass is left uncovered.

    Each selected ball ``B_i`` is replaced by the concentric horizontal
    segment of half its radius carrying exactly the mass ``mu(B_i)`` (the
    recorded masses are exact rationals); the union of those segments is
    the approximating measure.

    Raises ``ResourceBudgetError`` when the candidate family cannot reach
    the required coverage (``rho`` too small for the support resolution).
    """
    if lam <= 2:
        raise ValueError("the dilation factor must exceed 2")
    if not 0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    rho = to_fraction(rho)
    if rho <= 0:
        raise ValueError("rho must be positive")
    total = float(mu.total_mass)
    if total <= 0:
        raise ValueError("measure has no mass")

    radii = [rho * Fraction(1, 2 ** i) for i in range(radius_levels)]
    centers = _candidate_centers(mu, rho, seed, max_centers)

    # screening in floats: (mass, center, radius) for every passing ball;
    # the dilated mass is only needed where the ball itself has mass
    candidates: List[Tuple[float, Fraction, Fraction, Fraction]] = []
    fradii = [float(r) for r in radii]
    for cx, cy in centers:
        fx, fy = float(cx), float(cy)
        masses = mu.ball_masses(fx, fy, fradii)
        live = [i for i, m in enumerate(masses) if m > 0]
        dilated = mu.ball_masses(fx, fy, [lam * fradii[i] for i in live])
        for i, m_lam in zip(live, dilated):
            m, fr = float(masses[i]), fradii[i]
            if m_lam > 2.0 * lam ** 2 * m:
                continue
            if m > 10.0 * c_star * lam * fr:
                continue
            candidates.append((m, cx, cy, radii[i]))

    # greedy order: decreasing mass, lexicographic center, larger radius
    candidates.sort(key=lambda t: (-t[0], t[1], t[2], -t[3]))

    selected: List[Tuple[Fraction, Fraction, Fraction]] = []
    sel_x: List[float] = []
    sel_y: List[float] = []
    sel_r: List[float] = []
    covered = 0.0  # the selected balls are disjoint, so masses add
    target = (1.0 - eps) * total
    for m, cx, cy, r in candidates:
        if covered >= target * (1.0 - 1e-12):
            break
        if len(selected) >= max_balls:
            raise ResourceBudgetError("ball budget exhausted before coverage")
        fx, fy, fr = float(cx), float(cy), float(r)
        if selected:
            ax = np.asarray(sel_x)
            ay = np.asarray(sel_y)
            ar = np.asarray(sel_r)
            if ((ax - fx) ** 2 + (ay - fy) ** 2 <= (ar + fr) ** 2).any():
                continue
        selected.append((cx, cy, r))
        sel_x.append(fx)
        sel_y.append(fy)
        sel_r.append(fr)
        covered += m

    if covered < target * (1.0 - 1e-12):
        raise ResourceBudgetError(
            f"greedy selection covered {covered/total:.4f} of the mass; "
            f"cannot reach 1-eps={1-eps} (rho too small?)")

    masses = tuple(mu.ball_mass(Ball((cx, cy), r)) for cx, cy, r in selected)
    segments = []
    for (cx, cy, r), m in zip(selected, masses):
        half = r / 2
        segments.append(WeightedSegment(
            RationalPoint(cx - half, cy), RationalPoint(cx + half, cy),
            m / (2 * half)))
    family = DoublingBallFamily(tuple(selected), masses, lam, c_star,
                                rho, eps)
    return SegmentMeasure(segments), family


def maximal_function(mu: AnyMeasure, x, grid: ScaleGrid, n: int = 1) -> float:
    """Grid-restricted maximal function ``max_r mu(B(x,r)) / r^n``."""
    radii = grid.radii()
    masses = mu.ball_masses(float(x[0]), float(x[1]), radii)
    best = 0.0
    for r, m in zip(radii, masses):
        best = max(best, float(m) / r ** n)
    return best


def restricted_maximal_comparison(
        mu: AtomicMeasure, family: DoublingBallFamily,
        mu_tilde: SegmentMeasure, r_max: float,
        lam_grid: float = 2.0 ** -0.25) -> Tuple[float, float, float]:
    """Numerical check of the maximal-function transfer: integrating the
    (scale-restricted, coverage-restricted) maximal function of the
    original measure over the covered set is controlled by the integral of
    the maximal function of the ball approximation against itself.

    The scale restriction is ``r > rho``; returns ``(lhs, rhs, lhs/rhs)``.
    """
    rho = float(family.rho)
    grid = ScaleGrid(rho * 1.0001, max(r_max, rho * 4.0), lam_grid)

    ax = np.array([float(c[0]) for c in family.balls])
    ay = np.array([float(c[1]) for c in family.balls])
    ar = np.array([float(c[2]) for c in family.balls])
    xs, ys, ms = mu.float_arrays()
    covered_mask = np.zeros(len(xs), dtype=bool)
    for cx, cy, r in zip(ax, ay, ar):
        covered_mask |= (xs - cx) ** 2 + (ys - cy) ** 2 <= r * r
    covered = AtomicMeasure(
        [a for a, keep in zip(mu.atoms, covered_mask) if keep and a[2] > 0])

    lhs = 0.0
    for x, y, m in covered.atoms:
        lhs += float(m) * maximal_function(covered, (x, y), grid)

    rhs = 0.0
    for seg, m in zip(mu_tilde.segments, family.masses):
        # 3-point rule on the disk segment, weighted by its exact mass
        quarter = seg.length / 4
        vals = [maximal_function(mu_tilde, (seg.left.x + quarter * i, seg.y),
                                 grid) for i in (1, 2, 3)]
        rhs += float(m) * sum(vals) / 3.0
    ratio = lhs / rhs if rhs > 0 else math.inf
    return lhs, rhs, ratio
