"""A hierarchical net lattice of "cubes" over finite atomic measures, a
stopping-time (corona) decomposition of the lattice into density-controlled
trees, and the packing diagnostics tying the tree-root densities to mass
plus the multiscale square function.

The lattice realizes the standard contract: per level ``k`` a family of
cubes partitioning the support, nested across levels, where each cube ``Q``
has a ball ``B(Q) = B(z_Q, A0^-k)`` with

    support ∩ B(Q)  ⊆  Q  ⊆  support ∩ 28 B(Q),

and the balls ``5 B(Q)`` of one level pairwise disjoint.  Construction is a
greedy net per level (largest mass first) with child cubes reassigned
wholesale to the nearest coarser center, which makes the four invariants
hold by construction; they are asserted at build time regardless.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .beta import ScaleGrid, square_function
from .errors import InvariantViolationError
from .measures import AtomicMeasure

#: smallest admissible net ratio: 28B containment plus 5B disjointness
#: leave slack from scale 30 upward
MIN_A0 = 30.0

#: a cube's density ball is its containment ball 28 B(Q), doubled
DENSITY_DILATION = 2 * 28.0


@dataclass
class LatticeCube:
    """One cube: a net center, its ball radius ``A0^-level``, and the atom
    indices it owns at that level."""

    level: int
    center: Tuple[float, float]
    radius: float
    members: frozenset
    parent: Optional[int] = None     # cube id one level up
    children: Tuple[int, ...] = ()
    cube_id: int = -1


class Lattice:
    """Hierarchy of cubes over an atomic measure; see the module docstring
    for the contract."""

    def __init__(self, mu: AtomicMeasure, a0: float, k0: int,
                 levels: List[List[LatticeCube]]):
        self.mu = mu
        self.a0 = a0
        self.k0 = k0
        self.levels = levels
        self.cubes: List[LatticeCube] = [q for lvl in levels for q in lvl]
        self.by_id = {q.cube_id: q for q in self.cubes}

    @property
    def root(self) -> LatticeCube:
        return self.levels[0][0]

    def assert_invariants(self) -> None:
        """Partition, nesting, ball containment and 5B-disjointness; raises
        ``InvariantViolationError`` on any failure."""
        xs, ys, _ = self.mu.float_arrays
        all_idx = frozenset(range(len(self.mu)))
        for lvl in self.levels:
            seen: set = set()
            for q in lvl:
                if seen & q.members:
                    raise InvariantViolationError("level member sets overlap")
                seen |= q.members
                if not q.members:
                    raise InvariantViolationError("empty cube")
            if seen != all_idx:
                raise InvariantViolationError("level does not cover support")
        for lvl in self.levels[1:]:
            for q in lvl:
                parent = self.by_id[q.parent]
                if not q.members <= parent.members:
                    raise InvariantViolationError("nesting violated")
        for lvl in self.levels:
            for q in lvl:
                cx, cy = q.center
                d = np.hypot(xs - cx, ys - cy)
                inside = set(np.nonzero(d <= q.radius)[0].tolist())
                if not inside <= q.members:
                    raise InvariantViolationError(
                        "ball B(Q) contains non-members")
                mem = np.array(sorted(q.members))
                if (d[mem] > 28.0 * q.radius).any():
                    raise InvariantViolationError(
                        "member escapes 28 B(Q)")
            for i in range(len(lvl)):
                for j in range(i + 1, len(lvl)):
                    ci, cj = lvl[i], lvl[j]
                    dist = math.hypot(ci.center[0] - cj.center[0],
                                      ci.center[1] - cj.center[1])
                    if dist <= 5.0 * ci.radius + 5.0 * cj.radius:
                        raise InvariantViolationError(
                            "5B balls intersect at one level")


def _greedy_net(xs: np.ndarray, ys: np.ndarray, ms: np.ndarray,
                spacing: float) -> List[int]:
    """Maximal net: atoms in decreasing-mass order (ties lexicographic),
    accepted when strictly farther than ``spacing`` from all accepted.
    Each accepted atom marks the atoms it covers in one vectorized pass."""
    covered = np.zeros(len(xs), dtype=bool)
    accepted: List[int] = []
    for i in np.lexsort((ys, xs, -ms)).tolist():
        if covered[i]:
            continue
        accepted.append(i)
        covered |= (xs[i] - xs) ** 2 + (ys[i] - ys) ** 2 <= spacing * spacing
    return accepted


def _nearest(cx: np.ndarray, cy: np.ndarray, px: np.ndarray,
             py: np.ndarray) -> np.ndarray:
    """Index of the nearest center ``(cx, cy)`` to each point ``(px, py)``,
    the first one on ties: a running minimum over the centers, so no
    centers-by-points matrix is built."""
    best = np.zeros(len(px), dtype=int)
    best_d2 = np.full(len(px), np.inf)
    for j in range(len(cx)):
        d2 = (cx[j] - px) ** 2 + (cy[j] - py) ** 2
        closer = d2 < best_d2
        best[closer] = j
        best_d2[closer] = d2[closer]
    return best


def build_lattice(mu: AtomicMeasure, a0: float = 50.0,
                  depth: int = 3) -> Lattice:
    """Construct the lattice: per level a greedy mass-ordered net with
    spacing ``10 A0^-k``, atoms assigned to the nearest finest-level
    center, then whole child cubes rolled up to the nearest coarser center
    (never splitting a child).

    The top level is anchored so a single cube holds the whole support.
    """
    if a0 < MIN_A0:
        raise ValueError(f"a0 must be at least {MIN_A0} for the containment "
                         "and disjointness constraints")
    if len(mu) == 0:
        raise ValueError("empty atom set")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    xs, ys, ms = mu.float_arrays
    diam = mu.diameter()
    if diam == 0.0:
        k0 = 0
    else:
        # largest k with 10 * a0^-k >= diam: a single net point fits
        k0 = math.floor(math.log(10.0 / diam) / math.log(a0))
        while 10.0 * a0 ** (-k0) < diam:
            k0 -= 1

    level_params = [(k0 + d, a0 ** (-(k0 + d))) for d in range(depth + 1)]
    nets = [_greedy_net(xs, ys, ms, 10.0 * r) for _, r in level_params]
    if len(nets[0]) != 1:
        raise InvariantViolationError("top level must hold a single net point")

    # finest level: nearest-center assignment of atoms
    fine_centers = nets[-1]
    owner = _nearest(xs[fine_centers], ys[fine_centers], xs, ys)

    next_id = 0
    levels: List[List[LatticeCube]] = []
    fine_cubes: List[LatticeCube] = []
    for j, c in enumerate(fine_centers):
        cube = LatticeCube(level_params[-1][0], (float(xs[c]), float(ys[c])),
                           level_params[-1][1],
                           frozenset(np.flatnonzero(owner == j).tolist()),
                           cube_id=next_id)
        next_id += 1
        fine_cubes.append(cube)
    levels.append(fine_cubes)

    # roll child cubes up to the nearest coarser center
    for d in range(depth - 1, -1, -1):
        _, r = level_params[d]
        centers = nets[d]
        groups: Dict[int, List[LatticeCube]] = {c: [] for c in centers}
        owner = _nearest(xs[centers], ys[centers],
                         np.array([ch.center[0] for ch in levels[-1]]),
                         np.array([ch.center[1] for ch in levels[-1]]))
        for child, j in zip(levels[-1], owner.tolist()):
            groups[centers[j]].append(child)
        row: List[LatticeCube] = []
        for c in centers:
            members = frozenset().union(*(ch.members for ch in groups[c])) \
                if groups[c] else frozenset()
            cube = LatticeCube(level_params[d][0],
                               (float(xs[c]), float(ys[c])), r, members,
                               children=tuple(ch.cube_id for ch in groups[c]),
                               cube_id=next_id)
            next_id += 1
            for ch in groups[c]:
                ch.parent = cube.cube_id
            row.append(cube)
        levels.append(row)

    levels.reverse()
    lattice = Lattice(mu, a0, k0, levels)
    lattice.assert_invariants()
    return lattice


# ---------------------------------------------------------------------------
# corona decomposition
# ---------------------------------------------------------------------------

@dataclass
class CoronaTree:
    """Stopping-time partition of the lattice into trees with density
    control relative to each tree's root."""

    lattice: Lattice
    c_thr: float
    roots: List[LatticeCube] = field(default_factory=list)
    tree_of: Dict[int, int] = field(default_factory=dict)  # cube id -> root id
    theta2b: Dict[int, float] = field(default_factory=dict)

    def mass_of(self, cube: LatticeCube) -> float:
        _, _, ms = self.lattice.mu.float_arrays
        return float(ms[sorted(cube.members)].sum())

    def root_mass_ratio(self) -> float:
        """Empirical constant in ``mu(2 B_R) <= C mu(R)`` over roots."""
        worst = 0.0
        for root in self.roots:
            m2b = float(self.lattice.mu.ball_masses(
                root.center[0], root.center[1],
                [DENSITY_DILATION * root.radius])[0])
            worst = max(worst, m2b / max(self.mass_of(root), 1e-300))
        return worst

    def to_json_dict(self) -> dict:
        return {
            "c_thr": self.c_thr,
            "a0": self.lattice.a0,
            "roots": [
                {
                    "cube_id": r.cube_id,
                    "level": r.level,
                    "center": list(r.center),
                    "radius": r.radius,
                    "theta_2b": self.theta2b[r.cube_id],
                    "mass": self.mass_of(r),
                    "tree_size": sum(1 for q in self.lattice.cubes
                                     if self.tree_of[q.cube_id] == r.cube_id),
                }
                for r in self.roots
            ],
        }


def corona_decompose(lattice: Lattice, c_thr: float = 2.0) -> CoronaTree:
    """Depth-first stopping-time decomposition: a cube opens a new tree
    when its doubled-ball density exceeds ``c_thr`` times its current
    root's; the whole-support cube is always a root.

    Densities are ``mu(B(z_Q, r)) / r`` at ``r = DENSITY_DILATION r(Q)``,
    the radius clipped at the support saturation radius of the center (the
    smallest radius capturing all mass): beyond saturation a ball gains no
    mass while the normalization keeps growing, which would artificially
    deflate every coarse-scale density and trigger spurious stops.
    """
    if c_thr <= 1:
        raise ValueError("c_thr must exceed 1")
    mu = lattice.mu
    tree = CoronaTree(lattice, c_thr)
    xs, ys, _ = mu.float_arrays

    total = float(mu.total_mass)

    def theta(q: LatticeCube) -> float:
        r2 = DENSITY_DILATION * q.radius
        r_supp = float(np.hypot(xs - q.center[0], ys - q.center[1]).max())
        if r_supp > 0 and r_supp <= r2:
            return total / r_supp  # saturated: the ball holds everything
        return float(mu.ball_masses(q.center[0], q.center[1], [r2])[0]) / r2

    for q in lattice.cubes:
        tree.theta2b[q.cube_id] = theta(q)

    root = lattice.root
    tree.roots.append(root)
    tree.tree_of[root.cube_id] = root.cube_id
    stack: List[Tuple[int, int]] = [(child, root.cube_id)
                                    for child in root.children]
    while stack:
        qid, rid = stack.pop()
        q = lattice.by_id[qid]
        if tree.theta2b[qid] > c_thr * tree.theta2b[rid]:
            tree.roots.append(q)
            rid = qid
        tree.tree_of[qid] = rid
        stack.extend((child, rid) for child in q.children)

    # property: every cube in exactly one tree
    if set(tree.tree_of) != {q.cube_id for q in lattice.cubes}:
        raise InvariantViolationError("corona trees do not cover the lattice")
    return tree


@dataclass(frozen=True)
class PackingReport:
    """The two sides of the packing bound and their ratio."""

    lhs: float
    rhs_mass: float
    rhs_beta: float
    c_star: float
    n_roots: int

    @property
    def ratio(self) -> float:
        return self.lhs / (self.rhs_mass + self.rhs_beta)


def packing_report(tree: CoronaTree, grid: ScaleGrid,
                   beta_sample: Optional[int] = None,
                   seed: int = 0) -> PackingReport:
    """Evaluate the packing bound: root densities times root masses on the
    left; observed growth constant times total mass, plus the mass-weighted
    square-function sum, on the right.

    ``beta_sample`` caps the number of atoms whose square function is
    evaluated (mass-weighted sampling with the given seed); the sum is then
    the unbiased estimate ``total_mass * mean(sampled square functions)``.
    A ``beta_sample`` below 1 raises ``ValueError``.
    """
    if beta_sample is not None and beta_sample < 1:
        raise ValueError("beta_sample must be positive")
    lattice = tree.lattice
    mu = lattice.mu
    lhs = sum(tree.theta2b[r.cube_id] * tree.mass_of(r) for r in tree.roots)

    c_star = 0.0
    for q in lattice.cubes:
        if q.level == lattice.k0:
            continue  # top scale anchors r0; growth observed below it
        m = float(mu.ball_masses(q.center[0], q.center[1], [q.radius])[0])
        c_star = max(c_star, m / q.radius)
    total = float(mu.total_mass)
    rhs_mass = c_star * total

    xs, ys, ms = mu.float_arrays
    n = len(xs)
    if beta_sample is None or beta_sample >= n:
        rhs_beta = 0.0
        for i in range(n):
            rhs_beta += ms[i] * square_function(
                mu, (xs[i], ys[i]), 2.0, grid)[0]
    else:
        rng = random.Random(seed)
        probs = ms / ms.sum()
        cum = np.cumsum(probs)
        acc = 0.0
        for _ in range(beta_sample):
            i = int(np.searchsorted(cum, rng.random()))
            i = min(i, n - 1)
            acc += square_function(mu, (xs[i], ys[i]), 2.0, grid)[0]
        rhs_beta = total * acc / beta_sample
    return PackingReport(lhs, rhs_mass, rhs_beta, c_star, len(tree.roots))
