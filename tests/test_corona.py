"""Net lattice, corona decomposition, packing and maximal bounds."""

import json
import math
import random
from fractions import Fraction as F

import pytest

from betacantor import (AtomicMeasure, ScaleGrid, atomize,
                        build_lattice, corona_decompose, generate,
                        maximal_function, maximal_via_corona, packing_report,
                        schedule_tame)


def random_cloud(rng, n, mass_hi=2.0):
    return AtomicMeasure([(rng.uniform(0, 1), rng.uniform(0, 1),
                           rng.uniform(0.1, mass_hi)) for _ in range(n)])


def uniform_line(n=100):
    return AtomicMeasure([(F(i, n - 1), 0, 1) for i in range(n)])


class TestLattice:
    def test_single_atom(self):
        lat = build_lattice(AtomicMeasure([(F(1, 3), F(1, 7), 2)]), depth=3)
        assert all(len(level) == 1 for level in lat.levels)
        for level in lat.levels:
            assert level[0].members == frozenset({0})

    def test_two_atoms_scale_separation(self):
        d = 0.3
        mu = AtomicMeasure([(0, 0, 1), (F(d), 0, 1)])
        lat = build_lattice(mu, a0=50.0, depth=2)
        # coarse: one cube holds both; fine: the atoms split
        assert len(lat.levels[0]) == 1
        assert len(lat.levels[-1]) == 2

    def test_invariants_on_random_clouds(self):
        rng = random.Random(71)
        for n in (20, 50):
            lat = build_lattice(random_cloud(rng, n), depth=3)
            lat.assert_invariants()  # idempotent re-check
            sizes = [len(level) for level in lat.levels]
            assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    def test_atomized_generation_invariants(self):
        mu = generate(schedule_tame(2), 2)
        atoms = atomize(mu, F(1, 4000))
        lat = build_lattice(atoms, depth=2)
        lat.assert_invariants()

    def test_small_net_ratio_rejected(self):
        with pytest.raises(ValueError):
            build_lattice(uniform_line(10), a0=20.0)


class TestCorona:
    def test_uniform_atoms_single_root(self):
        lat = build_lattice(uniform_line(), a0=50.0, depth=1)
        tree = corona_decompose(lat, 2.0)
        assert len(tree.roots) == 1
        assert tree.roots[0].cube_id == lat.root.cube_id

    def test_heavy_spike_stops(self):
        atoms = [(F(i, 99), F(0), F(1)) for i in range(100)]
        atoms.append((F(501, 1000), F(1, 997), F(10 ** 6)))
        lat = build_lattice(AtomicMeasure(atoms), depth=2)
        tree = corona_decompose(lat, 2.0)
        assert len(tree.roots) > 1

    def test_huge_threshold_single_root(self):
        rng = random.Random(83)
        lat = build_lattice(random_cloud(rng, 60), depth=3)
        tree = corona_decompose(lat, 1e18)
        assert len(tree.roots) == 1

    def test_partition_into_trees(self):
        rng = random.Random(5)
        lat = build_lattice(random_cloud(rng, 80), depth=3)
        tree = corona_decompose(lat, 2.0)
        seen = set(tree.tree_of)
        assert seen == {q.cube_id for q in lat.cubes}
        # every cube's assigned root is a declared root
        root_ids = {r.cube_id for r in tree.roots}
        assert set(tree.tree_of.values()) <= root_ids

    def test_density_control_inside_trees(self):
        # the stopping rule enforces the density bound tree by tree
        rng = random.Random(9)
        lat = build_lattice(random_cloud(rng, 100), depth=3)
        c_thr = 2.0
        tree = corona_decompose(lat, c_thr)
        for q in lat.cubes:
            rid = tree.tree_of[q.cube_id]
            if q.cube_id == rid:
                continue
            assert tree.theta2b[q.cube_id] <= \
                c_thr * tree.theta2b[rid] * (1 + 1e-12)

    def test_root_mass_ratio_finite(self):
        rng = random.Random(15)
        lat = build_lattice(random_cloud(rng, 60), depth=2)
        tree = corona_decompose(lat, 2.0)
        assert 0 < tree.root_mass_ratio() < 1e3

    def test_deepest_level_density_surrogate(self):
        # finite-depth stand-in for "arbitrarily small cubes with comparable
        # density": some deepest cube of the root's tree stays within a
        # factor 2 of the root density
        lat = build_lattice(uniform_line(), a0=50.0, depth=1)
        tree = corona_decompose(lat, 2.0)
        root = tree.roots[0]
        deepest = [q for q in lat.levels[-1]
                   if tree.tree_of[q.cube_id] == root.cube_id]
        assert deepest
        theta_r = tree.theta2b[root.cube_id]
        best = max(tree.theta2b[q.cube_id] for q in deepest)
        assert theta_r / 2 <= best <= 2 * theta_r * (1 + 1e-9)

    def test_json_export_roundtrips(self):
        rng = random.Random(25)
        lat = build_lattice(random_cloud(rng, 30), depth=2)
        tree = corona_decompose(lat, 2.0)
        blob = json.dumps(tree.to_json_dict())
        parsed = json.loads(blob)
        assert parsed["c_thr"] == 2.0
        assert len(parsed["roots"]) == len(tree.roots)


class TestPacking:
    def test_collinear_uniform_atoms(self):
        lat = build_lattice(uniform_line(), a0=50.0, depth=1)
        tree = corona_decompose(lat, 2.0)
        rep = packing_report(tree, ScaleGrid(1e-2, 2.0))
        assert rep.rhs_beta <= 1e-10  # collinear: square functions vanish
        assert rep.lhs <= 3.0 * rep.rhs_mass

    def test_single_term_sum_when_no_stops(self):
        lat = build_lattice(uniform_line(), a0=50.0, depth=1)
        tree = corona_decompose(lat, 1e18)
        rep = packing_report(tree, ScaleGrid(1e-2, 2.0))
        root = tree.roots[0]
        expected = tree.theta2b[root.cube_id] * tree.mass_of(root)
        assert rep.lhs == pytest.approx(expected, rel=1e-12)

    def test_ratio_finite_on_random_cloud(self):
        rng = random.Random(99)
        lat = build_lattice(random_cloud(rng, 80), depth=2)
        tree = corona_decompose(lat, 2.0)
        rep = packing_report(tree, ScaleGrid(5e-3, 2.0))
        assert 0 < rep.ratio < math.inf

    def test_empty_sample_rejected(self):
        tree = corona_decompose(build_lattice(uniform_line(), depth=1), 2.0)
        for bad in (0, -1):
            with pytest.raises(ValueError):
                packing_report(tree, ScaleGrid(1e-2, 2.0), beta_sample=bad)

    def test_scale_invariance_at_net_ratio(self):
        # rescaling support and masses by a net-ratio power shifts every
        # lattice level by one, leaving the packing sides proportional
        rng = random.Random(101)
        cloud = [(rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0.5, 2))
                 for _ in range(50)]
        mu = AtomicMeasure(cloud)
        s = 50.0
        scaled = AtomicMeasure([(x * s, y * s, m * s)
                                for x, y, m in cloud])
        lat1 = build_lattice(mu, a0=s, depth=2)
        lat2 = build_lattice(scaled, a0=s, depth=2)
        t1 = corona_decompose(lat1, 2.0)
        t2 = corona_decompose(lat2, 2.0)
        r1 = packing_report(t1, ScaleGrid(1e-2, 2.0))
        r2 = packing_report(t2, ScaleGrid(1e-2 * s, 2.0 * s))
        assert r2.lhs == pytest.approx(s * r1.lhs, rel=1e-6)
        assert r2.rhs_beta == pytest.approx(s * r1.rhs_beta, rel=1e-6)
        assert r2.ratio == pytest.approx(r1.ratio, rel=1e-6)


class TestMaximalViaCorona:
    def test_single_root_uniform_bound(self):
        lat = build_lattice(uniform_line(), a0=50.0, depth=1)
        tree = corona_decompose(lat, 1e18)
        bounds = maximal_via_corona(tree)
        theta_root = tree.theta2b[tree.roots[0].cube_id]
        assert all(b == pytest.approx(theta_root) for b in bounds.values())

    def test_spike_bound_localizes(self):
        atoms = [(F(i, 99), F(0), F(1)) for i in range(100)]
        atoms.append((F(501, 1000), F(1, 997), F(10 ** 4)))
        mu = AtomicMeasure(atoms)
        lat = build_lattice(mu, depth=2)
        tree = corona_decompose(lat, 2.0)
        bounds = maximal_via_corona(tree)
        spike = bounds[100]
        far = bounds[0]
        # the far atom keeps the root-level term (the spike mass is visible
        # at coarse scales from everywhere); the spike's own bound is still
        # far larger
        assert spike > 5 * far

    def test_direct_maximal_dominated(self):
        rng = random.Random(7)
        worst = 0.0
        for _ in range(20):
            mu = random_cloud(rng, rng.randrange(20, 60))
            lat = build_lattice(mu, depth=2)
            tree = corona_decompose(lat, 2.0)
            bounds = maximal_via_corona(tree)
            xs, ys, ms = mu.float_arrays()
            grid = ScaleGrid(1e-3, 4.0)
            for i in range(len(mu)):
                direct = maximal_function(mu, (xs[i], ys[i]), grid)
                worst = max(worst, direct / bounds[i])
        # geometric slack: a few net ratios times the stopping threshold
        assert worst <= 4 * 50.0 * 2.0
