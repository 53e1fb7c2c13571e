"""Density diagnostics: profiles, the low-density witness, doubling radii,
the ball-approximation measure, and maximal-function comparisons."""

import random
from fractions import Fraction as F

import pytest

import betacantor as bc
from betacantor import (AtomicMeasure, Ball, CantorMeasure, RationalPoint,
                        ScaleGrid, SegmentMeasure, WeightedSegment,
                        build_mu_tilde, density_profile, doubling_descent,
                        doubling_scales, maximal_function,
                        restricted_maximal_comparison, sample_address,
                        schedule_tame, unrectifiability_witness)
from betacantor.errors import ResourceBudgetError

LONG_LINE = SegmentMeasure([WeightedSegment(RationalPoint(-8, 0),
                                            RationalPoint(8, 0), 1)])


class TestDensityProfile:
    def test_interior_point_ratio_one(self):
        prof = density_profile(LONG_LINE, (0, 0), ScaleGrid(0.01, 1.0))
        assert all(r == pytest.approx(1.0, rel=1e-12)
                   for r in prof.ratios())

    def test_endpoint_ratio_half(self):
        prof = density_profile(LONG_LINE, (8, 0), ScaleGrid(0.01, 1.0))
        assert all(r == pytest.approx(0.5, rel=1e-12)
                   for r in prof.ratios())

    def test_atom_ratio_diverges(self):
        mu = AtomicMeasure([(0, 0, 1)])
        prof = density_profile(mu, (0, 0), ScaleGrid(0.01, 1.0))
        ratios = prof.ratios()
        assert ratios == [pytest.approx(1 / (2 * r))
                          for r, _ in prof.samples]
        assert ratios[-1] > ratios[0]


class TestWitness:
    def test_up_passage_ratio_tracks_a(self):
        sched = schedule_tame(3)
        rng = random.Random(12)
        for k in (1, 2):
            pa = sample_address(sched, 3, rng, force_branch={k: bc.UP})
            (kk, ratio), = unrectifiability_witness(sched, pa, [k])
            assert kk == k
            assert ratio <= 3.0 * float(sched.a_of(k))

    def test_all_down_rejected(self):
        sched = schedule_tame(2)
        rng = random.Random(13)
        pa = sample_address(sched, 2, rng,
                            force_branch={1: bc.DOWN, 2: bc.DOWN})
        with pytest.raises(ValueError):
            unrectifiability_witness(sched, pa, [1])


class TestDoubling:
    def test_full_line_every_radius_qualifies(self):
        # mu(B(x, lam r)) = lam mu(B(x,r)) exactly on a line, and the
        # growth bound 2r <= 10 c* lam r holds once c* >= 1/(5 lam)
        lam = 4.0
        grid = ScaleGrid(0.01, 1.0)
        got = doubling_scales(LONG_LINE, (0, 0), lam, 1.0, grid)
        assert len(got) == len(grid.radii())
        # and fails for c* far below the threshold
        got_small = doubling_scales(LONG_LINE, (0, 0), lam, 0.01, grid)
        assert got_small == []

    def test_atom_density_threshold(self):
        # single atom of mass m: doubling always holds, the growth test
        # needs r >= m/(10 c* lam)
        m, lam, c_star = 2.0, 4.0, 1.0
        mu = AtomicMeasure([(0, 0, F(m))])
        grid = ScaleGrid(1e-3, 1.0)
        got = doubling_scales(mu, (0, 0), lam, c_star, grid)
        threshold = m / (10 * c_star * lam)
        assert got
        assert min(got) >= threshold * (1 - 1e-9)
        missing = [r for r in grid.radii() if r < threshold * (1 - 1e-9)]
        assert all(r not in got for r in missing)

    def test_descent_contract(self):
        # start at a low-density scale and walk down until the ratio first
        # reaches 3 c*; the produced radius satisfies both output bounds
        mu = AtomicMeasure([(F(i, 200), 0, F(1, 200)) for i in range(201)])
        lam, c_star = 4.0, 0.55
        x = (F(1, 2), 0)
        r = doubling_descent(mu, x, 4.0, lam, c_star)
        assert r is not None
        m_r, m_lr = mu.ball_masses(0.5, 0.0, [r, lam * r])
        assert m_lr <= lam * m_r * (1 + 1e-12)
        assert m_r <= 3 * c_star * lam * r * (1 + 1e-12)

    def test_descent_requires_low_density_start(self):
        with pytest.raises(ValueError):
            doubling_descent(LONG_LINE, (0, 0), 1.0, 4.0, 0.01)

    def test_dilation_factor_validated(self):
        with pytest.raises(ValueError):
            doubling_scales(LONG_LINE, (0, 0), 2.0, 1.0, ScaleGrid(0.1, 1.0))

    def test_nan_dilation_factor_rejected(self):
        nan = float("nan")
        for call in (
                lambda: doubling_scales(LONG_LINE, (0, 0), nan, 1.0,
                                        ScaleGrid(0.1, 1.0)),
                lambda: doubling_descent(LONG_LINE, (0, 0), 1.0, nan, 0.01),
                lambda: build_mu_tilde(LONG_LINE, nan, F(1, 8), 0.1,
                                       c_star=2.0)):
            with pytest.raises(ValueError, match="dilation factor"):
                call()


class TestMuTilde:
    def test_per_ball_mass_equality_exact(self):
        mu = AtomicMeasure([(F(i, 20), 0, F(1, 21)) for i in range(21)])
        mt, fam = build_mu_tilde(mu, 100.0, F(1, 8), 0.1, c_star=2.0)
        assert len(fam) > 0
        for seg, m in zip(mt.segments, fam.masses):
            assert seg.mass == m  # exact rational equality

    def test_selected_balls_pass_doubling_exactly(self):
        mu = AtomicMeasure([(F(i, 20), 0, F(1, 21)) for i in range(21)])
        lam = 100
        mt, fam = build_mu_tilde(mu, float(lam), F(1, 8), 0.1, c_star=2.0)
        for (cx, cy, r), m in zip(fam.balls, fam.masses):
            assert mu.ball_mass(Ball((cx, cy), r)) == m
            m_lam = mu.ball_mass(Ball((cx, cy), r * lam))
            assert m_lam <= 2 * lam ** 2 * m
            assert m <= 10 * 2 * lam * r  # c_star = 2, n = 1

    def test_disjoint_and_covering(self):
        rng = random.Random(31)
        mu = AtomicMeasure([(F(rng.randrange(0, 200), 200),
                             F(rng.randrange(0, 10), 100),
                             F(rng.randrange(1, 5), 4)) for _ in range(60)])
        eps = 0.25
        mt, fam = build_mu_tilde(mu, 50.0, F(1, 4), eps, c_star=3.0)
        assert fam.check_disjoint()
        assert fam.covered_mass >= (1 - F(eps).limit_denominator()) * \
            mu.total_mass * F(99, 100)

    def test_single_segment_input_collinear_output(self):
        mu = SegmentMeasure([WeightedSegment(RationalPoint(0, F(1, 3)),
                                             RationalPoint(1, F(1, 3)), 1)])
        rho = F(1, 16)
        mt, fam = build_mu_tilde(mu, 10.0, rho, 0.2, c_star=1.0)
        assert len(mt.segments) >= 2
        assert all(seg.y == F(1, 3) for seg in mt.segments)
        # above the selection scale the approximation is flat
        for r in (0.25, 0.5):
            assert bc.beta(mt, (F(1, 2), F(1, 3)), F(r), 2.0).value <= 1e-12

    def test_unreachable_coverage_errors(self):
        # far-apart heavy atoms with rho below the growth threshold: no
        # candidate ball passes, coverage is impossible
        mu = AtomicMeasure([(0, 0, 100), (10, 0, 100)])
        with pytest.raises(ResourceBudgetError):
            build_mu_tilde(mu, 10.0, F(1, 1000), 0.1, c_star=0.1)


class TestMaximal:
    def test_full_line_sup_is_two(self):
        got = maximal_function(LONG_LINE, (0, 0), ScaleGrid(0.01, 2.0))
        assert got == pytest.approx(2.0, rel=1e-12)

    def test_single_atom_forced_value(self):
        t = 0.25
        mu = AtomicMeasure([(F(t), 0, 1)])
        for r_lo in (0.1, 0.4):
            grid = ScaleGrid(r_lo, 4.0)
            got = maximal_function(mu, (0, 0), grid)
            # largest of m/r over grid radii >= t
            radii = [r for r in grid.radii() if r >= t]
            assert got == pytest.approx(1.0 / min(radii), rel=1e-9)

    def test_restriction_monotone(self):
        mu = AtomicMeasure([(F(i, 10), 0, 1) for i in range(11)])
        sub = AtomicMeasure(list(mu.atoms[:5]))
        grid = ScaleGrid(0.05, 2.0)
        assert maximal_function(sub, (F(1, 5), 0), grid) <= \
            maximal_function(mu, (F(1, 5), 0), grid) + 1e-12

    def test_grid_refinement_monotone(self):
        mu = AtomicMeasure([(F(i, 10), 0, 1) for i in range(11)])
        coarse = maximal_function(mu, (F(1, 5), 0), ScaleGrid(0.05, 2.0, 0.5))
        fine = maximal_function(mu, (F(1, 5), 0),
                                ScaleGrid(0.05, 2.0, 2.0 ** -0.25))
        assert fine >= coarse - 1e-12

    def test_restricted_comparison_bounded(self):
        rng = random.Random(53)
        for trial in range(3):
            mu = AtomicMeasure([(F(rng.randrange(0, 100), 100),
                                 F(rng.randrange(0, 5), 50),
                                 F(rng.randrange(1, 4), 3))
                                for _ in range(40)])
            mt, fam = build_mu_tilde(mu, 50.0, F(1, 4), 0.2, c_star=3.0)
            lhs, rhs, ratio = restricted_maximal_comparison(mu, fam, mt, 2.0)
            assert lhs > 0 and rhs > 0
            assert ratio < 10.0


class TestFaithfulCoverage:
    def test_doubling_scales_cover_sampled_points(self):
        # on a faithful generation, almost every sampled support point has
        # doubling radii on a fine grid: report the covered fraction
        sched = bc.schedule_thm11(2)
        mu = CantorMeasure(sched, 2)
        rng = random.Random(61)
        grid = ScaleGrid(1e-5, 0.25)
        covered = 0
        n_pts = 20
        for _ in range(n_pts):
            pa = sample_address(sched, 2, rng)
            pt = bc.point_of(pa, sched)
            if doubling_scales(mu, (pt.x, pt.y), 4.0, 1.0, grid):
                covered += 1
        assert covered / n_pts > 0.9

    def test_square_function_transfer_to_approximation(self):
        # the approximation's square function at its support is controlled
        # by the original's at 20x the scale (plus a bounded correction);
        # the empirical constant is the quantity of interest
        rng = random.Random(67)
        mu = AtomicMeasure([(F(rng.randrange(0, 120), 120),
                             F(rng.randrange(0, 6), 60),
                             F(rng.randrange(1, 4), 3)) for _ in range(50)])
        mt, fam = build_mu_tilde(mu, 50.0, F(1, 4), 0.2, c_star=3.0)
        worst = 0.0
        for seg, (cx, cy, r) in zip(mt.segments, fam.balls):
            x_t = ((seg.left.x + seg.right.x) / 2, seg.y)
            grid = ScaleGrid(float(fam.rho) / 4, 2.0)
            lhs = bc.square_function(mt, x_t, 2.0, grid)[0]
            grid20 = ScaleGrid(float(fam.rho) * 5, 40.0)
            rhs = bc.square_function(mu, (cx, cy), 2.0, grid20)[0]
            worst = max(worst, lhs / (rhs + 1.0))
        assert worst < 50.0
