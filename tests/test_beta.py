"""Best-line coefficients: closed-form oracle agreement, brute-force
dominance, normalization identities, scaling and construction estimates."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

import betacantor as bc
from betacantor import (AtomicMeasure, CantorMeasure, EmptyBallError,
                        RationalPoint, ScaleGrid, SegmentMeasure,
                        WeightedSegment, beta, beta_both, beta_both_points,
                        increment_scales, point_of, sample_address,
                        schedule_tame, schedule_thm11, square_function,
                        sum_squares)
from betacantor.beta import (C_BISECT_COARSE, C_BISECT_ITERS,
                             COARSE_CHUNK_PIECES, PHI_GRID, _GOLDEN_STEPS,
                             _abs_pow, _best_lines, _coarse_chunks,
                             _golden_steps, _Pieces, _Projection,
                             best_line_p2_window, best_line_search_window,
                             build_window)
from betacantor.geometry import Line
from betacantor.measures import Window

FOUR_ATOMS = AtomicMeasure([(-1, 0, 1), (1, 0, 1), (-1, F(1, 5), 1),
                            (1, F(1, 5), 1)])


def random_atoms(rng, n, mass_lo=0.1, mass_hi=2.0):
    return AtomicMeasure([(rng.uniform(-1, 1), rng.uniform(-1, 1),
                           rng.uniform(mass_lo, mass_hi)) for _ in range(n)])


def random_segments(rng, n):
    segs = []
    for _ in range(n):
        x0 = rng.uniform(-1, 0.5)
        y = F(rng.uniform(-1, 1))
        segs.append(WeightedSegment(
            RationalPoint(F(x0), y),
            RationalPoint(F(x0 + rng.uniform(0.05, 1.0)), y),
            F(rng.uniform(0.2, 3))))
    return SegmentMeasure(segs)


class TestFourAtomExample:
    def test_radius_normalized(self):
        res = beta(FOUR_ATOMS, (0, F(1, 10)), 2, p=2)
        # best line y = 1/10 by symmetry; sum dist^2 = 4/100
        assert res.value == pytest.approx(math.sqrt(0.04 / (2 * 4)), abs=1e-12)
        assert res.line.phi == pytest.approx(math.pi / 2, abs=1e-9)
        assert res.line.c == pytest.approx(0.1, abs=1e-12)
        assert res.ball_mass == pytest.approx(4.0)

    def test_mass_normalized(self):
        res = beta(FOUR_ATOMS, (0, F(1, 10)), 2, p=2, variant="betaTilde")
        assert res.value == pytest.approx(0.05, abs=1e-12)

    def test_gridsearch_confirms_minimizer(self):
        # independent oracle: exhaustive grid over line parameters
        pts = np.array([[-1, 0], [1, 0], [-1, 0.2], [1, 0.2]])
        best = math.inf
        for phi in np.linspace(0, math.pi, 1201)[:-1]:
            u = pts @ np.array([math.cos(phi), math.sin(phi)])
            for c in np.linspace(u.min(), u.max(), 601):
                best = min(best, float(np.sum(np.abs(u - c) ** 2)))
        engine = beta(FOUR_ATOMS, (0, F(1, 10)), 2, p=2)
        assert engine.value ** 2 * (2 * 2 ** 2) == pytest.approx(best,
                                                                 rel=1e-4)


class TestNormalizations:
    def test_tilde_identity(self):
        # value_tilde^p * mu(B) / r = value^p at the shared minimizing line
        rng = random.Random(17)
        for _ in range(25):
            mu = random_atoms(rng, rng.randrange(3, 15))
            x = (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            r = rng.uniform(0.5, 2.0)
            p = rng.choice([1.0, 1.5, 2.0, 3.0])
            try:
                b = beta(mu, x, r, p)
                t = beta(mu, x, r, p, variant="betaTilde")
            except EmptyBallError:
                continue
            lhs = t.value ** p * b.ball_mass / r
            assert lhs == pytest.approx(b.value ** p, rel=1e-9, abs=1e-300)

    def test_both_variant_helper(self):
        b, t = beta_both(FOUR_ATOMS, (0, F(1, 10)), 2, p=2)
        assert b.value == pytest.approx(math.sqrt(0.005), abs=1e-12)
        assert t.value == pytest.approx(0.05, abs=1e-12)
        # one search serves both variants: same values as separate calls
        for p in (1.5, 2.0):
            b, t = beta_both(FOUR_ATOMS, (0, F(1, 10)), 2, p)
            assert b == beta(FOUR_ATOMS, (0, F(1, 10)), 2, p, "beta")
            assert t == beta(FOUR_ATOMS, (0, F(1, 10)), 2, p, "betaTilde")
        empty = AtomicMeasure([(10, 10, 1)])
        b, t = beta_both(empty, (0, 0), 1, p=2)
        assert b.value == beta(empty, (0, 0), 1, p=2).value == 0.0
        assert t is None

    def test_empty_ball(self):
        mu = AtomicMeasure([(10, 10, 1)])
        assert beta(mu, (0, 0), 1, p=2).value == 0.0
        with pytest.raises(EmptyBallError):
            beta(mu, (0, 0), 1, p=2, variant="betaTilde")

    def test_zero_measure_changes_nothing(self):
        base = list(FOUR_ATOMS.atoms)
        padded = AtomicMeasure(base + [(F(1, 3), F(1, 7), 0)])
        for p in (1.5, 2.0):
            assert beta(padded, (0, F(1, 10)), 2, p).value == \
                beta(FOUR_ATOMS, (0, F(1, 10)), 2, p).value

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            beta(FOUR_ATOMS, (0, 0), 1, p=0.7)

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_rejects_non_finite_p(self, p):
        with pytest.raises(ValueError, match="finite"):
            beta(FOUR_ATOMS, (0, 0), 1, p=p)
        with pytest.raises(ValueError, match="finite"):
            _best_lines([build_window(FOUR_ATOMS, (0, 0), 1)], p)


class TestCollinear:
    def test_horizontal_segments(self):
        mu = SegmentMeasure([
            WeightedSegment(RationalPoint(0, F(1, 3)),
                            RationalPoint(F(1, 4), F(1, 3)), 2),
            WeightedSegment(RationalPoint(F(1, 2), F(1, 3)),
                            RationalPoint(1, F(1, 3)), 1),
        ])
        for p in (1.0, 1.5, 2.0, 3.0):
            for variant in ("beta", "betaTilde"):
                assert beta(mu, (F(1, 2), F(1, 3)), 1, p,
                            variant).value <= 1e-12

    def test_slanted_atom_line(self):
        # exact rational points on y = (3/7)x - 2/5
        m, b0 = F(3, 7), F(-2, 5)
        mu = AtomicMeasure([(x, m * x + b0, 1)
                            for x in (F(-1, 2), F(1, 3), F(2, 3), F(9, 10))])
        res = beta(mu, (0, b0), 2, p=1.5)
        assert res.value <= 1e-12

    def test_vertical_atom_stack(self):
        mu = AtomicMeasure([(F(1, 3), F(i, 5), 1) for i in range(-2, 3)])
        assert beta(mu, (F(1, 3), 0), 1, p=2).value <= 1e-12


class TestBestLineP2:
    def test_symmetric_two_line_measure(self):
        h = F(1, 7)
        mu = SegmentMeasure([
            WeightedSegment(RationalPoint(-1, 0), RationalPoint(1, 0), 1),
            WeightedSegment(RationalPoint(-1, h), RationalPoint(1, h), 1),
        ])
        line = beta_both(mu, (0, h / 2), 3, 2.0)[0].line
        assert line.phi == pytest.approx(math.pi / 2, abs=1e-9)
        assert line.c == pytest.approx(float(h) / 2, abs=1e-12)

    def test_single_segment_returns_its_line(self):
        mu = SegmentMeasure([WeightedSegment(RationalPoint(0, F(2, 9)),
                                             RationalPoint(1, F(2, 9)), 1)])
        x, r = (F(1, 2), F(2, 9)), F(1, 4)
        line = beta_both(mu, x, r, 2.0)[0].line
        assert line.phi == pytest.approx(math.pi / 2, abs=1e-9)
        assert line.c == pytest.approx(2 / 9, abs=1e-12)
        # the closed form alone, without the collinear shortcut
        phi, c, obj = best_line_p2_window(build_window(mu, x, r))
        assert phi == pytest.approx(math.pi / 2, abs=1e-9)
        assert c == pytest.approx(0.0, abs=1e-12)
        assert obj == pytest.approx(0.0, abs=1e-12)

    def test_dominates_random_lines(self):
        rng = random.Random(23)
        for _ in range(10):
            mu = random_atoms(rng, 10)
            win = build_window(mu, (0, 0), 2.0)
            phi, c, obj = best_line_p2_window(win)
            xs, ys, ms = (win.s, win.y, win.m)
            for _ in range(10_000):
                lphi = rng.uniform(0, math.pi)
                lc = rng.uniform(-1.5, 1.5)
                cand = float(np.sum(
                    ms * np.abs(xs * math.cos(lphi) + ys * math.sin(lphi)
                                - lc) ** 2))
                assert obj <= cand + 1e-12


class TestBestLineSearch:
    def test_matches_p2_oracle(self):
        rng = random.Random(29)
        for _ in range(30):
            if rng.random() < 0.5:
                mu = random_atoms(rng, rng.randrange(3, 20))
            else:
                mu = random_segments(rng, rng.randrange(2, 10))
            win = build_window(mu, (0, 0), 2.0)
            if win.mass <= 0:
                continue
            _, _, oracle = best_line_p2_window(win)
            _, _, got, _ = best_line_search_window(win, 2.0)
            assert got == pytest.approx(oracle, rel=1e-6, abs=1e-12)

    def test_one_line_measure_gives_zero_for_every_p(self):
        mu = SegmentMeasure([WeightedSegment(RationalPoint(0, F(1, 5)),
                                             RationalPoint(1, F(1, 5)), 1)])
        for p in (1.0, 1.5, 2.0, 3.0):
            line = beta_both(mu, (F(1, 2), F(1, 5)), 1, p)[0].line
            assert line.distance(0.3, 0.2) <= 1e-12

    def test_heavy_light_two_lines_p3(self):
        # mass ratio 100:1 at p = 3: the best line hugs the heavy one;
        # oracle: brute-force grid over line parameters
        h = 0.05
        mu = SegmentMeasure([
            WeightedSegment(RationalPoint(-1, 0), RationalPoint(1, 0), 100),
            WeightedSegment(RationalPoint(-1, F(h)), RationalPoint(1, F(h)),
                            1),
        ])
        win = build_window(mu, (0, 0), 4.0)
        phi, c, obj, _ = best_line_search_window(win, 3.0)

        # brute force over (phi, c), 2000 x 2000
        phis = np.linspace(math.pi / 2 - 0.05, math.pi / 2 + 0.05, 2000)
        proj_best = math.inf
        from betacantor.beta import _Projection
        for chunk in np.array_split(phis, 40):
            prj = _Projection(win, chunk)
            cs = np.linspace(-0.01, float(h) / 4 + 0.01, 2000)
            for cc in np.array_split(cs, 50):
                vals = np.stack([prj.moment(np.full(len(chunk), c0), 3.0)
                                 for c0 in cc])
                proj_best = min(proj_best, float(vals.min()))
        assert obj <= proj_best + 1e-12
        # the engine's line sits within h/1000 of the heavy line (rescaled
        # offset times the window radius gives the geometric height)
        assert abs(c * 4.0) <= h / 3

    def test_p1_atoms_match_bruteforce(self):
        rng = random.Random(37)
        # the second cloud has equal masses on an even count, so the half
        # mass ties in every direction and the whole gap between the two
        # middle atoms is optimal
        for mu in (random_atoms(rng, 7), random_atoms(rng, 6, 1.0, 1.0)):
            win = build_window(mu, (0, 0), 2.0)
            _, _, got, _ = best_line_search_window(win, 1.0)
            best = math.inf
            xs, ys, ms = win.s, win.y, win.m
            for phi in np.linspace(0, math.pi, 1500)[:-1]:
                u = xs * math.cos(phi) + ys * math.sin(phi)
                for c in np.unique(u):  # the p=1 optimum sits at an atom
                    best = min(best, float(np.sum(ms * np.abs(u - c))))
            assert got <= best + 1e-9


def empty_balls(mu, x, p, grid):
    """The empty balls of the square function over ``grid``: the third
    element of its :func:`sum_squares` job."""
    return sum_squares([(mu, x, [(r, grid.log_weight)
                                 for r in grid.radii()])], p)[0][2]


def mixed_windows(rng):
    """Windows of several piece counts, some shared, mixing segments and
    atoms, plus an empty window, a horizontal segment row, slanted
    collinear atoms and, last, one window of more pieces than a coarse
    chunk holds; the empty window, the row and the slanted atoms pass the
    lines that carry them."""
    wins = []
    for n in (2, 2, 2, 3, 5, 5, 9, 9, 9, 9, 24, 61):
        s = np.array([rng.uniform(-0.8, 0.5) for _ in range(n)])
        length = np.array([rng.choice([0.0, rng.uniform(0.01, 0.4)])
                           for _ in range(n)])
        y = np.array([rng.uniform(-0.6, 0.6) for _ in range(n)])
        m = np.array([rng.uniform(0.05, 2.0) for _ in range(n)])
        wins.append(Window(s, s + length, y, m, None))
    wins.insert(3, Window([], [], [], [], Line.horizontal(0.0)))
    wins.insert(7, Window([-0.5, 0.1], [-0.2, 0.6], [0.25, 0.25], [1, 2],
                          Line.horizontal(0.25)))
    # y = 0.75 x - 0.1 has the unit normal (-0.6, 0.8) and offset -0.08
    xs = np.array([-0.6, -0.1, 0.2, 0.45])
    wins.insert(10, Window(xs, xs, 0.75 * xs - 0.1, [1.0, 0.5, 2.0, 1.0],
                           Line(math.atan2(0.8, -0.6), -0.08)))
    big = COARSE_CHUNK_PIECES + 37
    s = np.array([rng.uniform(-0.9, 0.6) for _ in range(big)])
    wins.append(Window(s, s + 0.05, [rng.uniform(-0.7, 0.7)
                                     for _ in range(big)],
                       [rng.uniform(0.05, 2.0) for _ in range(big)], None))
    return wins


def window_moments(win, phis, c, p):
    """Reference ``(moment, dmoment)`` of one window over ``(rows, n)``
    arrays, one direction and offset per row, each summed by
    ``ndarray.sum(axis=1)``: the one-window formulas of ``_Projection``."""
    cos, sin = np.cos(phis)[:, None], np.sin(phis)[:, None]
    u1 = win.s * cos + win.y * sin
    u2 = win.e * cos + win.y * sin
    ulo, uhi = np.minimum(u1, u2), np.maximum(u1, u2)
    mass = np.broadcast_to(win.m, ulo.shape)
    is_pt = uhi - ulo <= 1e-14
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.where(is_pt, 0.0, mass / np.where(is_pt, 1.0, uhi - ulo))
    c = c[:, None]
    vlo, vhi, w = ulo - c, uhi - c, 0.5 * (ulo + uhi) - c
    q = p + 1.0
    mom = (np.sign(vhi) * _abs_pow(vhi, q)
           - np.sign(vlo) * _abs_pow(vlo, q)) * (lam / q)
    mom = np.where(is_pt, mass * _abs_pow(w, p), mom)
    dmom = (_abs_pow(vlo, p) - _abs_pow(vhi, p)) * lam
    dmom = np.where(is_pt, (-p) * mass * np.sign(w) * _abs_pow(w, p - 1.0),
                    dmom)
    return mom.sum(axis=1), dmom.sum(axis=1)


class TestBatchedSearch:
    """Windows scored together by ``_best_lines`` get, bit for bit, the
    ``(objective, phi, c, iterations)`` each gets alone."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    def test_projection_rows_sum_as_one_window(self, p):
        # rows of many windows and piece counts, in no order, against the
        # projection of each window alone and the (rows, n) sums of each
        rng = random.Random(89)
        wins = [w for w in mixed_windows(rng) if len(w.m)]
        owner = np.repeat(np.arange(len(wins)), 7)
        np.random.default_rng(5).shuffle(owner)
        width = np.array([len(wins[k].m) for k in owner])
        assert len(set(width.tolist())) > 4
        assert np.any(np.diff(width) < 0) and np.any(np.diff(width) > 0)
        phis = np.array([rng.choice([rng.uniform(0, math.pi), math.pi / 2])
                         for _ in owner])
        c = np.array([rng.uniform(-1, 1) for _ in owner])
        prj = _Projection(_Pieces(wins).rows(owner), phis)
        got = prj.moment(c, p), prj.dmoment(c, p)
        for k, win in enumerate(wins):
            rows = owner == k
            alone = _Projection(win, phis[rows])
            assert got[0][rows].tolist() == \
                alone.moment(c[rows], p).tolist()
            assert got[1][rows].tolist() == \
                alone.dmoment(c[rows], p).tolist()
            want = window_moments(win, phis[rows], c[rows], p)
            assert got[0][rows].tolist() == want[0].tolist()
            assert got[1][rows].tolist() == want[1].tolist()
        # a pad is no point mass, so rows of segments skip the point path
        segments = [w for w in wins if np.all(w.e > w.s)]
        assert segments and not any(
            _Projection(w, np.array([0.3, 1.2])).any_pt for w in segments)

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    def test_mixed_batch_matches_one_window(self, p):
        # in no order by piece count: the big window fills a coarse chunk
        # alone, and other coarse chunks mix piece counts
        rng = random.Random(83)
        wins = mixed_windows(rng)
        rng.shuffle(wins)
        counts = np.array([len(w.m) for w in wins
                           if len(w.m) and w.line is None])
        chunks = [set(counts[a:b].tolist())
                  for a, b in _coarse_chunks(counts)]
        assert {COARSE_CHUNK_PIECES + 37} in chunks
        assert any(len(chunk) > 2 for chunk in chunks)
        got = _best_lines(iter(wins), p)
        assert got == [_best_lines([win], p)[0] for win in wins]
        searched = [res for res in got if res[3] > 0]
        # the empty window and the two collinear ones skip the search
        assert len(searched) == len(wins) - 3
        assert [res[0] for res in got if res[3] == 0] == [0.0] * 3
        # grid pass, then 1 to 5 brackets of golden steps plus a guard solve
        assert {(res[3] - PHI_GRID * C_BISECT_COARSE)
                % ((_GOLDEN_STEPS + 1) * C_BISECT_ITERS)
                for res in searched} == {0}

    def test_one_golden_count_serves_every_bracket(self):
        step = math.pi / PHI_GRID
        rng = random.Random(3)
        centers = ([i * step for i in range(-1, PHI_GRID + 1)]
                   + [rng.uniform(0, math.pi) for _ in range(2000)])
        assert {_golden_steps((c + step) - (c - step))
                for c in centers} == {_GOLDEN_STEPS}


class TestScaleInvariance:
    def test_similarity_rescale(self):
        rng = random.Random(41)
        for _ in range(10):
            mu = random_atoms(rng, 8)
            s = 10.0 ** rng.uniform(-3, 3)
            dx, dy = rng.uniform(-5, 5), rng.uniform(-5, 5)
            scaled = AtomicMeasure([(float(x) * s + dx, float(y) * s + dy,
                                     float(m) * s)
                                    for x, y, m in mu.atoms])
            x0 = (0.1, -0.2)
            r = 1.5
            p = rng.choice([1.5, 2.0, 3.0])
            v1 = beta(mu, x0, r, p).value
            v2 = beta(scaled, (x0[0] * s + dx, x0[1] * s + dy), r * s,
                      p).value
            assert v2 == pytest.approx(v1, rel=1e-9, abs=1e-12)


class TestHolderComparison:
    def test_p_monotonicity(self):
        rng = random.Random(43)
        pairs = [(1.0, 1.5), (1.5, 2.0), (2.0, 3.0), (1.0, 3.0)]
        for _ in range(15):
            mu = random_atoms(rng, 10)
            x = (rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
            r = rng.uniform(0.8, 1.5)
            for p, q in pairs:
                bp = beta(mu, x, r, p)
                bq = beta(mu, x, r, q)
                bound = (bp.ball_mass / r) ** (1 / p - 1 / q) * bq.value
                assert bp.value <= bound * (1 + 1e-6) + 1e-12


class TestConstructionScales:
    def test_zero_below_finest_step(self):
        sched = schedule_tame(2)
        mu = CantorMeasure(sched, 2)
        rng = random.Random(3)
        for _ in range(10):
            pa = sample_address(sched, 2, rng)
            pt = point_of(pa, sched)
            r = sched.h_of(2) * F(rng.randrange(1, 9), 8)
            for variant in ("beta", "betaTilde"):
                assert beta(mu, (pt.x, pt.y), r, 1.5,
                            variant).value <= 1e-12

    def test_two_line_window_estimate(self):
        # between consecutive steps the coefficient is controlled by
        # a^(1/p) h / r
        sched = schedule_thm11(2)
        mu = CantorMeasure(sched, 2)
        rng = random.Random(5)
        p = 1.5
        a2 = float(sched.a_of(2))
        h2 = float(sched.h_of(2))
        worst = 0.0
        for _ in range(6):
            pa = sample_address(sched, 2, rng)
            pt = point_of(pa, sched)
            for mult in (2.0, 8.0, 64.0):
                r = h2 * mult
                v = beta(mu, (pt.x, pt.y), F(r), p).value
                worst = max(worst, v / (a2 ** (1 / p) * h2 / r))
        assert 0 < worst <= 10.0

    def test_stability_under_refinement(self):
        # value at generation k+1 vs generation k at a slightly larger ball:
        # value_{k+1}^p <= value_k^p + C h_{k+1}/r with the nearest-point
        # recentering (c1 = 2 pinned after calibration)
        sched = schedule_thm11(2)
        mu2 = CantorMeasure(sched, 2)
        mu1 = CantorMeasure(sched, 1)
        rng = random.Random(19)
        p = 1.5
        h2 = sched.h_of(2)
        worst = 0.0
        for _ in range(8):
            pa = sample_address(sched, 2, rng)
            pt = point_of(pa, sched)
            # nearest generation-1 point: drop the last vertical step if the
            # address went up at level 2
            y1 = pt.y - (h2 if pa.path[1][1] == bc.UP else 0)
            for mult in (0.6, 1.5, 4.0):
                r = float(sched.h_of(1)) * mult
                v2 = beta(mu2, (pt.x, pt.y), F(r), p).value
                v1 = beta(mu1, (pt.x, y1), F(r) + 2 * h2, p).value
                excess = (v2 ** p - v1 ** p) * r / float(h2)
                worst = max(worst, excess)
        assert worst <= 200.0


class TestSquareFunction:
    def test_zero_on_a_line(self):
        mu = SegmentMeasure([WeightedSegment(RationalPoint(-2, 0),
                                             RationalPoint(2, 0), 1)])
        grid = ScaleGrid(0.01, 1.0)
        b, t = square_function(mu, (0, 0), 2.0, grid)
        assert b == 0.0
        assert t == 0.0

    def test_monotone_under_grid_extension(self):
        mu = FOUR_ATOMS
        v_coarse = square_function(mu, (0, F(1, 10)), 2.0,
                                   ScaleGrid(0.5, 4.0))[0]
        v_fine = square_function(mu, (0, F(1, 10)), 2.0,
                                 ScaleGrid(0.05, 4.0))[0]
        assert v_fine >= v_coarse - 1e-15

    def test_empty_ball_scales_counted(self):
        mu = AtomicMeasure([(0, 0, 1)])
        assert empty_balls(mu, (5, 0), 2.0, ScaleGrid(0.5, 8.0)) > 0

    @pytest.mark.parametrize("lam", [1.0, 1.5, 0.0])
    def test_increment_ratio_must_lie_in_unit_interval(self, lam):
        # lam = 1 never shrinks the radius, so the scale list never ended
        with pytest.raises(ValueError, match="lam"):
            bc.increment_pair(FOUR_ATOMS, (0, 0), 1.5, 0.01, 0.5, lam)
        with pytest.raises(ValueError, match="lam"):
            increment_scales(0.01, 0.5, lam)

    @pytest.mark.parametrize("lo, hi", [
        (0.01, math.inf), (math.nan, 0.5), (0.01, math.nan),
        (-math.inf, 0.5)])
    def test_radii_must_be_finite(self, lo, hi):
        # the checks run before either loop, which an infinite top radius
        # would never end
        with pytest.raises(ValueError, match="inf"):
            ScaleGrid(lo, hi)
        with pytest.raises(ValueError, match="inf"):
            increment_scales(lo, hi, 0.5)

    def test_tame_increment_tracks_a(self):
        sched = schedule_tame(2)
        mu = CantorMeasure(sched, 2)
        rng = random.Random(45)
        p = 1.5
        for _ in range(3):
            pa = sample_address(sched, 2, rng)
            pt = point_of(pa, sched)
            b, t = bc.increment_pair(mu, (pt.x, pt.y), p, sched.h_of(2),
                                     float(sched.h_of(1)) / 2)
            ref = float(sched.a_of(2)) ** (2 / p)
            assert 0 < b <= 10 * ref
            assert 0 < t <= 10 * (float(sched.h_of(2)) + ref)


#: measures and centers of the bit-for-bit square-function checks; the
#: last center of each sits off the support
SQFN_CASES = [
    (lambda rng: random_atoms(rng, 400),
     [(0.1, 0.2), (-0.7, 0.3), (1.6, 1.6)]),
    (lambda rng: random_segments(rng, 12),
     [(0.0, 0.0), (0.3, -0.2), (3.0, 3.0)]),
    (lambda rng: CantorMeasure(schedule_tame(2), 2),
     [(F(1, 2), 0), (F(1, 5), F(1, 64)), (2.0, 1.0)]),
]


class TestSquareFunctionP2:
    """The square function scores the windows of one ``unit_windows`` call
    (at p = 2 by the closed form, at other p by one batched search); it
    must equal, bit for bit, the sum over one ``beta_both`` per scale."""

    @staticmethod
    def per_scale(mu, x, grid, p=2.0):
        sums = [0.0, 0.0]
        empty = 0
        for r in grid.radii():
            b, t = beta_both(mu, x, r, p)
            sums[0] += b.value * b.value * grid.log_weight
            if t is None:
                empty += 1
            else:
                sums[1] += t.value * t.value * grid.log_weight
        return tuple(sums), empty

    @pytest.mark.parametrize("make, centers", SQFN_CASES)
    def test_matches_beta_both_per_scale(self, make, centers):
        rng = random.Random(47)
        mu = make(rng)
        grid = ScaleGrid(1e-3, 1.0, 2.0 ** -0.5)
        for x in centers:
            got = square_function(mu, x, 2.0, grid)
            want, empty = self.per_scale(mu, x, grid)
            assert got == want
            assert empty_balls(mu, x, 2.0, grid) == empty
        assert empty > 0  # the last center sits off the support

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    @pytest.mark.parametrize("make, centers", SQFN_CASES)
    def test_general_p_matches_beta_both_per_scale(self, make, centers, p):
        rng = random.Random(47)
        mu = make(rng)
        grid = ScaleGrid(1e-2, 1.0, 0.5)
        for x in centers:
            got = square_function(mu, x, p, grid)
            want, empty = self.per_scale(mu, x, grid, p)
            assert got == want
            assert empty_balls(mu, x, p, grid) == empty
        assert empty > 0

    def test_collinear_atoms_vanish_at_every_scale(self):
        # the two cases of acceptance 2 on atoms: a horizontal row, and
        # exact rational points on slanted lines
        grid = ScaleGrid(1e-3, 4.0, 2.0 ** -0.5)
        rng = random.Random(1002)
        row = AtomicMeasure([(F(i, 13), F(2, 9), F(rng.randrange(1, 4)))
                             for i in range(-20, 20)])
        assert square_function(row, (F(1, 13), F(2, 9)), 2.0, grid) == \
            (0.0, 0.0)
        for _ in range(40):
            m = F(rng.randrange(-40, 40), 17)
            b = F(rng.randrange(-40, 40), 23)
            xs = sorted(F(rng.randrange(-60, 60), 31) for _ in range(6))
            mu = AtomicMeasure([(x, m * x + b, F(rng.randrange(1, 4)))
                                for x in xs])
            x0 = xs[rng.randrange(len(xs))]
            assert square_function(mu, (x0, m * x0 + b), 2.0, grid) == \
                (0.0, 0.0)


def mixed_jobs(rng):
    """Square-function jobs over two Cantor generations and an atomic
    measure: increment windows at support points of generations 1 and 2,
    grid windows of random atoms, of a row of atoms (collinear at every
    scale) and of a center off the atoms (empty at every scale)."""
    sched = schedule_tame(2)
    jobs = []
    for g in (1, 2):
        mu = CantorMeasure(sched, g)
        scales = increment_scales(float(sched.h_of(g)), 0.5, 0.5)
        for _ in range(2):
            pt = point_of(sample_address(sched, g, rng), sched)
            jobs.append((mu, (pt.x, pt.y), scales))
    grid = ScaleGrid(1e-2, 1.0, 0.5)
    scales = [(r, grid.log_weight) for r in grid.radii()]
    atoms = random_atoms(rng, 60)
    row = AtomicMeasure([(F(i, 13), F(2, 9), 1) for i in range(-20, 20)])
    jobs += [(atoms, (0.1, 0.2), scales), (row, (F(1, 13), F(2, 9)), scales),
             (atoms, (3.0, 3.0), scales), (atoms, (-0.5, 0.4), scales)]
    return jobs


class TestBatchedJobs:
    """Jobs of several points, measures and generations scored in one
    batch get, bit for bit, what each gets alone."""

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_sum_squares_matches_one_job(self, p):
        jobs = mixed_jobs(random.Random(61))
        got = sum_squares(jobs, p)
        assert got == [sum_squares([job], p)[0] for job in jobs]
        n_scales = len(jobs[-1][2])
        assert all(b > 0 and t > 0 and empty == 0 for b, t, empty in got[:4])
        # the random atoms miss the smallest balls; the row of atoms is
        # collinear, the off-support center empty
        assert all(0 < empty < n_scales for _, _, empty in got[4::3])
        assert got[-3] == (0.0, 0.0, 0)
        assert got[-2] == (0.0, 0.0, n_scales)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_beta_both_points_matches_one_window(self, p):
        sched = schedule_tame(2)
        rng = random.Random(67)
        radii = [0.5, 0.1, 0.02, F(1, 200)]
        sampled = [point_of(sample_address(sched, 2, rng), sched)
                   for _ in range(3)]
        for mu, points in [
                (CantorMeasure(sched, 2), [(pt.x, pt.y) for pt in sampled]),
                (random_atoms(rng, 60), [(0.1, 0.2), (3.0, 3.0)])]:
            got = beta_both_points(mu, points, radii, p)
            assert got == [[beta_both(mu, x, r, p) for r in radii]
                           for x in points]
        # the last point sits off the atoms: every ball is empty
        assert [t for _, t in got[-1]] == [None] * len(radii)


class TestLowerBoundProbe:
    def test_single_line_probe_vanishes(self):
        mu = SegmentMeasure([WeightedSegment(RationalPoint(-4, 0),
                                             RationalPoint(4, 0), 1)])
        sched = schedule_tame(1)
        h1 = float(sched.h_of(1))
        for i in range(7):
            r = 2 * h1 * 2 ** (i / 6)
            assert beta(mu, (0, 0), F(r), 3.0).value <= 1e-12

    def test_generation_must_cover_level(self):
        sched = schedule_tame(2)
        mu = CantorMeasure(sched, 1)
        with pytest.raises(ValueError):
            bc.beta_lower_bound_probe(mu, (F(1, 2), 0), 2, 3.0, sched)
