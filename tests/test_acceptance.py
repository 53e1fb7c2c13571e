"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with the measured quantities.

Numbering:
 1. p=2 search/closed-form oracle equivalence (rel 1e-6, < 30 s)
 2. collinear windows give vanishing coefficients (<= 1e-12, 1000 cases)
 3. exact mass conservation and segment-count recurrence
 4. increment law: window sub-sums track a^(2/p) (common factor-10 band)
 5. divergence probe: beta >= c * a^(1/p) on [2h, 4h], c stable within 4x
 6. low-density witness: ratio <= C a_k, ratios strictly decreasing
 7. growth bound: ball mass <= C diam with C not growing across generations
 8. transport: exact cell masses, displacement ~ h
 9. lattice invariants on random clouds and an atomized generation
10. packing ratio finite and stable under grid refinement
11. ball approximation: exact masses, doubling checks, maximal comparison
12. byte-identical reruns
"""

import json
import math
import random
import time
from fractions import Fraction as F

import pytest

import betacantor as bc
from betacantor import (AtomicMeasure, Ball, CantorMeasure, RationalPoint,
                        ScaleGrid, SegmentMeasure, WeightedSegment)
from betacantor.beta import (best_line_p2_window, best_line_search_window,
                             build_window)
from betacantor.cantor import verify_conservation


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def thm11():
    return bc.schedule_thm11(4)


@pytest.fixture(scope="module")
def thm12():
    return bc.schedule_thm12(4)


def random_measure(rng):
    if rng.random() < 0.5:
        n = rng.randrange(3, 21)
        return AtomicMeasure([(rng.uniform(-1, 1), rng.uniform(-1, 1),
                               rng.uniform(0.1, 2)) for _ in range(n)])
    segs = []
    for _ in range(rng.randrange(2, 11)):
        x0 = rng.uniform(-1, 0.5)
        y = F(rng.uniform(-1, 1))
        segs.append(WeightedSegment(RationalPoint(F(x0), y),
                                    RationalPoint(F(x0 + rng.uniform(0.05, 1)), y),
                                    F(rng.uniform(0.2, 3))))
    return SegmentMeasure(segs)


def test_01_oracle_equivalence_p2():
    rng = random.Random(1001)
    t0 = time.time()
    worst = 0.0
    count = 0
    while count < 100:
        mu = random_measure(rng)
        win = build_window(mu, (0, 0), 2.0)
        if win.mass <= 0:
            continue
        _, _, oracle = best_line_p2_window(win)
        _, _, got, _ = best_line_search_window(win, 2.0)
        worst = max(worst, abs(got - oracle) / max(oracle, 1e-300))
        count += 1
    elapsed = time.time() - t0
    report(1, worst <= 1e-6 and elapsed < 30.0,
           f"worst rel diff {worst:.3g} over 100 instances in "
           f"{elapsed:.1f} s")


def test_02_collinearity_vanishes():
    rng = random.Random(1002)
    worst = 0.0
    for trial in range(1000):
        if trial % 2 == 0:
            # horizontal segment union on one line
            y = F(rng.randrange(-100, 100), 101)
            segs = []
            x = F(-1)
            for _ in range(rng.randrange(1, 6)):
                x0 = x + F(rng.randrange(1, 20), 40)
                x1 = x0 + F(rng.randrange(1, 30), 40)
                segs.append(WeightedSegment(RationalPoint(x0, y),
                                            RationalPoint(x1, y),
                                            F(rng.randrange(1, 5))))
                x = x1
            mu = SegmentMeasure(segs)
            seg = segs[rng.randrange(len(segs))]
            center = ((seg.left.x + seg.right.x) / 2, y)
        else:
            # exact rational points on a random slanted line
            m = F(rng.randrange(-40, 40), 17)
            b = F(rng.randrange(-40, 40), 23)
            xs = sorted(F(rng.randrange(-60, 60), 31) for _ in range(6))
            mu = AtomicMeasure([(x, m * x + b, F(rng.randrange(1, 4)))
                                for x in xs])
            x0 = xs[rng.randrange(len(xs))]
            center = (x0, m * x0 + b)
        r = F(rng.randrange(1, 9), 4)
        for p in (1.5, 2.0):
            vb = bc.beta(mu, center, r, p).value
            vt = bc.beta(mu, center, r, p, variant="betaTilde").value
            worst = max(worst, vb, vt)
    report(2, worst <= 1e-12,
           f"worst coefficient {worst:.3g} over 1000 collinear windows")


def test_03_exact_conservation(thm11):
    rng = random.Random(1003)
    ok = True
    notes = []
    # faithful schedule through generation 3
    for k in (1, 2, 3):
        ok &= verify_conservation(thm11, k, rng) == 1
        ok &= thm11.segment_count(k) == 2 * thm11.n_of(k) * \
            thm11.segment_count(k - 1)
    e1 = bc.generate(thm11, 1)
    ok &= e1.total_mass == 1 and len(e1) == thm11.segment_count(1)
    notes.append(f"faithful m_1={len(e1)}")
    # tame schedule through generation 6
    tame = bc.schedule_tame(6)
    for k in range(1, 7):
        ok &= verify_conservation(tame, k, rng) == 1
        ok &= tame.segment_count(k) == 2 * tame.n_of(k) * \
            tame.segment_count(k - 1)
    e2 = bc.generate(tame, 2)
    ok &= e2.total_mass == 1 and len(e2) == tame.segment_count(2)
    notes.append(f"tame m_2={len(e2)}")
    report(3, ok, "exact mass 1 and m_k = 2 n_k m_(k-1); " + ", ".join(notes))


def test_04_increment_law(thm11):
    p = 1.5
    qb_all, qt_all = [], []
    for k in (1, 2, 3):
        gen = k + 1
        mu = CantorMeasure(thm11, gen)
        rng = random.Random(1004 + k)
        r_lo = thm11.h_of(gen)
        r_hi = float(thm11.h_of(k)) / 2
        a = float(thm11.a_of(gen))
        ref_b = a ** (2 / p)
        ref_t = float(r_lo) + ref_b
        for _ in range(10):
            pa = bc.sample_address(thm11, gen, rng)
            pt = bc.point_of(pa, thm11)
            sb, st = bc.increment_pair(mu, (pt.x, pt.y), p, r_lo, r_hi)
            qb_all.append(sb / ref_b)
            qt_all.append(st / ref_t)
    band_b = max(qb_all) / min(qb_all)
    band_t = max(qt_all) / min(qt_all)
    report(4, band_b <= 10.0 and band_t <= 10.0,
           f"beta band x{band_b:.2f} (ratios {min(qb_all):.3f}.."
           f"{max(qb_all):.3f}), tilde band x{band_t:.2f} "
           f"({min(qt_all):.3f}..{max(qt_all):.3f}) over k=1..3, 10 pts")


def test_05_divergence_probe(thm12):
    p = 3.0
    c_by_k = []
    for k in (1, 2, 3):
        mu = CantorMeasure(thm12, k + 1)
        rng = random.Random(1005 + k)
        ratios = []
        for _ in range(10):
            pa = bc.sample_address(thm12, k + 1, rng)
            pt = bc.point_of(pa, thm12)
            probe = bc.beta_lower_bound_probe(mu, (pt.x, pt.y), k, p, thm12)
            ratios.append(probe / float(thm12.a_of(k)) ** (1 / p))
        c_by_k.append(min(ratios))
    spread = max(c_by_k) / min(c_by_k)
    report(5, min(c_by_k) > 0 and spread <= 4.0,
           f"c_k = {[round(c, 4) for c in c_by_k]}, spread x{spread:.2f}")


def test_06_unrectifiability_witness(thm11):
    max_ratio = {}
    for k in (1, 2, 3):
        rng = random.Random(1006 + k)
        ratios = []
        for _ in range(10):
            pa = bc.sample_address(thm11, 4, rng, force_branch={k: bc.UP})
            (_, ratio), = bc.unrectifiability_witness(thm11, pa, [k])
            ratios.append(ratio)
        max_ratio[k] = max(ratios)
    cs = {k: max_ratio[k] / float(thm11.a_of(k)) for k in max_ratio}
    one_c = max(cs.values())
    decreasing = max_ratio[1] > max_ratio[2] > max_ratio[3]
    report(6, one_c <= 3.0 and decreasing,
           f"ratio/a_k = {[round(cs[k], 3) for k in (1, 2, 3)]} "
           f"(C={one_c:.3f}), ratios "
           f"{[round(max_ratio[k], 4) for k in (1, 2, 3)]} decreasing")


def test_07_growth_bound(thm11):
    rng = random.Random(1007)
    balls = []
    for _ in range(1000):
        cx = F(rng.uniform(-0.2, 1.2))
        cy = F(rng.uniform(-0.05, 0.1))
        r = F(10.0 ** rng.uniform(-6, 0.3))
        balls.append(Ball((cx, cy), r))
    max_ratio = []
    for j in range(0, 5):
        mu = CantorMeasure(thm11, j)
        worst = 0.0
        for ball in balls:
            m = float(mu.ball_mass(ball))
            worst = max(worst, m / (2.0 * float(ball.radius)))
        max_ratio.append(worst)
    c_all = max(max_ratio)
    monotone = all(b <= a * 1.01 for a, b in zip(max_ratio, max_ratio[1:]))
    report(7, c_all <= 3.0 and monotone,
           f"max mass/diam per generation {[round(v, 4) for v in max_ratio]}"
           f" (C={c_all:.3f}, non-increasing within 1%)")


def test_08_transport_contract(thm11):
    rng = random.Random(1008)
    ok = True
    worst_disp = []
    for k in (0, 1, 2):
        worst = 0.0
        for _ in range(30):
            pa = bc.sample_address(thm11, k, rng)
            x = bc.point_of(pa, thm11)
            tx = bc.transport(x, k, thm11)
            disp = math.hypot(float(tx.x - x.x), float(tx.y - x.y))
            worst = max(worst, disp / float(thm11.h_of(k + 1)))
        worst_disp.append(worst)
        # exact pushforward cell masses on sampled cells
        pa = bc.sample_address(thm11, k, rng)
        parent = bc.segment_of(pa.path, thm11)
        n = thm11.n_of(k + 1)
        cells = bc.transport_cells(parent, k, thm11,
                                   indices=[0, 1, n // 2, n - 1])
        ok &= all(c.source_mass_at(parent.density) == c.target.mass
                  for c in cells)
    common = max(worst_disp)
    report(8, ok and common <= 1.5,
           f"cell masses exact; max displacement/h = "
           f"{[round(v, 4) for v in worst_disp]} (C={common:.4f})")


def test_09_lattice_invariants():
    rng = random.Random(1009)
    built = 0
    for _ in range(10):
        n = rng.randrange(50, 501)
        mu = AtomicMeasure([(rng.uniform(0, 1), rng.uniform(0, 1),
                             rng.uniform(0.1, 2)) for _ in range(n)])
        lat = bc.build_lattice(mu, depth=3)
        lat.assert_invariants()
        built += 1
    # atomized generation 2 at the lattice resolution (a0^-depth / 10)
    e2 = bc.generate(bc.schedule_tame(2), 2)
    atoms = bc.atomize(e2, F(1, 25_000))
    lat = bc.build_lattice(atoms, depth=2)
    lat.assert_invariants()
    report(9, built == 10,
           f"partition/nesting/containment/disjointness on {built} clouds "
           f"and atomized generation 2 ({len(atoms)} atoms, "
           f"{len(lat.cubes)} cubes)")


def _packing_ratio(atoms, lam, seed=0, sample=200):
    lat = bc.build_lattice(atoms, depth=2)
    tree = bc.corona_decompose(lat, 2.0)
    diam = atoms.diameter()
    grid = ScaleGrid(diam / 2000.0, 2.0 * diam, lam)
    rep = bc.packing_report(tree, grid, beta_sample=sample, seed=seed)
    return rep.ratio


def test_10_packing_stability(thm11):
    sched2 = bc.schedule_thm11(2)
    mu2 = CantorMeasure(sched2, 2)
    mu_tilde, family = bc.build_mu_tilde(
        mu2, lam=50.0, rho=F(1, 64), eps=0.15, c_star=2.0,
        max_centers=600, seed=5)
    atoms = bc.atomize(mu_tilde, F(1, 25_000))
    lam0, lam1 = 2.0 ** -0.25, 2.0 ** -0.125
    r0 = _packing_ratio(atoms, lam0)
    r1 = _packing_ratio(atoms, lam1)
    change = abs(r1 - r0) / r0
    ok = math.isfinite(r0) and math.isfinite(r1) and change < 0.20
    changes = [change]
    rng = random.Random(1010)
    for _ in range(10):
        n = rng.randrange(60, 121)
        cloud = AtomicMeasure([(rng.uniform(0, 1), rng.uniform(0, 1),
                                rng.uniform(0.1, 2)) for _ in range(n)])
        c0 = _packing_ratio(cloud, lam0, sample=None)
        c1 = _packing_ratio(cloud, lam1, sample=None)
        ch = abs(c1 - c0) / c0
        changes.append(ch)
        ok &= math.isfinite(c0) and ch < 0.20
    report(10, ok,
           f"approximation-of-generation-2 ratio {r0:.4f} -> {r1:.4f} "
           f"and 10 clouds; max change {max(changes) * 100:.1f}% < 20%")


def test_11_mu_tilde_pipeline():
    rng = random.Random(1011)
    worst_c = 0.0
    ok = True
    for _ in range(10):
        n = rng.randrange(25, 61)
        mu = AtomicMeasure([(F(rng.randrange(0, 400), 400),
                             F(rng.randrange(0, 20), 200),
                             F(rng.randrange(1, 5), 3)) for _ in range(n)])
        mt, fam = bc.build_mu_tilde(mu, 50.0, F(1, 4), 0.2, c_star=3.0)
        lam = 50
        for seg, (ball, m) in zip(mt.segments, zip(fam.balls, fam.masses)):
            cx, cy, r = ball
            ok &= seg.mass == m  # exact by construction
            ok &= mu.ball_mass(Ball((cx, cy), r)) == m
            m_lam = mu.ball_mass(Ball((cx, cy), r * lam))
            ok &= m_lam <= 2 * lam ** 2 * m
            ok &= m <= 10 * 3 * lam * r
        ok &= fam.check_disjoint()
        _, _, ratio = bc.restricted_maximal_comparison(mu, fam, mt, 2.0)
        worst_c = max(worst_c, ratio)
    report(11, ok and worst_c < 10.0,
           f"exact ball masses, doubling and disjointness on 10 instances; "
           f"maximal comparison C={worst_c:.3f} < 10")


def test_12_determinism(tmp_path):
    from betacantor.cli import main
    args = ["--flavor", "tame", "--k-max", "1", "--samples", "2",
            "--p", "1.5", "--seed", "9", "--r-min", "0.01",
            "--r-max", "0.25"]
    blobs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        assert main(args + ["--out", str(out), "beta"]) == 0
        assert main(args + ["--out", str(out), "witness"]) == 0
        blob = {}
        for f in sorted(out.iterdir()):
            if f.suffix in (".csv", ".json"):
                blob[f.name] = f.read_bytes()
        blobs.append(blob)
    ok = blobs[0] == blobs[1] and len(blobs[0]) >= 2
    report(12, ok, f"{len(blobs[0])} CSV/JSON outputs byte-identical on "
                   "rerun with the same seed and config")
