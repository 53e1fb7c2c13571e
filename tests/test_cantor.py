"""Construction machinery: child layout, refinement, schedules, windowed
generation, transport, classification."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from betacantor import (Ball, CantorMeasure, RationalPoint, SegmentMeasure,
                        WeightedSegment, children, classify, generate,
                        locate, point_of, refine, sample_address,
                        schedule_custom, schedule_tame, schedule_thm11,
                        schedule_thm12, segment_of, transport,
                        transport_cells)
from betacantor import cantor
from betacantor.cantor import (DOWN, ROOT, UP, gap_bound,
                               max_separation_squared, separation_bound_holds,
                               verify_conservation)
from betacantor.errors import (InvariantViolationError, ResourceBudgetError,
                               ScheduleExhaustedError)
from betacantor.geometry import ball_chord

UNIT = WeightedSegment(RationalPoint(0, 0), RationalPoint(1, 0), 1)

# small Figure-1 style schedule: 3 children at step 1, 4 at step 2
FIG = schedule_custom([F(1, 2), F(1, 4)], [F(1, 4), F(1, 32)], [3, 4])


def segment_ball_intersects(seg, ball):
    """Exact predicate: does the closed segment meet the closed ball?  It
    takes the nearest point of the segment to the center, so no square
    root is needed and rational inputs are decided exactly."""
    xn = min(max(ball.cx, seg.left.x), seg.right.x)
    dx = xn - ball.cx
    dy = seg.y - ball.cy
    return dx * dx + dy * dy <= ball.radius * ball.radius


def exact_window(sched, gen, ball):
    """The generation-``gen`` segments meeting a closed ball, by the exact
    (``rel_resolution=0``) descent."""
    mu = CantorMeasure(sched, gen, rel_resolution=0)
    return mu.window((ball.cx, ball.cy), ball.radius)


class TestChildren:
    def test_two_children_with_lift(self):
        got = children(UNIT, F(1, 4), F(1, 2), 2)
        assert [(c.left.x, c.right.x, c.y) for c in got] == [
            (F(0), F(1, 4), F(1, 4)), (F(3, 4), F(1), F(1, 4))]

    def test_three_children_no_lift(self):
        got = children(UNIT, 0, F(1, 4), 3)
        assert [(c.left.x, c.right.x) for c in got] == [
            (F(0), F(1, 12)), (F(11, 24), F(13, 24)), (F(11, 12), F(1))]
        gaps = [b.left.x - a.right.x for a, b in zip(got, got[1:])]
        assert gaps == [F(3, 8), F(3, 8)]

    def test_endpoint_alignment(self):
        rng = random.Random(4)
        for _ in range(50):
            x0 = F(rng.randrange(-20, 20), 7)
            parent = WeightedSegment(
                RationalPoint(x0, F(1, 3)),
                RationalPoint(x0 + F(rng.randrange(1, 40), 9), F(1, 3)),
                F(rng.randrange(1, 5)))
            h = F(rng.randrange(0, 10), 11)
            a = F(rng.randrange(1, 16), 16)
            n = rng.randrange(2, 9)
            got = children(parent, h, a, n)
            assert got[0].left.x == parent.left.x
            assert got[-1].right.x == parent.right.x
            assert all(c.y == parent.y + h for c in got)
            assert sum(c.length for c in got) == a * parent.length
            assert all(c.density == parent.density for c in got)

    def test_gapless_degenerate_case(self):
        got = children(UNIT, 0, 1, 4)
        assert sum(c.length for c in got) == 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            children(UNIT, 0, 0, 3)
        with pytest.raises(ValueError):
            children(UNIT, 0, F(3, 2), 3)
        with pytest.raises(ValueError):
            children(UNIT, 0, F(1, 2), 1)


class TestRefine:
    def test_figure_counts(self):
        e1 = refine([ROOT], 0, FIG)
        assert len(e1) == 6
        e2 = refine(e1, 1, FIG)
        assert len(e2) == 48
        assert FIG.segment_count(1) == 6
        assert FIG.segment_count(2) == 48

    def test_mass_conserved_exactly(self):
        segs = [ROOT]
        sched = schedule_tame(2)
        for k in range(2):
            segs = refine(segs, k, sched)
            assert sum(s.mass for s in segs) == 1

    def test_down_family_inside_parent_line_up_family_lifted(self):
        e1 = refine([ROOT], 0, FIG)
        down = [s for s in e1 if s.y == 0]
        up = [s for s in e1 if s.y == FIG.h_of(1)]
        assert len(down) == len(up) == 3
        # supports: down children inside the root, up children inside the
        # lifted root
        for s in down + up:
            assert 0 <= s.left.x < s.right.x <= 1
        assert sum(s.mass for s in down) == 1 - FIG.a_of(1)
        assert sum(s.mass for s in up) == FIG.a_of(1)

    def test_segments_pairwise_disjoint(self):
        sched = schedule_tame(2)
        SegmentMeasure(refine(refine([ROOT], 0, sched), 1, sched)
                       ).check_disjoint()

    def test_overlap_detected_for_bad_custom_schedule(self):
        # step heights equal across generations make the up family of the
        # base line collide with the down family of the lifted line
        bad = schedule_custom([F(1, 2), F(1, 2)], [F(1, 4), F(1, 4)], [3, 3])
        e1 = refine([ROOT], 0, bad)
        with pytest.raises(ValueError):
            refine(e1, 1, bad)

    def test_schedule_exhausted(self):
        with pytest.raises(ScheduleExhaustedError):
            refine(refine([ROOT], 0, FIG), 1, schedule_custom([F(1, 2)],
                                                              [F(1, 4)], [3]))


class TestSchedules:
    def test_harmonic_a_values(self):
        s = schedule_thm11(3)
        assert s.a == (F(1, 2), F(1, 4), F(1, 6))

    def test_gap_condition_and_n_rule(self):
        s = schedule_thm11(3)
        assert all(s.gap_ok)
        assert all(s.n_rule_ok)
        assert s.faithful
        assert s.h_of(1) == F(1, 128)
        assert s.n_of(1) == 16385  # smallest integer above 128^2

    @pytest.mark.parametrize("make", [schedule_thm11, schedule_thm12])
    def test_built_in_schedules_meet_the_gap_bound_with_equality(self, make):
        # h_1 is given; every later step sits exactly on the bound
        s = make(5)
        assert all(s.gap_ok) and len(s.gap_ok) == 5
        for k in range(1, 5):
            assert s.h_of(k + 1) == gap_bound(k, s.h_of(k), s.min_length(k))
        assert s.h_of(1) < gap_bound(0, F(1), s.min_length(0))

    def test_tame_is_not_faithful(self):
        s = schedule_tame(3)
        assert not any(s.gap_ok)
        assert not s.faithful

    def test_slow_decay_a_approximation(self):
        s = schedule_thm12(4)
        assert s.approx_a
        for k in range(1, 5):
            target = 1.0 / (k * math.log(math.e + k) ** 2)
            assert abs(float(s.a_of(k)) - target) < 1e-12

    def test_harmonic_sums_split_at_p2(self):
        # sum a_k diverges while sum a_k^(2/p) stays summable for p < 2
        a = [1.0 / (2 * k) for k in range(1, 20001)]
        partial = [sum(a[:n]) for n in (100, 1000, 10000, 20000)]
        assert all(b > a_ + 0.3 for a_, b in zip(partial, partial[1:]))
        p = 1.5
        tails = [sum(x ** (2 / p) for x in a[n:2 * n])
                 for n in (100, 1000, 10000)]
        assert all(t2 < t1 / 2 for t1, t2 in zip(tails, tails[1:]))

    def test_slow_decay_sums_diverge_for_p3(self):
        # sum a_k^(2/3) for a_k ~ 1/(k log^2(e+k)): dyadic-block sums grow,
        # so the partial sums are unbounded
        p = 3.0
        blocks = []
        for j in range(2, 8):
            blocks.append(sum(
                (1.0 / (k * math.log(math.e + k) ** 2)) ** (2 / p)
                for k in range(4 ** j, 4 ** (j + 1))))
        assert all(b2 > b1 for b1, b2 in zip(blocks, blocks[1:]))

    def test_budget_guard(self):
        with pytest.raises(ResourceBudgetError):
            schedule_thm11(40)

    def test_exact_conservation_probe_deep(self):
        s = schedule_thm11(4)
        assert verify_conservation(s, 4, random.Random(0)) == 1

    def test_conservation_probe_catches_a_widened_child(self, monkeypatch):
        # the first layout a fresh schedule asks for is the root's down
        # family; one unit more over its denominator breaks conservation at
        # generation 1, which every sampled path checks
        layout = cantor._child_layout
        calls = []

        def widened(length, frac, n):
            width, pitch = layout(length, frac, n)
            calls.append(frac)
            if len(calls) == 1:
                width += F(1, width.denominator)
            return width, pitch

        monkeypatch.setattr(cantor, "_child_layout", widened)
        with pytest.raises(InvariantViolationError, match="generation 1$"):
            verify_conservation(schedule_tame(2), 2, random.Random(0))
        assert calls

    def test_min_length_recursion(self):
        s = schedule_tame(2)
        assert s.min_length(1) == F(1, 2) / 8
        assert s.min_length(2) == F(1, 2) / 8 * F(1, 4) / 64


class TestWindowedGeneration:
    def test_full_window_matches_refine(self):
        sched = schedule_tame(2)
        full = generate(sched, 2)
        got = exact_window(sched, 2, Ball((F(1, 2), 0), 4))
        assert sorted(got.segments, key=lambda s: (s.y, s.left.x)) == \
            sorted(full.segments, key=lambda s: (s.y, s.left.x))

    def test_disjoint_window_is_empty(self):
        sched = schedule_tame(2)
        got = exact_window(sched, 2, Ball((F(1, 2), 10), F(1, 2)))
        assert len(got) == 0

    def test_random_windows_match_bruteforce_gen1(self):
        import numpy as np
        sched = schedule_thm11(2)
        full = generate(sched, 1)  # 32770 segments, still enumerable
        ss, ee, yy, _ = full.float_arrays
        rng = random.Random(9)
        for _ in range(100):
            center = (F(rng.randrange(-4, 20), 16),
                      F(rng.randrange(-2, 4), 256))
            radius = F(rng.randrange(1, 40), 256)
            ball = Ball(center, radius)
            # float prescreen with a safety margin, exact check on the rest
            fx, fy, fr = float(ball.cx), float(ball.cy), float(ball.radius)
            xn = np.clip(fx, ss, ee)
            d = np.hypot(xn - fx, yy - fy)
            maybe = np.nonzero(d <= fr * (1 + 1e-9) + 1e-12)[0]
            brute = sum(
                1 for i in maybe
                if segment_ball_intersects(full.segments[i], ball))
            got = exact_window(sched, 1, ball)
            assert len(got) == brute

    def test_lazy_window_mass_exact_on_cover(self):
        mu = CantorMeasure(schedule_thm11(3), 3)
        assert mu.ball_mass(Ball((F(1, 2), 0), 4)) == 1

    def test_lazy_window_mass_close_to_exact(self):
        sched = schedule_tame(2)
        full = generate(sched, 2)
        mu = CantorMeasure(sched, 2)
        rng = random.Random(13)
        for _ in range(40):
            center = (F(rng.randrange(0, 16), 16), F(rng.randrange(0, 3), 64))
            radius = F(rng.randrange(1, 32), 64)
            ball = Ball(center, radius)
            exact = float(full.ball_mass(ball))
            lazy = float(mu.ball_mass(ball))
            tol = float(mu.rel_resolution * radius) * 4 + 1e-12
            assert abs(exact - lazy) <= tol

    def test_budget_errors_say_what_to_change(self, monkeypatch):
        # this window expands more than a hundred parents
        monkeypatch.setattr(cantor, "MAX_NODES", 10)
        mu = CantorMeasure(schedule_tame(3), 3)
        with pytest.raises(ResourceBudgetError) as err:
            mu.window((F(1, 2), 0), F(1, 16))
        msg = str(err.value)
        assert "center (0.5, 0), radius 0.0625" in msg
        assert "visits more than 10 nodes; coarsen rel_resolution" in msg
        with pytest.raises(ResourceBudgetError,
                           match=r"rel_resolution \(now 0\) or shrink the "
                                 r"window$"):
            exact_window(schedule_tame(2), 2, Ball((F(1, 2), 0), 4))

    @pytest.mark.parametrize("make, gen, digest", [
        (lambda: schedule_thm11(2), 2, 
         "f0f3a78cc222f0e5dfcc29436b1645ce4f071fe4fda9b4c43ee26a8c24b9e478"),
        (lambda: schedule_thm11(3), 3, 
         "a31a71ced58949e0eb9592bb2050bfa0ad0897c6128849693bc767082a4bc4b0"),
        (lambda: schedule_tame(3), 3, 
         "21ee347ed6f2cb3767d20c6b91a3163cf9667c66d32553c9d8c9f98e3b853017"),
    ])
    def test_aggregated_descent_pinned(self, make, gen, digest):
        # 20 seeded balls per schedule, radii 1e-7 to 0.5, centers cycling
        # through float points near the support, exact support points, and
        # support points shifted by a multiple of 1/3 or 1/7 (with radii of
        # those denominators too); the digest covers the aggregated window
        # segments in order, the exact ball masses and the unit-window
        # arrays, and was recorded with the Fraction-coordinate descent
        import hashlib
        sched = make()
        mu = CantorMeasure(sched, gen)
        rng = random.Random(gen)
        h = hashlib.sha256()
        for i in range(20):
            r = F(10 ** rng.uniform(-7, math.log10(0.5)))
            pt = point_of(sample_address(sched, gen, rng), sched)
            cx, cy = pt.x, pt.y
            if i % 3 == 0:
                cx = F(float(cx) + rng.uniform(-1, 1) * float(r))
                cy = F(float(cy) + rng.uniform(-1, 1) * float(r))
            elif i % 3 == 2:
                den = (3, 7)[i % 2]
                cx += F(rng.randrange(-den, den + 1), den) * r
                r = F(max(1, round(r * den * 2 ** 30)), den * 2 ** 30)
            for seg in mu.window((cx, cy), r).segments:
                h.update(f"{seg.left.x} {seg.right.x} {seg.y} "
                         f"{seg.density};".encode())
            h.update(f"{mu.ball_mass(Ball((cx, cy), r))};".encode())
            win, = mu.unit_windows(cx, cy, [r])
            for arr in (win.s, win.e, win.y, win.m):
                h.update(arr.tobytes())
        assert h.hexdigest() == digest

    def test_separation_bound(self):
        for sched, gen in ((schedule_tame(2), 1), (schedule_tame(2), 2),
                           (schedule_thm11(1), 1)):
            segs = generate(sched, gen).segments
            assert separation_bound_holds(segs, gen, sched)

    def test_max_separation_matches_bruteforce(self):
        segs = generate(FIG, 2).segments

        def dist2(s, o):
            dx = max(F(0), o.left.x - s.right.x, s.left.x - o.right.x)
            return dx * dx + (s.y - o.y) ** 2

        brute = max(min(dist2(s, o) for o in segs if o != s) for s in segs)
        assert max_separation_squared(segs) == brute


def probe_balls(sched, gen, seed, scale=1):
    """20 seeded balls near the generation-``gen`` support, of radii from
    1e-7 to 0.5 times ``scale``, cycling through five kinds: centered on a
    support point, at a float point near it, shifted from it by a multiple
    of 1/3 or 1/7 of a radius of that denominator, a 3-4-5 triangle (a
    rational half-chord on the line of the point) and tangent to that line
    from above."""
    rng = random.Random(seed)
    for i in range(20):
        pt = point_of(sample_address(sched, gen, rng), sched)
        # dyadic radii: mostly irrational chords
        r = F(10 ** rng.uniform(-7, math.log10(0.5)))
        kind = i % 5
        if kind == 0:
            center = (pt.x, pt.y)
        elif kind == 1:
            center = (float(pt.x) + rng.uniform(-1, 1) * float(r),
                      float(pt.y) + rng.uniform(-1, 1) * float(r))
        elif kind == 2:
            den = (3, 7)[i % 2]
            center = (pt.x + F(rng.randrange(-den, den + 1), den) * r, pt.y)
            r = F(max(1, round(r * den * 2 ** 30)), den * 2 ** 30)
        elif kind == 3:
            t = F(max(1, round(r * 2 ** 30)), 5 * 2 ** 30)
            center, r = (pt.x, pt.y + 3 * t), 5 * t
        else:
            center = (pt.x, pt.y + r)
        ball = Ball(center, r)
        yield Ball((pt.x + (ball.cx - pt.x) * scale,
                    pt.y + (ball.cy - pt.y) * scale), ball.radius * scale)


def chord_mass(segments, ball):
    """The ``Fraction`` mass of segments in a closed ball: each segment cut
    to the :func:`ball_chord` of its line."""
    total = F(0)
    for seg in segments:
        chord = ball_chord(ball, seg.y)
        if chord is not None:
            lo, hi = max(seg.left.x, chord[0]), min(seg.right.x, chord[1])
            if lo < hi:
                total += seg.density * (hi - lo)
    return total


class TestIntegerBallMass:
    """``CantorMeasure.ball_mass`` clips the descent output in ints; it
    must equal the ``Fraction`` clip of the same window exactly."""

    @pytest.mark.parametrize("make, gen, res", [
        (lambda: schedule_thm11(2), 2, None),
        (lambda: schedule_thm11(3), 3, None),
        (lambda: schedule_tame(3), 3, None),
        (lambda: schedule_tame(2), 2, 0),
        (lambda: schedule_thm11(2), 1, 0),
    ])
    def test_matches_window_clip(self, make, gen, res):
        sched = make()
        mu = CantorMeasure(sched, gen, rel_resolution=res)
        for ball in probe_balls(sched, gen, 31 + gen):
            win = mu.window((ball.cx, ball.cy), ball.radius)
            assert mu.ball_mass(ball) == chord_mass(win.segments, ball)

    def test_budget_error_unchanged(self, monkeypatch):
        monkeypatch.setattr(cantor, "MAX_NODES", 10)
        mu = CantorMeasure(schedule_tame(3), 3)
        ball = Ball((F(1, 2), 0), F(1, 16))
        with pytest.raises(ResourceBudgetError) as via_window:
            mu.window((ball.cx, ball.cy), ball.radius)
        with pytest.raises(ResourceBudgetError) as via_mass:
            mu.ball_mass(ball)
        assert str(via_mass.value) == str(via_window.value)
        # in a multi-radius call the first radius over budget raises; the
        # one before it is within budget
        mu.window((ball.cx, ball.cy), F(1, 4096))
        with pytest.raises(ResourceBudgetError) as via_masses:
            mu.ball_masses(ball.cx, ball.cy, [F(1, 4096), ball.radius, 1])
        assert str(via_masses.value) == str(via_window.value)

    @pytest.mark.parametrize("make, res", [
        (lambda: schedule_tame(3), None),
        (lambda: schedule_tame(2), 0),
        (lambda: schedule_thm11(2), 0),
    ])
    def test_budget_fires_on_the_same_balls(self, monkeypatch, make, res):
        # the mass descent does not expand nodes inside the ball, but its
        # budget still counts every node the window descent pushes, the
        # subtrees of inside nodes included
        sched = make()
        gen = sched.k_max
        mu = CantorMeasure(sched, gen, rel_resolution=res)
        scale = 1 if res is None else F(2) ** math.floor(
            math.log2(1000 * sched.min_length(gen)))
        raised = []
        for limit in (10, 60, 400):
            monkeypatch.setattr(cantor, "MAX_NODES", limit)
            for ball in probe_balls(sched, gen, 61, scale):
                radii = [ball.radius * q for q in (F(1, 64), 1, 8)]
                want = None
                for r in radii:
                    try:
                        mu.window((ball.cx, ball.cy), r)
                    except ResourceBudgetError as exc:
                        want = str(exc)
                        break
                try:
                    mu.ball_masses(ball.cx, ball.cy, radii)
                    got = None
                except ResourceBudgetError as exc:
                    got = str(exc)
                assert got == want
                raised.append(got is not None)
        assert any(raised) and not all(raised)


def mass_probes(sched, gen, seed, scale):
    """12 seeded centers with a list of radii each, for the mass descent:
    on the support, at a float point near it, or on the line of a support
    point a third of a radius away.  The radii are a dyadic ``r`` (from
    1e-6 to 0.5 times ``scale``), its x50 dilate, ``r/3``, ``5r/7``, the
    float ``2r``, and the radii that make the sphere pass through an end of
    the segment holding the support point."""
    rng = random.Random(seed)
    for i in range(12):
        pa = sample_address(sched, gen, rng)
        seg, pt = segment_of(pa.path, sched), point_of(pa, sched)
        r = F(10 ** rng.uniform(-6, math.log10(0.5))) * scale
        cx, cy = pt.x, pt.y
        if i % 3 == 1:
            cx = float(cx) + rng.uniform(-1, 1) * float(r)
            cy = float(cy) + rng.uniform(-1, 1) * float(r)
        elif i % 3 == 2:
            cx += r / 3
        radii = [r, 50 * r, r / 3, 5 * r / 7, 2 * float(r)]
        if i % 3 != 1:
            radii += [abs(end - cx) for end in (seg.left.x, seg.right.x)
                      if end != cx]
        yield cx, cy, radii


class TestMassDescent:
    """``CantorMeasure.ball_masses`` runs one mass descent per center, in
    which kids inside the ball add their mass unexpanded.  Every float must
    equal the ``Fraction`` clip of the full window, which has no such
    shortcut, rounded once."""

    @pytest.mark.parametrize("make, res", [
        (lambda: schedule_thm11(2), None),
        (lambda: schedule_thm11(2), 0),
        (lambda: schedule_thm12(2), None),
        (lambda: schedule_thm12(2), 0),
        (lambda: schedule_tame(3), None),
        (lambda: schedule_tame(3), 0),
    ])
    def test_matches_window_oracle(self, make, res):
        sched = make()
        gen = sched.k_max
        mu = CantorMeasure(sched, gen, rel_resolution=res)
        # the exact mode expands every segment, so its dilated balls shrink
        # to a few hundred of the shortest segments
        scale = 1 if res is None else F(2) ** math.floor(
            math.log2(4 * sched.min_length(gen)))
        for cx, cy, radii in mass_probes(sched, gen, 71, scale):
            got = mu.ball_masses(cx, cy, radii)
            assert got.dtype == float and len(got) == len(radii)
            for r, m in zip(radii, got):
                ball = Ball((cx, cy), r)
                want = chord_mass(mu.window((cx, cy), r).segments, ball)
                assert mu.ball_mass(ball) == want
                assert np.float64(float(want)).tobytes() == m.tobytes()

    @pytest.mark.parametrize("make, res", [
        (lambda: schedule_thm11(2), None),
        (lambda: schedule_tame(3), None),
        (lambda: schedule_tame(2), None),
        (lambda: schedule_tame(2), 0),
    ])
    def test_kid_through_corners_is_not_expanded(self, make, res):
        # the sphere of B((x + w/2, reach - 3w/8), 5w/8) passes through the
        # top corners (x, reach) and (x + w, reach) of the reach box of the
        # fourth down kid [x, x + w] of the root (3-4-5), and no other kid
        # meets the ball: the mass descent counts that kid's mass from its
        # run and clips nothing, where the window emits its pieces
        sched = make()
        mu = CantorMeasure(sched, sched.k_max, rel_resolution=res)
        w, pitch = cantor._child_layout(F(1), 1 - sched.a_of(1),
                                        sched.n_of(1))
        reach = sched.h_span(1, sched.k_max)
        assert reach <= 3 * w / 4 and pitch > 2 * w
        cx, cy, r = 3 * pitch + w / 2, reach - 3 * w / 8, 5 * w / 8
        (_, (u, *_), out, inside), = mu._descend(cx, cy, [r], True)
        assert out == [] and F(inside, u) == w
        (_, _, out, inside), = mu._descend(cx, cy, [r], False)
        assert out and inside == 0
        assert mu.ball_mass(Ball((cx, cy), r)) == w


class TestIntegerUnitWindow:
    """``CantorMeasure.unit_windows`` rescales the descent output straight
    from its ints; every array equals, bit for bit, the one rescaled from
    the segments of the same window."""

    @pytest.mark.parametrize("make, res", [
        (lambda: schedule_thm11(2), None),
        (lambda: schedule_thm11(2), 0),
        (lambda: schedule_thm12(2), None),
        (lambda: schedule_thm12(2), 0),
        (lambda: schedule_tame(3), None),
        (lambda: schedule_tame(3), 0),
    ])
    def test_matches_window_rescale(self, make, res):
        sched = make()
        gen = sched.k_max
        mu = CantorMeasure(sched, gen, rel_resolution=res)
        # the exact mode expands every segment, so its balls shrink to a
        # few thousand of the shortest segments at most
        scale = 1 if res is None else F(2) ** math.floor(
            math.log2(1000 * sched.min_length(gen)))
        sizes = []
        for ball in probe_balls(sched, gen, 41, scale):
            radii = [ball.radius * q for q in (1, F(1, 3), F(5, 2))]
            got = list(mu.unit_windows(ball.cx, ball.cy, radii))
            assert len(got) == len(radii)
            for r, win in zip(radii, got):
                want, = mu.window((ball.cx, ball.cy), r).unit_windows(
                    ball.cx, ball.cy, [r])
                for a, b in zip((win.s, win.e, win.y, win.m),
                                (want.s, want.e, want.y, want.m)):
                    assert a.dtype == b.dtype
                    assert a.tobytes() == b.tobytes()
                sizes.append(len(win.s))
        assert min(sizes) <= 1 and max(sizes) > 10


class TestExactWindow:
    def test_ball_mass_matches_full_generation(self):
        # rel_resolution=0 collapses nothing, so its masses are those of
        # the enumerated generation (the default resolution blurs them)
        sched = schedule_tame(2)
        full = generate(sched, 2)
        mu = CantorMeasure(sched, 2, rel_resolution=0)
        rng = random.Random(17)
        for _ in range(40):
            pt = point_of(sample_address(sched, 2, rng), sched)
            ball = Ball(pt, F(rng.randrange(1, 64), 256))
            assert mu.ball_mass(ball) == full.ball_mass(ball)

    def test_budget_raises_before_pushing_a_huge_run(self):
        # one generation-1 parent alone has n_2 (about 2^44) children here
        mu = CantorMeasure(schedule_thm11(2), 2, rel_resolution=0)
        with pytest.raises(ResourceBudgetError):
            mu.window((F(1, 2), 0), F(1, 64))

    @pytest.mark.parametrize("res", [-1, 1])
    def test_resolution_outside_unit_interval_rejected(self, res):
        with pytest.raises(ValueError):
            CantorMeasure(schedule_tame(2), 2, rel_resolution=res)


def family_segment(path, sched):
    """The segment an address points at, by laying out the child family of
    each segment along the path in ``Fraction``s: the per-segment recursion
    that the int tree layout replaces, kept as its reference."""
    seg = ROOT
    for g, (idx, branch) in enumerate(path, start=1):
        a, n = sched.a_of(g), sched.n_of(g)
        frac, dy = (a, sched.h_of(g)) if branch == UP else (1 - a, 0)
        width = frac * seg.length / n
        lo = seg.left.x + idx * (width + (1 - frac) * seg.length / (n - 1))
        seg = WeightedSegment(RationalPoint(lo, seg.y + dy),
                              RationalPoint(lo + width, seg.y + dy),
                              seg.density)
    return seg


def family_point(pa, sched):
    seg = family_segment(pa.path, sched)
    return RationalPoint(seg.left.x + pa.offset * seg.length, seg.y)


class TestAddresses:
    @pytest.mark.parametrize("make", [
        lambda: schedule_thm11(4), lambda: schedule_thm12(3),
        lambda: schedule_tame(4), lambda: FIG,
    ], ids=["thm11", "thm12", "tame", "fig"])
    def test_layout_matches_fraction_reference(self, make):
        sched = make()
        rng = random.Random(sched.k_max)
        for gen in range(sched.k_max + 1):
            for _ in range(40):
                pa = sample_address(sched, gen, rng)
                pt = family_point(pa, sched)
                assert segment_of(pa.path, sched) == \
                    family_segment(pa.path, sched)
                assert point_of(pa, sched) == pt
                assert locate(pt, gen, sched) == pa

    @pytest.mark.parametrize("seed", range(9))
    def test_candidate_centers_match_fraction_reference(self, seed):
        # the centers build_mu_tilde draws at seeds 0 to 8, on which the
        # ball masses of the packing pipeline depend
        sched = schedule_thm11(2)
        rng = random.Random(seed)
        want = sorted({(pt.x, pt.y) for pt in (
            family_point(sample_address(sched, 2, rng), sched)
            for _ in range(128))})
        got = CantorMeasure(sched, 2).candidate_centers(F(1, 64), seed, 128)
        assert got == want

    def test_locate_roundtrip(self):
        sched = schedule_thm11(3)
        rng = random.Random(21)
        for _ in range(25):
            pa = sample_address(sched, 3, rng)
            pt = point_of(pa, sched)
            back = locate(pt, 3, sched)
            assert back.path == pa.path
            assert point_of(back, sched) == pt

    def test_classify_branches(self):
        sched = schedule_tame(3)
        rng = random.Random(2)
        pa = sample_address(sched, 3, rng,
                            force_branch={1: DOWN, 2: UP, 3: DOWN})
        assert classify(pa, 1) == DOWN
        assert classify(pa, 2) == UP
        assert classify(pa, 3) == DOWN
        with pytest.raises(ValueError):
            classify(pa, 4)

    def test_up_mass_fraction_is_a_k(self):
        # mass carried by segments that branch up at the last level
        sched = schedule_tame(2)
        segs = exact_window(sched, 2, Ball((F(1, 2), F(1, 16)), 4)).segments
        up_mass = sum(seg.mass for seg in segs
                      if locate(seg.left, 2, sched).path[1][1] == UP)
        assert up_mass == sched.a_of(2)

    def test_classify_matches_nearest_segment(self):
        # the nearest generation-k segment of a deep point is its own
        # generation-k ancestor, whose branch is the address entry
        sched = schedule_thm11(2)
        rng = random.Random(31)
        for _ in range(15):
            pa = sample_address(sched, 2, rng)
            pt = point_of(pa, sched)
            ball = Ball((pt.x, pt.y), 2 * sched.h_of(1))
            best = None
            for seg in exact_window(sched, 1, ball).segments:
                addr = locate(seg.left, 1, sched).path
                xn = min(max(pt.x, seg.left.x), seg.right.x)
                d2 = (xn - pt.x) ** 2 + (seg.y - pt.y) ** 2
                if best is None or d2 < best[0]:
                    best = (d2, addr)
            assert best is not None
            assert best[1][0][1] == classify(pa, 1)


class TestTransport:
    def test_left_piece_translates_to_down_child(self):
        sched = FIG
        parent = ROOT
        n = sched.n_of(1)
        piece = parent.length / n
        x = RationalPoint(piece / 3, 0)  # inside the first piece's left part
        tx = transport(x, 0, sched)
        down0 = children(parent, 0, 1 - sched.a_of(1), n)[0]
        assert tx.y == 0
        assert down0.left.x <= tx.x <= down0.right.x
        assert tx.x - down0.left.x == x.x - 0  # pure translation

    def test_right_piece_lifts_to_up_child(self):
        sched = FIG
        n = sched.n_of(1)
        piece = F(1, n)
        w_down = (1 - sched.a_of(1)) * piece
        x = RationalPoint(w_down + (piece - w_down) / 2, 0)
        tx = transport(x, 0, sched)
        assert tx.y == sched.h_of(1)

    def test_displacement_bounded_by_step(self):
        sched = schedule_thm11(3)
        rng = random.Random(6)
        for k in (0, 1, 2):
            worst = 0.0
            for _ in range(25):
                pa = sample_address(sched, k, rng)
                x = point_of(pa, sched)
                tx = transport(x, k, sched)
                disp = math.hypot(float(tx.x - x.x), float(tx.y - x.y))
                worst = max(worst, disp / float(sched.h_of(k + 1)))
            assert worst <= 1.5

    def test_pushforward_cell_masses_exact(self):
        sched = schedule_thm11(3)
        rng = random.Random(8)
        for k in (0, 1, 2):
            pa = sample_address(sched, k, rng)
            parent = segment_of(pa.path, sched)
            n = sched.n_of(k + 1)
            for cells in (transport_cells(parent, k, sched,
                                          indices=[0, n // 2, n - 1]),):
                for cell in cells:
                    assert cell.source_mass_at(parent.density) == \
                        cell.target.mass

    def test_cells_carry_left_ends_and_midpoints(self):
        # a down cell is closed on the left; an up cell is left-open, its
        # left end being the right end of the down cell of the same piece
        sched = schedule_thm11(3)
        rng = random.Random(9)
        for k in (0, 1, 2):
            for _ in range(3):
                parent = segment_of(sample_address(sched, k, rng).path, sched)
                n = sched.n_of(k + 1)
                cells = transport_cells(parent, k, sched,
                                        [0, rng.randrange(n), n - 1])
                for down, up in zip(cells[::2], cells[1::2]):
                    assert (down.branch, up.branch) == (DOWN, UP)
                    for cell in (down, up):
                        mid = (cell.source_lo + cell.source_hi) / 2
                        tgt = cell.target
                        assert transport(RationalPoint(mid, parent.y), k,
                                         sched) == RationalPoint(
                            (tgt.left.x + tgt.right.x) / 2, tgt.y)
                    assert transport(RationalPoint(down.source_lo, parent.y),
                                     k, sched) == down.target.left
                    assert transport(RationalPoint(up.source_lo, parent.y),
                                     k, sched) == down.target.right

    @pytest.mark.parametrize("j", [8, -1])
    def test_piece_index_outside_parent_rejected(self, j):
        # tame has n_1 = 8 pieces per parent: 0..7
        with pytest.raises(ValueError, match=f"piece index {j} outside 0..7"):
            transport_cells(ROOT, 0, schedule_tame(1), [j])

    def test_point_off_support_rejected(self):
        sched = schedule_tame(2)
        with pytest.raises(ValueError):
            transport(RationalPoint(F(1, 2), F(1, 100)), 1, sched)
        # generation-1 gap point
        with pytest.raises(ValueError):
            transport(RationalPoint(F(1, 2), F(1, 8)), 1, sched)
