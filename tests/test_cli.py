"""Command-line front end: files, determinism, exit codes, schema."""

import importlib
import json
import sys
from collections import Counter

import pytest

from betacantor.beta import (beta_both_radii, increment_pair,
                             square_function, sum_squares)
from betacantor.cantor import CantorMeasure
from betacantor.cli import (VARIANTS, ExperimentConfig, _sampled_points,
                            _write_csv, build_parser, load_config, main)
from betacantor.measures import read_measure


def run(*args):
    return main(list(args))


def write_config(tmp_path, **overrides):
    cfg = {
        "flavor": "custom",
        "k_max": 2,
        "custom_a": ["1/2", "1/4"],
        "custom_h": ["1/4", "1/32"],
        "custom_n": [3, 4],
        "out_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestGenerate:
    def test_figure_style_counts(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run("--config", str(cfg), "generate") == 0
        out = tmp_path / "out"
        summary = json.loads((out / "generate_summary.json").read_text())
        counts = {g["k"]: g["m_k"] for g in summary["generations"]}
        assert counts == {0: "1", 1: "6", 2: "48"}
        e1 = read_measure(out / "ek_1.txt")
        assert len(e1.segments) == 6
        e2 = read_measure(out / "ek_2.txt")
        assert len(e2.segments) == 48
        assert e2.total_mass == 1
        assert (out / "generations.svg").exists()
        assert (out / "SCHEMA.md").exists()

    def test_faithful_generation_counted_only(self, tmp_path):
        out = tmp_path / "o"
        assert run("--flavor", "thm11", "--k-max", "2", "--out", str(out),
                   "generate") == 0
        summary = json.loads((out / "generate_summary.json").read_text())
        modes = {g["k"]: g["mode"] for g in summary["generations"]}
        assert modes[1] == "enumerated"
        assert modes[2] == "counted-only"
        assert summary["faithful"] is True

    def test_windowed_generation(self, tmp_path):
        # tame generation 3 exceeds the enumeration limit but a small
        # window of it stays materializable
        cfgp = write_config(tmp_path, flavor="tame", k_max=3,
                            window=["0", "0", "1/100000"])
        assert run("--config", str(cfgp), "generate") == 0
        out = tmp_path / "out"
        summary = json.loads((out / "generate_summary.json").read_text())
        gen3 = [g for g in summary["generations"] if g["k"] == 3][0]
        assert gen3["mode"] == "windowed"
        assert gen3["window_segments"] > 0


class TestExitCodes:
    def test_invalid_config(self, tmp_path):
        assert run("--flavor", "custom", "--out", str(tmp_path / "x"),
                   "generate") == 2

    def test_bad_key_in_config_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"no_such_key": 1}))
        assert run("--config", str(path), "generate") == 2

    @pytest.mark.parametrize("name, text, hide_tomllib", [
        ("c.json", "{not json", False),
        ("c.json", "[1, 2]", False),
        ("c.toml", "k_max = ", False),
        ("c.toml", "k_max = 1", True),  # Python 3.10 has no tomllib
    ])
    def test_malformed_config_file(self, tmp_path, monkeypatch, capsys,
                                   name, text, hide_tomllib):
        if hide_tomllib:
            monkeypatch.setitem(sys.modules, "tomllib", None)
        path = tmp_path / name
        path.write_text(text)
        assert run("--config", str(path), "generate") == 2
        assert str(path) in capsys.readouterr().err

    def test_schedule_budget_exhaustion(self, tmp_path):
        assert run("--flavor", "thm11", "--k-max", "12",
                   "--out", str(tmp_path / "x"), "generate") == 3

    @pytest.mark.parametrize("command, key, value", [
        ("corona", "a0", 10), ("corona", "c0", 0.5), ("corona", "depth", -1),
        ("corona", "c_thr", 0.5), ("corona", "beta_sample", 0),
        ("approx", "eps", 0.7), ("approx", "vitali_lambda", 2.0),
        ("approx", "rho", "0"), ("approx", "rho", "1/0"),
    ])
    def test_out_of_range_corona_approx_values(self, tmp_path, command, key,
                                               value):
        path = write_config(tmp_path, **{key: value})
        assert run("--config", str(path), command) == 2

    @pytest.mark.parametrize("key", ["a0", "c0", "c_thr", "vitali_lambda"])
    def test_nan_corona_approx_values_rejected(self, tmp_path, capsys, key):
        # NaN fails every ordered comparison, so a range check must fail
        # on it; a NaN c0 would reach corona.json, which JSON cannot hold
        path = write_config(tmp_path, flavor="tame", k_max=1,
                            **{key: float("nan")})
        assert run("--config", str(path), "corona") == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, key, value", [
        ("corona", "depth", 2.5), ("corona", "a0", "50"),
        ("beta", "p", 1.5), ("beta", "samples", "3"), ("approx", "eps", None),
    ])
    def test_mistyped_config_values(self, tmp_path, command, key, value):
        path = write_config(tmp_path, **{key: value})
        assert run("--config", str(path), command) == 2

    @pytest.mark.parametrize("command, overrides", [
        ("beta", {"flavor": "thm11", "h1": "abc"}),
        ("beta", {"flavor": "thm11", "h1": float("inf")}),
        ("generate", {"custom_a": ["1/2"]}),
        ("generate", {"custom_h": ["2", "1/32"]}),
        ("generate", {"custom_n": [2, 4]}),
        ("generate", {"custom_h": ["1/0", "1/32"]}),
        ("generate", {"flavor": "tame", "k_max": 3,
                      "window": ["1/2", "0", "0"]}),
        ("generate", {"flavor": "tame", "k_max": 3,
                      "window": ["1/2", "abc", "1/8"]}),
        ("beta", {"flavor": "tame", "k_max": 0}),
        # step heights that do not halve: overlapping lines, and an empty
        # sqfn step window (h_g, h_{g-1}/2]
        ("generate", {"custom_h": ["1/4", "1/4"], "custom_n": [3, 3]}),
        ("sqfn", {"custom_h": ["1/4", "1/4"], "custom_n": [3, 3]}),
        ("beta", {"custom_h": ["1/4", "1/4"], "custom_n": [3, 3]}),
        ("sqfn", {"flavor": "thm11", "k_max": 1, "h1": "1/2"}),
    ])
    def test_bad_schedule_and_window_values(self, tmp_path, command,
                                            overrides):
        path = write_config(tmp_path, **overrides)
        assert run("--config", str(path), command) == 2

    def test_numeric_rho_and_null_beta_sample_accepted(self, tmp_path):
        path = write_config(tmp_path, rho=0.0625, beta_sample=None,
                            p=[1.5, 2], window=["0", 0, "1/8"])
        cfg = load_config(build_parser().parse_args(
            ["--config", str(path), "corona"]))
        assert cfg.rho == 0.0625 and cfg.beta_sample is None
        assert cfg.p == (1.5, 2)

    def test_bad_p(self, tmp_path):
        assert run("--flavor", "tame", "--p", "0.5",
                   "--out", str(tmp_path / "x"), "beta") == 2

    @pytest.mark.parametrize("command, flag, value, key", [
        ("beta", "--p", "nan", "p"), ("beta", "--p", "inf", "p"),
        ("beta", "--r-max", "inf", "r_max"),
        ("sqfn", "--r-max", "inf", "r_max"),
        ("sqfn", "--r-min", "nan", "r_min"),
        ("beta", "--r-min", "inf", "r_min"),
    ])
    def test_non_finite_values_rejected(self, tmp_path, capsys, command, flag,
                                        value, key):
        # an infinite r_max never ended the radius grid; p = nan wrote nan
        assert run("--flavor", "tame", "--k-max", "1", flag, value,
                   "--out", str(tmp_path / "x"), command) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key, value", [
        ("p", [1.5, float("inf")]), ("r_max", float("nan"))])
    def test_non_finite_config_values_rejected(self, tmp_path, capsys, key,
                                               value):
        path = write_config(tmp_path, **{key: value})
        assert run("--config", str(path), "beta") == 2
        assert key in capsys.readouterr().err


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        args = ["--flavor", "tame", "--k-max", "1", "--samples", "2",
                "--p", "1.5", "--seed", "3", "--r-min", "0.01",
                "--r-max", "0.2"]
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run(*args, "--out", str(out), "beta") == 0
            blobs.append({f.name: f.read_bytes()
                          for f in sorted(out.iterdir())})
        assert blobs[0] == blobs[1]

    def test_seed_changes_output(self, tmp_path):
        args = ["--flavor", "tame", "--k-max", "1", "--samples", "2",
                "--p", "1.5", "--r-min", "0.01", "--r-max", "0.2"]
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert run(*args, "--seed", "1", "--out", str(out1), "beta") == 0
        assert run(*args, "--seed", "2", "--out", str(out2), "beta") == 0
        assert (out1 / "beta.csv").read_bytes() != \
            (out2 / "beta.csv").read_bytes()

    def test_config_hash_pinned(self, tmp_path):
        # the hash heads every CSV and JSON output, so it must not drift
        assert ExperimentConfig().config_hash == "6703a3a5f2e1"
        custom = ExperimentConfig(flavor="custom", custom_a=("1/2",),
                                  custom_h=("1/8",), custom_n=(8,),
                                  window=("0", "0", "1/40"), p=(1.5, 2.0))
        assert custom.config_hash == "747bebf29b3f"
        # a config file gives the same hash, whatever its output directory
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "flavor": "custom", "custom_a": ["1/2"], "custom_h": ["1/8"],
            "custom_n": [8], "window": ["0", "0", "1/40"], "p": [1.5, 2.0],
            "out_dir": str(tmp_path / "elsewhere")}))
        args = build_parser().parse_args(["--config", str(path), "beta"])
        assert load_config(args).config_hash == "747bebf29b3f"

    def test_timestamp_flag_only_touches_svg(self, tmp_path):
        cfg1 = write_config(tmp_path, out_dir=str(tmp_path / "t1"))
        assert run("--config", str(cfg1), "generate") == 0
        cfg2 = write_config(tmp_path, out_dir=str(tmp_path / "t2"))
        assert run("--config", str(cfg2), "--timestamp", "generate") == 0
        svg1 = (tmp_path / "t1" / "generations.svg").read_text()
        svg2 = (tmp_path / "t2" / "generations.svg").read_text()
        assert "<!-- generated" not in svg1
        assert "<!-- generated" in svg2


class TestPipelines:
    def test_witness_rows(self, tmp_path):
        out = tmp_path / "w"
        assert run("--flavor", "tame", "--k-max", "2", "--samples", "2",
                   "--out", str(out), "witness") == 0
        rows = (out / "witness.csv").read_text().strip().splitlines()
        assert rows[1].split(",")[0] == "k"
        assert len(rows) == 2 + 2 * 2  # header+comment, k in {1,2} x 2 pts

    def test_corona_and_approx(self, tmp_path):
        out = tmp_path / "c"
        assert run("--flavor", "tame", "--k-max", "1", "--r-min", "0.01",
                   "--r-max", "1.0", "--out", str(out), "corona") == 0
        blob = json.loads((out / "corona.json").read_text())
        assert blob["n_cubes"] > 0
        packing = (out / "packing.csv").read_text().strip().splitlines()
        assert len(packing) == 4  # comment, header, two grid rows

        out2 = tmp_path / "a"
        assert run("--flavor", "tame", "--k-max", "1", "--r-max", "1.0",
                   "--out", str(out2), "approx") == 0
        mu_tilde = read_measure(out2 / "mu_tilde.txt")
        assert len(mu_tilde.segments) > 0
        comparison = (out2 / "comparison.csv").read_text().strip()
        ratio = float(comparison.splitlines()[-1].split(",")[-1])
        assert 0 < ratio < 10


class TestOneSearchPerCoefficient:
    # 2 points x 2 exponents; 6 grid radii 0.5 * 2^-m >= 0.01; the tame
    # increment windows (1/8, 1/2] and (1/64, 1/16] hold 2 scales each
    ARGS = ["--flavor", "tame", "--k-max", "2", "--samples", "2",
            "--p", "1.5", "2", "--seed", "4", "--r-min", "0.01",
            "--r-max", "0.5", "--lambda", "0.5"]

    def counted_run(self, monkeypatch, tmp_path, command):
        """Run ``command``; check the windows that enter the batched
        general-p search, and return the windows scored by the core, per
        (generation, point, radius, p), and one (generation, point, radii)
        entry per ``CantorMeasure.unit_windows`` call."""
        # the package namespace shadows the module with the function beta
        module = importlib.import_module("betacantor.beta")
        core = module._best_lines
        search = module._search
        unit_windows = CantorMeasure.unit_windows
        tags = {}   # id(window) -> (generation, x, y, r)
        alive = []  # the tagged windows, so that no id is reused
        windows = []
        cores = []
        searches = []
        batches = []

        def tagging(mu, cx, cy, radii):
            windows.append((mu.gen, float(cx), float(cy), len(radii)))
            for r, win in zip(radii, unit_windows(mu, cx, cy, radii)):
                tags[id(win)] = (mu.gen, float(cx), float(cy), float(r))
                alive.append(win)
                yield win

        def counting_core(wins, p):
            def counted():
                for win in wins:
                    cores.append((*tags[id(win)], p))
                    yield win
            return core(counted(), p)

        def counting_search(wins, p):
            keys = [(*tags[id(win)], p) for win in wins]
            # a collinear window is scored 0 on its line, never searched
            assert all(win.line is None for win in wins)
            searches.extend(keys)
            batches.append({(g, x, y, p) for g, x, y, _, p in keys})
            return search(wins, p)

        monkeypatch.setattr(CantorMeasure, "unit_windows", tagging)
        monkeypatch.setattr(module, "_best_lines", counting_core)
        monkeypatch.setattr(module, "_search", counting_search)
        assert run(*self.ARGS, "--out", str(tmp_path / command),
                   command) == 0
        cores, searches = Counter(cores), Counter(searches)
        # a window enters the search at most once, only at p = 1.5 (p = 2
        # takes the closed form), and all the searched windows of the
        # command and exponent, at every point and generation, enter in
        # one batch
        assert set(searches.values()) == {1}
        assert set(searches) <= {key for key in cores if key[-1] == 1.5}
        assert {p for *_, p in searches} == {1.5}
        batches = [batch for batch in batches if batch]
        assert batches == [{(g, x, y, p) for g, x, y, _, p in searches}]
        return cores, windows

    @staticmethod
    def per_point(windows):
        """Radii per ``unit_windows`` call, sorted, for each point."""
        points = {}
        for *point, n in windows:
            points.setdefault(tuple(point), []).append(n)
        return sorted(sorted(ns) for ns in points.values())

    def test_beta_searches_once_per_point_p_radius(self, monkeypatch,
                                                   tmp_path):
        # one unit_windows call per point and exponent, over the 6 grid
        # radii
        cores, windows = self.counted_run(monkeypatch, tmp_path, "beta")
        assert set(cores.values()) == {1}
        assert sum(cores.values()) == 2 * 2 * 6
        assert self.per_point(windows) == [[6, 6]] * 2

    def test_sqfn_searches_once_per_point_p_radius(self, monkeypatch,
                                                   tmp_path):
        # each exponent takes all the radii of a point and sum from one
        # unit_windows call: 6 radii at each of the 2 points of sqfn.csv, 2
        # at each of the 2 points per generation window of increments.csv
        cores, windows = self.counted_run(monkeypatch, tmp_path, "sqfn")
        assert set(cores.values()) == {1}
        assert {p for *_, p in cores} == {1.5, 2.0}
        assert sum(cores.values()) == 2 * 2 * (6 + 2 + 2)
        assert self.per_point(windows) == [[2, 2]] * 4 + [[6, 6]] * 2


class TestBatchedCommands:
    """``beta`` and ``sqfn`` search every point of an exponent in one
    batch; their files must hold the rows that the one-point functions give,
    point after point, as the commands wrote them before they batched."""

    ARGS = ["--flavor", "tame", "--k-max", "2", "--samples", "3",
            "--p", "1.5", "2", "3", "--seed", "5", "--r-min", "0.01",
            "--r-max", "0.5", "--lambda", "0.5"]

    def config(self, tmp_path):
        return load_config(build_parser().parse_args(
            [*self.ARGS, "--out", str(tmp_path / "want"), "beta"]))

    def test_beta_rows_match_one_point_calls(self, tmp_path):
        cfg = self.config(tmp_path)
        sched = cfg.schedule()
        mu = CantorMeasure(sched, cfg.k_max)
        radii = cfg.scale_grid().radii()
        nan = float("nan")
        rows = []
        for _, pt in _sampled_points(sched, cfg.k_max, cfg.samples,
                                     cfg.seed):
            x, y = float(pt.x), float(pt.y)
            for p in cfg.p:
                for r, both in zip(radii, beta_both_radii(
                        mu, (pt.x, pt.y), radii, p)):
                    for variant, res in zip(VARIANTS, both):
                        rows.append((x, y, r, p, variant, nan, nan, nan, 0.0)
                                    if res is None else
                                    (x, y, r, p, variant, res.value,
                                     res.line.phi, res.line.c,
                                     res.ball_mass))
        want = tmp_path / "want.csv"
        _write_csv(want, cfg, ["x", "y", "r", "p", "variant", "beta", "phi",
                               "c", "ball_mass"], rows)
        assert run(*self.ARGS, "--out", str(tmp_path / "got"), "beta") == 0
        assert (tmp_path / "got" / "beta.csv").read_bytes() == \
            want.read_bytes()

    def test_sqfn_rows_match_one_point_calls(self, tmp_path):
        cfg = self.config(tmp_path)
        sched = cfg.schedule()
        grid = cfg.scale_grid()
        mu = CantorMeasure(sched, cfg.k_max)
        rows = []
        for _, pt in _sampled_points(sched, cfg.k_max, cfg.samples,
                                     cfg.seed):
            for p in cfg.p:
                sums = square_function(mu, (pt.x, pt.y), p, grid)
                empty_balls = sum_squares(
                    [(mu, (pt.x, pt.y),
                      [(r, grid.log_weight) for r in grid.radii()])],
                    p)[0][2]
                for variant, total, empty in zip(VARIANTS, sums,
                                                 (0, empty_balls)):
                    rows.append((float(pt.x), float(pt.y), p, variant,
                                 grid.r_min, grid.r_max, total, empty))
        inc_rows = []
        for g in range(1, cfg.k_max + 1):
            mu = CantorMeasure(sched, g)
            r_lo = float(sched.h_of(g))
            r_hi = float(sched.h_of(g - 1)) / 2 if g >= 2 else 0.5
            a_g = float(sched.a_of(g))
            for _, pt in _sampled_points(sched, g, cfg.samples,
                                         cfg.seed + g):
                for p in cfg.p:
                    sums = increment_pair(mu, (pt.x, pt.y), p, r_lo, r_hi,
                                          cfg.lam)
                    a_term = a_g ** (2.0 / p)
                    for variant, sub, ref in zip(VARIANTS, sums,
                                                 (a_term, r_lo + a_term)):
                        inc_rows.append((g, float(pt.x), float(pt.y), p,
                                         variant, r_lo, r_hi, sub, ref,
                                         sub / ref))
        _write_csv(tmp_path / "sqfn.csv", cfg,
                   ["x", "y", "p", "variant", "r_min", "r_max",
                    "square_function", "empty_balls"], rows)
        _write_csv(tmp_path / "increments.csv", cfg,
                   ["gen", "x", "y", "p", "variant", "r_lo", "r_hi",
                    "subsum", "reference", "ratio"], inc_rows)
        assert run(*self.ARGS, "--out", str(tmp_path / "got"), "sqfn") == 0
        for name in ("sqfn.csv", "increments.csv"):
            assert (tmp_path / "got" / name).read_bytes() == \
                (tmp_path / name).read_bytes()
