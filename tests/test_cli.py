"""Command-line front end: files, determinism, exit codes, schema."""

import importlib
import json
from collections import Counter

import pytest

from betacantor.cli import main
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

    def test_bad_p(self, tmp_path):
        assert run("--flavor", "tame", "--p", "0.5",
                   "--out", str(tmp_path / "x"), "beta") == 2


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

    def searches(self, monkeypatch, tmp_path, command):
        # the package namespace shadows the module with the function beta
        module = importlib.import_module("betacantor.beta")
        core = module._beta_core
        calls = []

        def counting(mu, x, r, p):
            calls.append((mu.gen, float(x[0]), float(x[1]), float(r), p))
            return core(mu, x, r, p)

        monkeypatch.setattr(module, "_beta_core", counting)
        assert run(*self.ARGS, "--out", str(tmp_path / command),
                   command) == 0
        return Counter(calls)

    def test_beta_searches_once_per_point_p_radius(self, monkeypatch,
                                                   tmp_path):
        calls = self.searches(monkeypatch, tmp_path, "beta")
        assert set(calls.values()) == {1}
        assert sum(calls.values()) == 2 * 2 * 6

    def test_sqfn_searches_once_per_point_p_radius(self, monkeypatch,
                                                   tmp_path):
        calls = self.searches(monkeypatch, tmp_path, "sqfn")
        assert set(calls.values()) == {1}
        assert sum(calls.values()) == 2 * 2 * (6 + 2 + 2)
