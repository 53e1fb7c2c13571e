"""Smoke test and self-checks of the benchmark at tiny input sizes.

    python3 -m pytest perfbench -q

Every metric named in BENCHMARK.json must come out with its unit and the
correctness check must pass; every declared span must fire on the workload
meant to exercise it, and the per-layer counts must repeat exactly across
two traced runs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TIMES = ("self_s", "trace.top_coverage", "trace.overhead_s")

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        capture_output=True, text=True, timeout=120, cwd=cwd)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench_record(workload, trace):
    path = ROOT / ".perfbench" / f"BENCH_{workload}_tiny_s0_t{trace}.json"
    return json.loads(path.read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_unit_and_correct(workload, trace):
    result = result_of(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in wanted})
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    record = bench_record(workload, trace)
    assert record["failed_frac"] == 0 and record["max_rel_dev"] == 0
    assert record["machine"]["numpy"] and record["seed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_fire_and_counts_repeat(workload):
    counts = []
    for _ in range(2):
        assert result_of(run_bench(workload, 1))["correct"] is True
        record = bench_record(workload, 1)
        assert record["unbound_spans"] == []
        fired = {name for name, n in record["span_calls"].items() if n > 0}
        expected = {name for name, *_, wls in tracing.SPANS
                    if workload in wls}
        assert expected <= fired, expected - fired
        assert record["per_layer"]["trace.top_coverage"] > 0.95
        counts.append({k: v for k, v in record["per_layer"].items()
                       if not k.endswith(TIMES)})
    assert counts[0] == counts[1]


def reference_key(entry):
    return f"{entry[0]}:{entry[1]}" if isinstance(entry, tuple) else str(entry)


@pytest.mark.parametrize("size", ["full", "tiny"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_held_out_seed_runs_a_reserved_entry(workload, size):
    wl = workloads.WORKLOADS[workload]
    held_out = set(wl.entries_for_seed(workloads.HELD_OUT_SEED, size))
    others = {entry for seed in range(1000)
              for entry in wl.entries_for_seed(seed, size)}
    assert held_out and not held_out & others
    assert held_out | others == set(wl.pool_entries(size))
    recorded = json.loads((HERE / "reference.json").read_text())[size]
    assert ({reference_key(e) for e in held_out | others}
            == set(recorded[workload]))


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("cli", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_direct_children():
    spans = [
        ["corona.packing_report", 0.0, 10.0, -1, None],
        ["beta.square_function", 1.0, 4.0, 0, None],
        ["beta.build_window", 2.0, 3.0, 1, 5],
        ["beta.square_function", 5.0, 6.0, 0, None],
    ]
    m, calls = tracing.layer_metrics(spans, coeffs=2, rows=0, pass_wall=10.0)
    assert m["corona.packing_report.self_s"] == 6.0
    assert m["beta.square_function.self_s"] == 3.0
    assert m["beta.build_window.self_s"] == 1.0
    assert m["corona.packing_report.sqfn_calls"] == 2
    assert m["beta.windows_per_coeff"] == 0.5
    assert m["beta.path.trivial_frac"] == 1.0
    assert m["beta.window.size_max"] == 5
    assert m["trace.top_coverage"] == 1.0
    assert calls["beta.square_function"] == 2
