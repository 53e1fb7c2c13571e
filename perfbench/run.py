"""Benchmark runner for one workload.

    python3 perfbench/run.py --workload increments|packing|cli \\
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from anywhere; the package is imported from ``src/`` next to this
directory and from nowhere else.  After set-up (repeated, median reported)
and one untimed warm-up pass over the tiny inputs, timed passes run back to back until
``--seconds`` have passed.  Every pass is checked against
``reference.json``.  With ``--trace 1`` untraced and traced passes
alternate, and the traced ones yield the per-layer metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
``BENCHMARK.json`` without tracing, its per-layer metrics with).  The full
record, machine facts included, goes to ``.perfbench/BENCH_*.json``.
"""

import os

# one thread: set before numpy is imported anywhere in this process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 9
MIN_PASSES = 3           # untimed warm-up excluded
MIN_TRACED_PASSES = 2


def git_commit(root):
    """Commit of the checkout, read from ``.git`` without running git;
    None outside a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("increments", "packing", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    return ap.parse_args(argv)


def run(args, spec, reference):
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    entries = wl.entries_for_seed(args.seed, args.size)
    ref = reference[args.size][wl.name]

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lib = workloads.load_library()
        st = wl.setup(lib, args.size, entries, OUT / "tmp")
        setup_times.append(time.perf_counter() - t0)
    if not Path(lib.beta.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"betacantor imported from {lib.beta.__file__}")

    # untimed warm-up: one pass over the tiny inputs runs the same code
    # paths for a fraction of a full pass
    warm = wl.setup(lib, "tiny", wl.entries_for_seed(args.seed, "tiny"),
                    OUT / "tmp")
    wl.check(warm, wl.run_pass(warm), reference["tiny"][wl.name])

    tracer = tracing.Tracer() if args.trace else None
    walls = {False: [], True: []}
    ops = []
    layers = []
    span_calls = None
    spans = []
    start = time.perf_counter()
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        t0 = time.perf_counter()
        try:
            outputs = wl.run_pass(st)
            wall = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        results, rows = wl.check(st, outputs, ref)
        ops.extend(results)
        walls[traced].append(wall)
        if traced:
            metrics, calls = tracing.layer_metrics(tracer.spans, st.coeffs,
                                                 rows, wall)
            layers.append(metrics)
            span_calls = span_calls or calls
            spans = [list(s) for s in tracer.spans]
        i += 1
        # start another pass only if it should end within half a pass of
        # the deadline, so a run measures about --seconds on average
        if (time.perf_counter() - start + wall / 2 >= args.seconds
                and len(walls[False]) >= MIN_PASSES
                and (tracer is None or len(walls[True]) >= MIN_TRACED_PASSES)):
            break

    failed = sum(not op.ok for op in ops)
    max_dev = max(op.dev for op in ops)
    wall_s = statistics.median(walls[False])
    e2e = {
        "wall_s": wall_s,
        "coeffs_per_s": st.coeffs / wall_s,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    counts_repeat = True
    layer = {}
    if layers:
        for key in layers[0]:
            values = [m[key] for m in layers]
            if key.endswith("self_s") or key == "trace.top_coverage":
                layer[key] = statistics.median(values)
            else:
                layer[key] = values[0]
                counts_repeat &= all(v == values[0] for v in values)
        layer["trace.overhead_s"] = (statistics.median(walls[True])
                                     - wall_s)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layer if args.trace else e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    result = {"correct": failed == 0 and counts_repeat,
              "attempted": len(ops), "failed": failed, "metrics": metrics}

    import numpy
    record = {
        "workload": wl.name, "size": args.size, "seed": args.seed,
        "held_out_seed": workloads.HELD_OUT_SEED, "trace": args.trace,
        "seconds": args.seconds, "entries": entries,
        "commit": git_commit(ROOT),
        "machine": {"nproc": os.cpu_count(),
                    "affinity": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(),
                    "numpy": numpy.__version__,
                    "platform": platform.platform()},
        "setup_times_s": setup_times,
        "pass_walls_s": {"untraced": walls[False], "traced": walls[True]},
        "coeffs_per_pass": st.coeffs,
        "failed_frac": failed / len(ops), "max_rel_dev": max_dev,
        "failures": [op.error for op in ops if not op.ok][:20],
        "counts_repeat": counts_repeat,
        "end_to_end": e2e, "per_layer": layer,
        "span_calls": span_calls,
        "unbound_spans": tracer.unbound if tracer else [],
        "digests": getattr(st, "digests", None),
        "result": result,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{wl.name}_{args.size}_s{args.seed}_t{args.trace}"
    (OUT / f"BENCH_{tag}.json").write_text(json.dumps(record, indent=1))
    if spans:
        t_base = spans[0][1]
        (OUT / f"TRACE_{tag}.json").write_text(json.dumps(
            [[n, s - t_base, e - t_base, parent, count]
             for n, s, e, parent, count in spans]))

    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':40s} {failed / len(ops):.6g} 1")
    print(f"{'max_rel_dev':40s} {max_dev:.6g} 1")
    print(json.dumps(result))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    if not (SRC / "betacantor" / "__init__.py").is_file():
        return fail(f"no betacantor package under {SRC}")
    spec_path = ROOT / "BENCHMARK.json"
    ref_path = HERE / "reference.json"
    if not spec_path.is_file() or not ref_path.is_file():
        return fail("BENCHMARK.json or perfbench/reference.json missing")
    spec = json.loads(spec_path.read_text())
    reference = json.loads(ref_path.read_text())
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    return run(args, spec, reference)


if __name__ == "__main__":
    sys.exit(main())
