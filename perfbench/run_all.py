"""Run every workload (or a chosen few) over one or more seeds, each in its
own process, and print every metric by name and unit, then per workload
the median and quartile spread of each metric across seeds.

    python3 perfbench/run_all.py                       # seed 0, untraced
    python3 perfbench/run_all.py --seeds 0-9           # spread check
    python3 perfbench/run_all.py --trace 1 --seeds 99991

Exits with 1 if any run reports ``correct: false`` or fails to finish.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="0")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--size", args.size],
                capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr}")
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record = json.loads((ROOT / ".perfbench" / (
                f"BENCH_{workload}_{args.size}_s{seed}_t{args.trace}.json"))
                .read_text())
            ok &= result["correct"]
            print(f"== {workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}"
                  f" failed_frac={record['failed_frac']:.6g}"
                  f" max_rel_dev={record['max_rel_dev']:.6g}")
            for name, m in result["metrics"].items():
                print(f"   {name:40s} {m['value']:.6g} {m['unit']}")
                values.setdefault((name, m["unit"]), []).append(m["value"])
        if all(len(v) >= 2 for v in values.values()) and values:
            print(f"== {workload}: median [q1, q3] (q3-q1)/median over "
                  "seeds")
            for (name, unit), vals in values.items():
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else float("nan")
                print(f"   {name:40s} {med:.6g} [{q1:.6g}, {q3:.6g}] "
                      f"{spread:.4f} {unit}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
