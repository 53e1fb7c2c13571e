"""Record the reference outputs that every benchmark pass is checked
against, for every pool entry of every workload and size.

    python3 perfbench/record_reference.py

Run it only at a commit whose outputs are the agreed reference.  A change
that claims a speed-up must leave ``reference.json`` alone: its outputs
are then checked against the numbers of the commit that recorded it.
"""

import json
import platform
import sys

import run  # sets the one-thread environment before numpy loads


def _failures(outputs, failed_type):
    if isinstance(outputs, failed_type):
        yield outputs.message
    elif isinstance(outputs, (list, tuple)):
        for out in outputs:
            yield from _failures(out, failed_type)


def main():
    sys.path.insert(0, str(run.SRC))
    import numpy
    import workloads

    reference = {"recorded_at": run.git_commit(run.ROOT),
                 "python": platform.python_version(),
                 "numpy": numpy.__version__}
    for size in workloads.SIZES:
        reference[size] = {}
        for wl in workloads.WORKLOADS.values():
            lib = workloads.load_library()
            entries = wl.pool_entries(size)
            st = wl.setup(lib, size, entries, run.OUT / "tmp")
            outputs = wl.run_pass(st)
            failed = list(_failures(outputs, workloads.Failed))
            if failed:
                raise SystemExit(f"{size}/{wl.name}: {failed[0]}")
            reference[size][wl.name] = wl.summarize(st, outputs)
            print(f"{size}/{wl.name}: {len(entries)} entries", flush=True)
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
