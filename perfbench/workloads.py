"""The benchmark workloads: inputs from the seed, one timed pass, and the
check of every output against the recorded reference.

Each workload is a closed loop on one thread: an operation starts when the
previous one has returned.  The seed picks entries from a fixed pool of
inputs per workload, so every input a seed can select has a reference
output recorded in ``reference.json``; the library only ever sees the
generated inputs (schedule, measure objects, points, seeds, argv).  One
entry past the end of each pool is reserved for the held-out seed, which
alone selects it.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import random
import re
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

#: Relative tolerance on float outputs.  Acceptance 1 holds the general-p
#: search to 1e-6 of the p=2 closed form, so a faithful speed-up of the
#: search may move a coefficient by that much; anything more is a changed
#: result.  Exact rationals (masses, atom totals) must match exactly.
REL_TOL = 1e-6

#: SVG coordinates are printed with two decimals: a value moving within
#: ``REL_TOL`` can flip the last printed digit, and no more.
SVG_ABS_TOL = 0.0100001

P = 1.5                      # the convergence experiment's exponent (p < 2)
LAM = 2.0 ** -0.25           # increment_pair's default scale ratio
POOL_SEED = 1000             # base of the per-entry input generators

#: A seed never used while the benchmark or a change to the library was
#: tuned; run it once before claiming a result.  It alone runs the reserved
#: entry ``pool`` of each pool, so it sees an input no other seed reaches.
HELD_OUT_SEED = 99991

MODULES = ("cantor", "measures", "beta", "density", "corona", "svgfig",
           "cli", "errors")

#: Input sizes.  "full" is what the benchmark measures; "tiny" exists for
#: the smoke test and runs each pass in well under a second.
SIZES = {
    "full": {
        # thm11 generations 2 and 3, whole step window (h_g, h_{g-1}/2]
        "increments": {"pool": 12, "octaves": None},
        # lam=50 and rho=1/64 as in acceptance 10; 128 centers reach the
        # 1-eps coverage on every pool entry only with eps=0.35 (600
        # centers and eps=0.15 take 20 s per pass)
        "packing": {"pool": 8, "rho": Fraction(1, 64), "centers": 128,
                    "eps": 0.35,
                    "spacing": Fraction(1, 25_000), "beta_sample": 40,
                    "grid": (5e-4, 2.0, LAM)},
        "cli": {"pool": 8, "k_max": 2, "samples": 2, "r_min": 0.01,
                "r_max": 0.5, "lam": 0.5},
    },
    "tiny": {
        "increments": {"pool": 2, "octaves": 2},
        "packing": {"pool": 2, "rho": Fraction(1, 8), "centers": 12,
                    "eps": 0.3,
                    "spacing": Fraction(1, 2_000), "beta_sample": 3,
                    "grid": (0.01, 1.0, 0.5)},
        "cli": {"pool": 2, "k_max": 1, "samples": 1, "r_min": 0.1,
                "r_max": 0.5, "lam": 0.5},
    },
}


def pool_index(rng, pool, seed):
    """Pool entry a seed runs: one of ``range(pool)`` drawn from ``rng``,
    or the reserved entry ``pool`` for the held-out seed."""
    return pool if seed == HELD_OUT_SEED else rng.randrange(pool)


def load_library():
    """Import the package afresh: its own modules are dropped and imported
    again (numpy stays loaded), so repeated set-ups each pay the package's
    import cost."""
    for name in [n for n in sys.modules
                 if n == "betacantor" or n.startswith("betacantor.")]:
        del sys.modules[name]
    importlib.import_module("betacantor")
    return SimpleNamespace(**{m: importlib.import_module("betacantor." + m)
                              for m in MODULES})


class Failed:
    """Stands in for the result of an operation that raised."""

    def __init__(self, message):
        self.message = message


def _call(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # every raise is a failed operation
        return Failed(f"{type(exc).__name__}: {exc}")


def rel_dev(got, want):
    """Relative deviation ``|got - want| / max(|got|, |want|)``; equal
    values (NaN included) deviate by 0."""
    if got == want or (math.isnan(got) and math.isnan(want)):
        return 0.0
    if not (math.isfinite(got) and math.isfinite(want)):
        return math.inf
    return abs(got - want) / max(abs(got), abs(want))


def grid_radii(r_min, r_max, lam):
    """Radii of a geometric scale grid ``r_max * lam^m >= r_min``."""
    out = []
    r = float(r_max)
    while r >= r_min * (1.0 - 1e-12):
        out.append(r)
        r *= lam
    return out


def increment_radii(r_lo, r_hi, lam, dense_octaves=16.0):
    """Scales an increment over ``(r_lo, r_hi]`` asks for: ratio ``lam`` over
    the ``dense_octaves`` octaves above ``r_lo``, one per octave above."""
    out = []
    r = float(r_hi)
    switch = r_lo * 2.0 ** dense_octaves
    while r > r_lo * (1.0 + 1e-12):
        out.append(r)
        r *= lam if r <= switch else 0.5
    return out


class Op(SimpleNamespace):
    """Outcome of one operation: ok, largest relative deviation, error."""


def _ok(dev=0.0):
    return Op(ok=dev <= REL_TOL, dev=dev,
              error=None if dev <= REL_TOL else f"deviation {dev:.3g}")


def _bad(error, dev=0.0):
    return Op(ok=False, dev=dev, error=error)


def _compare_floats(got, want):
    dev = max((rel_dev(g, w) for g, w in zip(got, want)), default=0.0)
    if len(got) != len(want):
        return _bad(f"{len(got)} values, reference has {len(want)}")
    return _ok(dev)


# ---------------------------------------------------------------------------
# increments: the p < 2 convergence experiment
# ---------------------------------------------------------------------------

class Increments:
    """``increment_pair`` over the thm11 step window ``(h_g, h_{g-1}/2]`` at
    a sampled point of generation g, for g = 2 and 3."""

    name = "increments"
    gens = (2, 3)

    def entries_for_seed(self, seed, size):
        rng = random.Random(seed)
        pool = SIZES[size][self.name]["pool"]
        return [(gen, pool_index(rng, pool, seed)) for gen in self.gens]

    def pool_entries(self, size):
        pool = SIZES[size][self.name]["pool"]
        return [(gen, j) for gen in self.gens for j in range(pool + 1)]

    def setup(self, lib, size, entries, scratch):
        octaves = SIZES[size][self.name]["octaves"]
        sched = lib.cantor.schedule_thm11(max(self.gens))
        ops = []
        coeffs = 0
        for gen, j in entries:
            rng = random.Random(POOL_SEED + 100 * gen + j)
            pt = lib.cantor.point_of(
                lib.cantor.sample_address(sched, gen, rng), sched)
            r_hi = float(sched.h_of(gen - 1)) / 2
            r_lo = sched.h_of(gen) if octaves is None else r_hi / 2 ** octaves
            ops.append((f"{gen}:{j}", lib.cantor.CantorMeasure(sched, gen),
                        (pt.x, pt.y), r_lo, r_hi))
            coeffs += len(increment_radii(float(r_lo), r_hi, LAM))
        return SimpleNamespace(lib=lib, ops=ops, coeffs=coeffs)

    def run_pass(self, st):
        return [_call(st.lib.beta.increment_pair, mu, x, P, r_lo, r_hi)
                for _, mu, x, r_lo, r_hi in st.ops]

    def summarize(self, st, outputs):
        return {op[0]: list(out) for op, out in zip(st.ops, outputs)}

    def check(self, st, outputs, ref):
        results = []
        for op, out in zip(st.ops, outputs):
            if isinstance(out, Failed):
                results.append(_bad(out.message))
            else:
                results.append(_compare_floats(list(out), ref[op[0]]))
        return results, 0


# ---------------------------------------------------------------------------
# packing: ball approximation -> atoms -> lattice -> corona -> packing report
# ---------------------------------------------------------------------------

PACKING_STEPS = ("build_mu_tilde", "atomize", "build_lattice",
                 "corona_decompose", "packing_report")


class _OneEntry:
    """A workload whose seed picks one entry of its pool."""

    def entries_for_seed(self, seed, size):
        return [pool_index(random.Random(seed),
                           SIZES[size][self.name]["pool"], seed)]

    def pool_entries(self, size):
        return list(range(SIZES[size][self.name]["pool"] + 1))


class Packing(_OneEntry):
    """The acceptance-10 pipeline on the thm11(2) generation-2 measure;
    five operations per entry, each fed by the previous one."""

    name = "packing"

    def setup(self, lib, size, entries, scratch):
        cfg = SIZES[size][self.name]
        sched = lib.cantor.schedule_thm11(2)
        grid = lib.beta.ScaleGrid(*cfg["grid"])
        return SimpleNamespace(
            lib=lib, cfg=cfg, entries=list(entries), grid=grid,
            mu=lib.cantor.CantorMeasure(sched, 2),
            coeffs=len(entries) * cfg["beta_sample"]
            * len(grid_radii(*cfg["grid"])))

    def run_pass(self, st):
        lib, cfg = st.lib, st.cfg
        outputs = []
        for j in st.entries:
            steps = (
                lambda _: lib.density.build_mu_tilde(
                    st.mu, lam=50.0, rho=cfg["rho"], eps=cfg["eps"],
                    c_star=2.0, max_centers=cfg["centers"], seed=j),
                lambda prev: lib.measures.atomize(prev[0], cfg["spacing"]),
                lambda prev: lib.corona.build_lattice(prev, depth=2),
                lambda prev: lib.corona.corona_decompose(prev, 2.0),
                lambda prev: lib.corona.packing_report(
                    prev, st.grid, beta_sample=cfg["beta_sample"], seed=j),
            )
            out = []
            prev = None
            for step in steps:
                prev = (Failed("an earlier step failed")
                        if isinstance(prev, Failed) else _call(step, prev))
                out.append(prev)
            outputs.append(out)
        return outputs

    def summarize(self, st, outputs):
        record = {}
        for j, (mt, atoms, lattice, tree, rep) in zip(st.entries, outputs):
            record[str(j)] = {
                "masses": [str(m) for m in mt[1].masses],
                "n_atoms": len(atoms), "atom_mass": str(atoms.total_mass),
                "cubes": len(lattice.cubes), "roots": len(tree.roots),
                "report": [rep.lhs, rep.rhs_mass, rep.rhs_beta, rep.ratio],
            }
        return record

    def check(self, st, outputs, ref):
        results = []
        for j, out in zip(st.entries, outputs):
            want = ref[str(j)]
            for step, got in zip(PACKING_STEPS, out):
                if isinstance(got, Failed):
                    results.append(_bad(f"{step}: {got.message}"))
                elif step == "build_mu_tilde":
                    same = [str(m) for m in got[1].masses] == want["masses"]
                    results.append(_ok() if same else
                                   _bad("ball masses differ from reference"))
                elif step == "atomize":
                    same = (len(got) == want["n_atoms"]
                            and str(got.total_mass) == want["atom_mass"])
                    results.append(_ok() if same else
                                   _bad("atom count or mass differs"))
                elif step == "build_lattice":
                    results.append(_ok() if len(got.cubes) == want["cubes"]
                                   else _bad("cube count differs"))
                elif step == "corona_decompose":
                    results.append(_ok() if len(got.roots) == want["roots"]
                                   else _bad("root count differs"))
                else:
                    results.append(_compare_floats(
                        [got.lhs, got.rhs_mass, got.rhs_beta, got.ratio],
                        want["report"]))
        return results, 0


# ---------------------------------------------------------------------------
# cli: beta, sqfn and witness through the command-line front end
# ---------------------------------------------------------------------------

CLI_COMMANDS = ("beta", "sqfn", "witness")
CLI_FILES = {
    "beta": ("SCHEMA.md", "beta.csv", "beta_curves.svg"),
    "sqfn": ("sqfn.csv", "increments.csv"),
    "witness": ("witness.csv", "density_profiles.csv"),
}
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _compare_csv(got, want):
    got_rows = got.splitlines()
    want_rows = want.splitlines()
    if len(got_rows) != len(want_rows):
        return _bad(f"{len(got_rows)} lines, reference has {len(want_rows)}")
    dev = 0.0
    for g_line, w_line in zip(got_rows, want_rows):
        g_cells, w_cells = g_line.split(","), w_line.split(",")
        if len(g_cells) != len(w_cells):
            return _bad("column count differs")
        for g, w in zip(g_cells, w_cells):
            if g == w:
                continue
            try:
                dev = max(dev, rel_dev(float(g), float(w)))
            except ValueError:
                return _bad(f"cell {g!r} differs from {w!r}")
    return _ok(dev)


def _compare_svg(got, want):
    if _NUMBER.sub("#", got) != _NUMBER.sub("#", want):
        return _bad("figure structure differs")
    for g, w in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
        if abs(float(g) - float(w)) > SVG_ABS_TOL:
            return _bad(f"figure coordinate {g} differs from {w}")
    return _ok()


def _run_cli(main, argv):
    code = main(argv)
    if code != 0:
        raise RuntimeError(f"exit code {code}")
    return code


def _csv_rows(text):
    return sum(1 for line in text.splitlines()[2:] if line)


class Cli(_OneEntry):
    """In-process ``betacantor.cli.main`` running ``beta``, ``sqfn`` and
    ``witness`` (thm11, p = 1.5) into a fresh directory; three operations
    per entry."""

    name = "cli"

    def argv(self, cfg, j):
        return ["--flavor", "thm11", "--k-max", str(cfg["k_max"]),
                "--p", str(P), "--samples", str(cfg["samples"]),
                "--seed", str(j), "--r-min", str(cfg["r_min"]),
                "--r-max", str(cfg["r_max"]), "--lambda", str(cfg["lam"])]

    def setup(self, lib, size, entries, scratch):
        cfg = SIZES[size][self.name]
        sched = lib.cantor.schedule_thm11(cfg["k_max"])
        # distinct (point, r, p): beta and sqfn share points and grid; the
        # increment windows use points of their own
        per_point = len(grid_radii(cfg["r_min"], cfg["r_max"], cfg["lam"]))
        for g in range(1, cfg["k_max"] + 1):
            r_hi = float(sched.h_of(g - 1)) / 2 if g >= 2 else 0.5
            per_point += len(increment_radii(float(sched.h_of(g)), r_hi,
                                             cfg["lam"]))
        scratch.mkdir(parents=True, exist_ok=True)
        return SimpleNamespace(
            lib=lib, scratch=scratch, entries=list(entries), first={},
            digests={},
            argvs=[self.argv(cfg, j) for j in entries],
            coeffs=len(entries) * cfg["samples"] * per_point)

    def run_pass(self, st):
        outputs = []
        for argv in st.argvs:
            out = tempfile.mkdtemp(prefix="cli-", dir=st.scratch)
            codes = [_call(_run_cli, st.lib.cli.main,
                           argv + ["--out", out, cmd])
                     for cmd in CLI_COMMANDS]
            outputs.append((Path(out), codes))
        return outputs

    def _read(self, out):
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def summarize(self, st, outputs):
        record = {}
        for j, (out, _) in zip(st.entries, outputs):
            record[str(j)] = {
                name: {"sha256": hashlib.sha256(blob).hexdigest(),
                       "text": blob.decode()}
                for name, blob in self._read(out).items()}
            shutil.rmtree(out)
        return record

    def check(self, st, outputs, ref):
        results = []
        rows = 0
        for j, (out, codes) in zip(st.entries, outputs):
            blobs = self._read(out)
            shutil.rmtree(out)
            st.digests[str(j)] = {name: hashlib.sha256(blob).hexdigest()
                                  for name, blob in blobs.items()}
            first = st.first.setdefault(j, blobs)
            for cmd, code in zip(CLI_COMMANDS, codes):
                if isinstance(code, Failed):
                    results.append(_bad(f"{cmd}: {code.message}"))
                    continue
                op = _ok()
                for name in CLI_FILES[cmd]:
                    blob = blobs.get(name)
                    want = ref[str(j)].get(name)
                    if blob is None or want is None:
                        op = _bad(f"{cmd}: {name} missing")
                        break
                    if blob != first.get(name):
                        op = _bad(f"{cmd}: {name} not byte-identical "
                                  "across passes")
                        break
                    text = blob.decode()
                    if name.endswith(".csv"):
                        rows += _csv_rows(text)
                    if hashlib.sha256(blob).hexdigest() == want["sha256"]:
                        continue
                    if name.endswith(".csv"):
                        cmp = _compare_csv(text, want["text"])
                    elif name.endswith(".svg"):
                        cmp = _compare_svg(text, want["text"])
                    else:
                        cmp = _bad(f"{name} differs from reference")
                    if not cmp.ok:
                        op = _bad(f"{cmd}: {name}: {cmp.error}", cmp.dev)
                        break
                    op = Op(ok=True, dev=max(op.dev, cmp.dev), error=None)
                results.append(op)
        return results, rows


WORKLOADS = {w.name: w for w in (Increments(), Packing(), Cli())}
