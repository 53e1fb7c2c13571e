"""Span tracing from outside the library.

A span is recorded around each call of a traced library function: its name,
start, end, the index of the enclosing span (-1 at top level) and an
optional count taken from the result.  Spans stay in memory for one pass;
``layer_metrics`` turns them into per-layer self times and work counts.

A wrapper only takes effect where the function is looked up, so binding
scans every loaded ``betacantor`` module and replaces *each* name, class
attribute and module-level dict value that holds the original function
(``cli`` binds ``beta`` and ``square_function`` at import, ``corona`` binds
``square_function``, ``density`` binds ``ball_mass``, ``cli.COMMANDS`` holds
the command functions, and the package namespace shadows the
``betacantor.beta`` module with the function ``beta``).
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import defaultdict


def _len_segments(measure):
    return len(measure.segments)


def _window_size(win):
    return win.n_segments + win.n_atoms


def _search_iterations(result):
    return result[3]


def _n_cubes(lattice):
    return len(lattice.cubes)


def _n_roots(tree):
    return len(tree.roots)


#: span name, module, attribute path, result observer, workloads that must
#: fire the span
SPANS = (
    ("cantor.window", "betacantor.cantor", "CantorMeasure.window",
     _len_segments, ("increments", "packing", "cli")),
    ("cantor.ball_mass", "betacantor.cantor", "CantorMeasure.ball_mass",
     None, ("packing", "cli")),
    ("measures.ball_mass", "betacantor.measures", "ball_mass",
     None, ("packing", "cli")),
    ("measures.atomize", "betacantor.measures", "atomize",
     None, ("packing",)),
    ("beta.beta", "betacantor.beta", "beta", None, ("packing", "cli")),
    ("beta.beta_both", "betacantor.beta", "beta_both",
     None, ("increments", "cli")),
    ("beta.build_window", "betacantor.beta", "build_window",
     _window_size, ("increments", "packing", "cli")),
    ("beta.search", "betacantor.beta", "best_line_search_window",
     _search_iterations, ("increments", "cli")),
    ("beta.p2", "betacantor.beta", "best_line_p2_window",
     None, ("increments", "packing", "cli")),
    ("beta.square_function", "betacantor.beta", "square_function",
     None, ("packing", "cli")),
    ("beta.square_function_increment", "betacantor.beta",
     "square_function_increment", None, ("cli",)),
    ("beta.increment_pair", "betacantor.beta", "increment_pair",
     None, ("increments", "cli")),
    ("density.build_mu_tilde", "betacantor.density", "build_mu_tilde",
     None, ("packing",)),
    ("density.density_profile", "betacantor.density", "density_profile",
     None, ("cli",)),
    ("density.witness", "betacantor.density", "unrectifiability_witness",
     None, ("cli",)),
    ("corona.build_lattice", "betacantor.corona", "build_lattice",
     _n_cubes, ("packing",)),
    ("corona.decompose", "betacantor.corona", "corona_decompose",
     _n_roots, ("packing",)),
    ("corona.packing_report", "betacantor.corona", "packing_report",
     None, ("packing",)),
    ("cli.main", "betacantor.cli", "main", None, ("cli",)),
    ("cli.cmd_beta", "betacantor.cli", "cmd_beta", None, ("cli",)),
    ("cli.cmd_sqfn", "betacantor.cli", "cmd_sqfn", None, ("cli",)),
    ("cli.cmd_witness", "betacantor.cli", "cmd_witness", None, ("cli",)),
    ("svgfig.render", "betacantor.svgfig", "render_curves", None, ("cli",)),
)

#: spans whose result yields a count worth summing per pass
COUNT_KEYS = {
    "cantor.window": "cantor.window.segments_out",
    "beta.search": "beta.search.iterations",
    "corona.build_lattice": "corona.cubes",
    "corona.decompose": "corona.roots",
}


def _resolve(module_name, path):
    obj = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for part in owners:
        obj = getattr(obj, part)
    if isinstance(obj, type):
        return vars(obj)[attr]   # the function stored on the class itself
    return getattr(obj, attr)


class Tracer:
    """Installs span wrappers into the loaded library and collects spans."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, count]
        self._stack = []
        self._patches = []       # (store, owner, key, original)
        self.unbound = []        # span targets missing from the library

    def _wrap(self, name, fn, observe):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if observe is not None:
                rec[4] = observe(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        """Replace every binding of every traced function; returns self."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = {}
        self.unbound = []
        for name, module, path, observe, _ in SPANS:
            try:
                fn = _resolve(module, path)
            except (ImportError, AttributeError, KeyError):
                self.unbound.append(f"{module}:{path}")
                continue
            targets[id(fn)] = (fn, self._wrap(name, fn, observe))
        seen_classes = set()
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "betacantor"
                                   or mod_name.startswith("betacantor.")):
                continue
            for key, val in list(vars(mod).items()):
                self._bind(targets, mod, key, val, setattr)
                if isinstance(val, dict):
                    for dkey, dval in list(val.items()):
                        self._bind(targets, val, dkey, dval, dict.__setitem__)
                elif isinstance(val, type) and val not in seen_classes:
                    seen_classes.add(val)
                    for ckey, cval in list(vars(val).items()):
                        self._bind(targets, val, ckey, cval, setattr)
        return self

    def _bind(self, targets, owner, key, val, store):
        hit = targets.get(id(val))
        if hit is not None and hit[0] is val:
            store(owner, key, hit[1])
            self._patches.append((store, owner, key, val))

    def uninstall(self):
        for store, owner, key, original in reversed(self._patches):
            store(owner, key, original)
        self._patches = []

    def reset(self):
        self.spans.clear()
        self._stack.clear()


def _under(spans, ancestor):
    """Per span: whether it runs inside a span named ``ancestor``.  Parents
    precede children in the list, so one forward pass suffices."""
    out = [False] * len(spans)
    for i, (name, _, _, parent, _) in enumerate(spans):
        out[i] = parent >= 0 and (out[parent] or spans[parent][0] == ancestor)
    return out


def layer_metrics(spans, coeffs, rows, pass_wall):
    """Per-layer metrics of one traced pass.

    ``coeffs`` is the number of coefficient evaluations the pass inputs ask
    for (distinct point, radius, p) and ``rows`` the number of CSV data
    rows it wrote, both counted by the workload.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    counts = defaultdict(int)
    sizes = []
    top = 0.0
    direct_p2 = 0
    for i, (name, start, end, parent, count) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child[i]
        if count is not None and name in COUNT_KEYS:
            counts[COUNT_KEYS[name]] += count
        if name == "beta.build_window":
            sizes.append(count)
        if name == "beta.p2" and (parent < 0
                                  or spans[parent][0] != "beta.search"):
            direct_p2 += 1
        if parent < 0:
            top += end - start
    mass_queries = sum(
        1 for s, inside in zip(spans, _under(spans, "density.build_mu_tilde"))
        if inside and s[0] == "cantor.ball_mass")
    sqfn_calls = sum(
        1 for s, inside in zip(spans, _under(spans, "corona.packing_report"))
        if inside and s[0] == "beta.square_function")
    windows = calls["beta.build_window"]
    trivial = windows - calls["beta.search"] - direct_p2
    metrics = {
        "cantor.window.calls": calls["cantor.window"],
        "cantor.window.self_s": self_s["cantor.window"],
        "cantor.window.segments_out": counts["cantor.window.segments_out"],
        "cantor.ball_mass.calls": calls["cantor.ball_mass"],
        "cantor.ball_mass.self_s": self_s["cantor.ball_mass"],
        "measures.ball_mass.calls": calls["measures.ball_mass"],
        "measures.ball_mass.self_s": self_s["measures.ball_mass"],
        "measures.atomize.self_s": self_s["measures.atomize"],
        "beta.increment_pair.self_s": self_s["beta.increment_pair"],
        "beta.square_function.self_s": self_s["beta.square_function"],
        "beta.build_window.calls": windows,
        "beta.build_window.self_s": self_s["beta.build_window"],
        "beta.window.size_p50": statistics.median(sizes) if sizes else 0,
        "beta.window.size_max": max(sizes) if sizes else 0,
        "beta.search.calls": calls["beta.search"],
        "beta.search.self_s": self_s["beta.search"],
        "beta.search.iterations": counts["beta.search.iterations"],
        "beta.p2.calls": calls["beta.p2"],
        "beta.p2.self_s": self_s["beta.p2"],
        "beta.path.trivial_frac": trivial / windows if windows else 0.0,
        "beta.windows_per_coeff": windows / coeffs if coeffs else 0.0,
        "density.build_mu_tilde.self_s": self_s["density.build_mu_tilde"],
        "density.mass_queries": mass_queries,
        "density.density_profile.self_s": self_s["density.density_profile"],
        "density.witness.self_s": self_s["density.witness"],
        "corona.build_lattice.self_s": self_s["corona.build_lattice"],
        "corona.cubes": counts["corona.cubes"],
        "corona.decompose.self_s": self_s["corona.decompose"],
        "corona.roots": counts["corona.roots"],
        "corona.packing_report.self_s": self_s["corona.packing_report"],
        "corona.packing_report.sqfn_calls": sqfn_calls,
        "cli.cmd_beta.self_s": self_s["cli.cmd_beta"],
        "cli.cmd_sqfn.self_s": self_s["cli.cmd_sqfn"],
        "cli.cmd_witness.self_s": self_s["cli.cmd_witness"],
        "cli.rows": rows,
        "cli.windows_per_row": windows / rows if rows else 0.0,
        "svgfig.render.self_s": self_s["svgfig.render"],
        "trace.top_coverage": top / pass_wall if pass_wall > 0 else 0.0,
        "trace.spans": len(spans),
    }
    return metrics, dict(calls)
