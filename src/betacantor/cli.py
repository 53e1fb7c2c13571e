"""Command-line front end: generate construction measures, evaluate
multiscale coefficients and square functions, run the low-density witness,
and drive the corona / ball-approximation studies.

Subcommands: ``generate``, ``beta``, ``sqfn``, ``witness``, ``corona``,
``approx``.  All outputs are CSV/JSON tables plus static SVG figures; the
resolved configuration is hashed and stamped into every file, and repeated
runs with identical configuration are byte-identical (SVG timestamps are
off by default and only appear with ``--timestamp``).

Exit codes: 0 success, 2 invalid configuration, 3 schedule or resource
exhaustion, 4 invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import random
import sys
import typing
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from . import svgfig
from .beta import (ScaleGrid, beta_both_points, increment_scales,
                   sum_squares)
from .cantor import (CantorMeasure, Schedule, UP, generate, point_of,
                     sample_address, schedule_custom, schedule_tame,
                     schedule_thm11, schedule_thm12)
from .corona import MIN_A0, build_lattice, corona_decompose, packing_report
from .density import (build_mu_tilde, density_profile, doubling_growth,
                      restricted_maximal_comparison, unrectifiability_witness)
from .errors import (ConfigError, InvariantViolationError,
                     ResourceBudgetError, ScheduleExhaustedError)
from .geometry import Ball
from .measures import atomize, write_measure

ENUMERATION_LIMIT = 200_000
VARIANTS = ("beta", "betaTilde")

#: a rational config value: a string such as "1/16", or a number
RationalText = Union[str, float]


@dataclass
class ExperimentConfig:
    flavor: str = "tame"
    k_max: int = 2
    p: Tuple[float, ...] = (1.5,)
    samples: int = 5
    seed: int = 0
    lam: float = 2.0 ** -0.25
    r_min: float = 1e-4
    r_max: float = 0.5
    h1: RationalText = "1/128"
    out_dir: str = "out"
    timestamp: bool = False
    # custom schedule sequences, used when flavor=custom
    custom_a: Tuple[RationalText, ...] = ()
    custom_h: Tuple[RationalText, ...] = ()
    custom_n: Tuple[int, ...] = ()
    # optional window restriction for generate: cx, cy, radius
    window: Optional[Tuple[RationalText, RationalText, RationalText]] = None
    # corona / approx parameters
    a0: float = 50.0
    c0: float = 10.0
    depth: int = 2
    c_thr: float = 2.0
    vitali_lambda: float = 100.0
    rho: RationalText = "1/16"
    eps: float = 0.1
    beta_sample: Optional[int] = 200

    @property
    def config_hash(self) -> str:
        d = dataclasses.asdict(self)
        # execution details that do not affect the numbers
        for key in ("out_dir", "timestamp"):
            d.pop(key, None)
        blob = json.dumps(d, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def schedule(self) -> Schedule:
        if self.flavor == "thm11":
            return schedule_thm11(self.k_max, h1=Fraction(self.h1))
        if self.flavor == "thm12":
            return schedule_thm12(self.k_max, h1=Fraction(self.h1))
        if self.flavor == "tame":
            return schedule_tame(self.k_max)
        if self.flavor == "custom":
            if not (self.custom_a and self.custom_h and self.custom_n):
                raise ConfigError("custom flavor needs a/h/n sequences")
            return schedule_custom([Fraction(s) for s in self.custom_a],
                                   [Fraction(s) for s in self.custom_h],
                                   list(self.custom_n))
        raise ConfigError(f"unknown flavor {self.flavor!r}")

    def scale_grid(self) -> ScaleGrid:
        return ScaleGrid(self.r_min, self.r_max, self.lam)


def _fits(tp, val) -> bool:
    """Whether a parsed JSON/TOML value can stand for a config field of
    type ``tp``: an int may stand for a float, a list for a tuple."""
    args = typing.get_args(tp)
    if typing.get_origin(tp) is Union:
        return any(_fits(t, val) for t in args)
    if typing.get_origin(tp) is tuple:
        if not isinstance(val, list):
            return False
        if args[-1] is Ellipsis:
            return all(_fits(args[0], v) for v in val)
        return len(val) == len(args) and all(map(_fits, args, val))
    if isinstance(val, bool) or tp is bool:
        return type(val) is tp
    return isinstance(val, (int, float) if tp is float else tp)


def _type_name(tp) -> str:
    return tp.__name__ if isinstance(tp, type) else str(tp).replace(
        "typing.", "")


#: what ``Fraction`` and ``Schedule`` raise on a bad value
_BAD_VALUE = (ValueError, ZeroDivisionError, OverflowError)


def _rational(key: str, val: RationalText) -> Fraction:
    try:
        return Fraction(val)
    except _BAD_VALUE:
        raise ConfigError(f"{key} must be a rational, got {val!r}") from None


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file {path} not found")
        try:
            if path.suffix == ".toml":
                import tomllib  # lazy: new in Python 3.11
                data = tomllib.loads(path.read_text())
            else:
                data = json.loads(path.read_text())
        except ModuleNotFoundError:
            raise ConfigError(f"config file {path}: TOML needs Python >= "
                              "3.11; use a JSON file") from None
        except ValueError as exc:  # malformed JSON or TOML, or not UTF-8
            raise ConfigError(f"config file {path}: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold one table")
        types = typing.get_type_hints(ExperimentConfig)
        for key, val in data.items():
            if key not in types:
                raise ConfigError(f"unknown config key {key!r}")
            if not _fits(types[key], val):
                raise ConfigError(f"config key {key!r} cannot be {val!r}: "
                                  f"expected {_type_name(types[key])}")
            if isinstance(val, list):
                val = tuple(val)
            setattr(cfg, key, val)
    overrides = {
        "flavor": args.flavor, "k_max": args.k_max, "samples": args.samples,
        "seed": args.seed, "lam": args.lam, "r_min": args.r_min,
        "r_max": args.r_max, "out_dir": args.out, "timestamp": args.timestamp,
    }
    for key, val in overrides.items():
        if val is not None:
            setattr(cfg, key, val)
    if args.p is not None:
        cfg.p = tuple(float(v) for v in args.p)
    for p in cfg.p:
        if not 1 <= p < math.inf:
            raise ConfigError("every p must be finite and >= 1")
    if cfg.k_max < 0:
        raise ConfigError("k_max must be nonnegative")
    if cfg.samples < 1:
        raise ConfigError("samples must be positive")
    if not 0 < cfg.lam < 1:
        raise ConfigError("lambda must lie in (0,1)")
    for key in ("r_min", "r_max"):
        if not math.isfinite(getattr(cfg, key)):
            raise ConfigError(f"{key} must be finite")
    if not 0 < cfg.r_min < cfg.r_max:
        raise ConfigError("need 0 < r_min < r_max")
    # corona / approx parameters, checked here so that a bad value exits 2;
    # each check is written so that NaN fails it
    if not cfg.a0 >= MIN_A0:
        raise ConfigError(f"a0 must be at least {MIN_A0}")
    if not cfg.c0 >= 1:
        raise ConfigError("c0 must be at least 1")
    if cfg.depth < 0:
        raise ConfigError("depth must be nonnegative")
    if not cfg.c_thr > 1:
        raise ConfigError("c_thr must exceed 1")
    if not cfg.vitali_lambda > 2:
        raise ConfigError("vitali_lambda must exceed 2")
    if _rational("rho", cfg.rho) <= 0:
        raise ConfigError("rho must be positive")
    if cfg.window is not None:
        window = [_rational("window", v) for v in cfg.window]
        if window[2] <= 0:
            raise ConfigError("the window radius must be positive")
    if not 0 < cfg.eps < 0.5:
        raise ConfigError("eps must lie in (0, 1/2)")
    if cfg.beta_sample is not None and cfg.beta_sample < 1:
        raise ConfigError("beta_sample must be positive")
    try:
        sched = cfg.schedule()
    except _BAD_VALUE as exc:
        raise ConfigError(f"invalid schedule: {exc}") from None
    # h_g < h_{g-1}/2 (h_0 = 1) keeps every sqfn step window
    # (h_g, h_{g-1}/2] nonempty and every line height distinct
    heights = (Fraction(1),) + sched.h[:cfg.k_max]
    for g, (prev, h) in enumerate(zip(heights, heights[1:]), start=1):
        if not h < prev / 2:
            raise ConfigError(f"h_{g} = {h} must lie below h_{g - 1}/2 = "
                              f"{prev / 2}; lower h_{g}")
    return cfg


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _write_csv(path: Path, cfg: ExperimentConfig, header: Sequence[str],
               rows: Sequence[Sequence]) -> None:
    def fmt(v):
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        if isinstance(v, np.integer):
            return int(v)
        return v

    with open(path, "w", newline="") as fh:
        fh.write(f"# config={cfg.config_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def _write_json(path: Path, cfg: ExperimentConfig, payload: dict) -> None:
    payload = {"config": cfg.config_hash, **payload}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


SCHEMA = """\
# Output schema

Every CSV starts with a `# config=<hash>` comment line identifying the
resolved configuration; every JSON carries the same hash in its `config`
field.

## generate
- `ek_<k>.txt`: measure text format (`S x0 y0 x1 y1 density` per segment,
  rationals as `num/den`).
- `generations.svg`: one color band per generation.
- `generate_summary.json`: per generation `k`, exact segment count `m_k`,
  the recurrence factor `2 n_k`, total mass as an exact rational string,
  and whether the file was enumerated, window-restricted, or skipped.

## beta
`beta.csv` columns: `x, y, r, p, variant, beta, phi, c, ball_mass`
(point coordinates and radius as floats; `phi`, `c` the minimizing line in
normal form; `ball_mass` the clipped mass).

## sqfn
`sqfn.csv` columns: `x, y, p, variant, r_min, r_max, square_function,
empty_balls`.
`increments.csv` columns: `gen, x, y, p, variant, r_lo, r_hi, subsum,
reference, ratio` where `reference` is `a_gen^(2/p)` for the
radius-normalized variant and `h_gen + a_gen^(2/p)` for the
mass-normalized one.

## witness
`witness.csv` columns: `k, h_k, a_k, x, y, ratio, ratio_over_a_k` with
`ratio = mass(B(x, h_k/2)) / h_k` at points passing upward at level `k`.
`density_profiles.csv` columns: `x, y, r, ratio` with
`ratio = mass(B(x,r)) / (2r)` over the scale grid at unconditioned sample
points.

## corona
`corona.json`: tree roots with densities and sizes.
`packing.csv` columns: `lambda, lhs, rhs_mass, rhs_beta, c_star, n_roots,
ratio` for the base grid and the refined (`sqrt(lambda)`) grid.

## approx
`mu_tilde.txt`: the ball-approximation measure (measure text format).
`balls.csv` columns: `cx, cy, radius, mass, doubling_ok, growth_ok`.
`comparison.csv` columns: `lhs, rhs, ratio` for the restricted
maximal-function comparison.
"""


def _prepare_out(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "SCHEMA.md").write_text(SCHEMA)
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_generate(cfg: ExperimentConfig) -> int:
    out = _prepare_out(cfg)
    sched = cfg.schedule()
    summary = []
    drawn = []
    for k in range(cfg.k_max + 1):
        m_k = sched.segment_count(k)
        entry: Dict[str, object] = {
            "k": k, "m_k": str(m_k),
            "branching": 2 * sched.n_of(k) if k >= 1 else 1,
        }
        if m_k <= ENUMERATION_LIMIT:
            mu = generate(sched, k)
            write_measure(mu, out / f"ek_{k}.txt")
            entry["file"] = f"ek_{k}.txt"
            entry["mode"] = "enumerated"
            entry["total_mass"] = str(mu.total_mass)
            if len(mu.segments) <= 5000:
                drawn.append(mu)
        elif cfg.window is not None:
            cx, cy, rad = (Fraction(v) for v in cfg.window)
            exact = CantorMeasure(sched, k, rel_resolution=0)
            mu = exact.window((cx, cy), rad)
            write_measure(mu, out / f"ek_{k}.txt")
            entry["file"] = f"ek_{k}.txt"
            entry["mode"] = "windowed"
            entry["window_segments"] = len(mu.segments)
        else:
            entry["mode"] = "counted-only"
        summary.append(entry)
    if drawn:
        svg = svgfig.render_generations(drawn, timestamp=cfg.timestamp)
        (out / "generations.svg").write_text(svg)
    _write_json(out / "generate_summary.json", cfg,
                {"flavor": cfg.flavor, "generations": summary,
                 "gap_condition": list(sched.gap_ok),
                 "faithful": sched.faithful})
    return 0


def _sampled_points(sched: Schedule, gen: int, count: int, seed: int,
                    force_up: Optional[int] = None):
    rng = random.Random(seed)
    pts = []
    for _ in range(count):
        force = {force_up: UP} if force_up else None
        pa = sample_address(sched, gen, rng, force_branch=force)
        pt = point_of(pa, sched)
        pts.append((pa, pt))
    return pts


def cmd_beta(cfg: ExperimentConfig) -> int:
    out = _prepare_out(cfg)
    sched = cfg.schedule()
    mu = CantorMeasure(sched, cfg.k_max)
    radii = cfg.scale_grid().radii()
    nan = float("nan")
    points = [pt for _, pt in _sampled_points(sched, cfg.k_max, cfg.samples,
                                              cfg.seed)]
    # one batched search per exponent over every point
    found = {p: beta_both_points(mu, [(pt.x, pt.y) for pt in points],
                                 radii, p) for p in cfg.p}
    rows = []
    # coefficient-versus-radius curves, one per sample point and p
    curves = []
    for i, pt in enumerate(points):
        x, y = float(pt.x), float(pt.y)
        for p in cfg.p:
            vals = []
            for r, both in zip(radii, found[p][i]):
                vals.append(both[0].value)
                for variant, res in zip(VARIANTS, both):
                    if res is None:
                        rows.append((x, y, r, p, variant, nan, nan, nan, 0.0))
                    else:
                        rows.append((x, y, r, p, variant, res.value,
                                     res.line.phi, res.line.c, res.ball_mass))
            curves.append((f"pt{i} p={p}", radii, vals))
    _write_csv(out / "beta.csv", cfg,
               ["x", "y", "r", "p", "variant", "beta", "phi", "c",
                "ball_mass"], rows)
    if curves:
        (out / "beta_curves.svg").write_text(
            svgfig.render_curves(curves, timestamp=cfg.timestamp,
                                 title="coefficient vs radius"))
    return 0


def cmd_sqfn(cfg: ExperimentConfig) -> int:
    out = _prepare_out(cfg)
    sched = cfg.schedule()
    grid = cfg.scale_grid()
    mu = CantorMeasure(sched, cfg.k_max)
    points = [pt for _, pt in _sampled_points(sched, cfg.k_max, cfg.samples,
                                              cfg.seed)]
    grid_scales = [(r, grid.log_weight) for r in grid.radii()]
    jobs = [(mu, (pt.x, pt.y), grid_scales) for pt in points]
    # per-generation increment windows (h_g, h_{g-1}/2], h_0 = 1
    steps = []
    for g in range(1, cfg.k_max + 1):
        r_lo = float(sched.h_of(g))
        r_hi = float(sched.h_of(g - 1)) / 2 if g >= 2 else 0.5
        gen_points = [pt for _, pt in _sampled_points(sched, g, cfg.samples,
                                                      cfg.seed + g)]
        steps.append((g, r_lo, r_hi, float(sched.a_of(g)), gen_points))
        scales = increment_scales(r_lo, r_hi, cfg.lam)
        mu_g = CantorMeasure(sched, g)
        jobs.extend((mu_g, (pt.x, pt.y), scales) for pt in gen_points)
    # one batched search per exponent over every job; rows in job order
    sums = {p: iter(sum_squares(jobs, p)) for p in cfg.p}

    rows = []
    for pt in points:
        for p in cfg.p:
            total_b, total_t, empty = next(sums[p])
            # only the mass-normalized coefficient is undefined on empty
            # balls
            for variant, total, n_empty in zip(VARIANTS, (total_b, total_t),
                                               (0, empty)):
                rows.append((float(pt.x), float(pt.y), p, variant,
                             grid.r_min, grid.r_max, total, n_empty))
    _write_csv(out / "sqfn.csv", cfg,
               ["x", "y", "p", "variant", "r_min", "r_max",
                "square_function", "empty_balls"], rows)

    inc_rows = []
    for g, r_lo, r_hi, a_g, gen_points in steps:
        for pt in gen_points:
            for p in cfg.p:
                total_b, total_t, _ = next(sums[p])
                a_term = a_g ** (2.0 / p)
                for variant, sub, ref in zip(VARIANTS, (total_b, total_t),
                                             (a_term, r_lo + a_term)):
                    inc_rows.append((g, float(pt.x), float(pt.y), p, variant,
                                     r_lo, r_hi, sub, ref, sub / ref))
    _write_csv(out / "increments.csv", cfg,
               ["gen", "x", "y", "p", "variant", "r_lo", "r_hi", "subsum",
                "reference", "ratio"], inc_rows)
    return 0


def cmd_witness(cfg: ExperimentConfig) -> int:
    out = _prepare_out(cfg)
    sched = cfg.schedule()
    rows = []
    for k in range(1, cfg.k_max + 1):
        pts = _sampled_points(sched, cfg.k_max, cfg.samples, cfg.seed + k,
                              force_up=k)
        for pa, pt in pts:
            (kk, ratio), = unrectifiability_witness(sched, pa, [k])
            a_k = float(sched.a_of(k))
            rows.append((k, float(sched.h_of(k)), a_k, float(pt.x),
                         float(pt.y), ratio, ratio / a_k))
    _write_csv(out / "witness.csv", cfg,
               ["k", "h_k", "a_k", "x", "y", "ratio", "ratio_over_a_k"],
               rows)

    # density ratio profiles at the sampled points, unconditioned
    mu = CantorMeasure(sched, cfg.k_max)
    grid = cfg.scale_grid()
    prof_rows = []
    for pa, pt in _sampled_points(sched, cfg.k_max, cfg.samples, cfg.seed):
        prof = density_profile(mu, (pt.x, pt.y), grid)
        for r, ratio in prof.samples:
            prof_rows.append((float(pt.x), float(pt.y), r, ratio))
    _write_csv(out / "density_profiles.csv", cfg, ["x", "y", "r", "ratio"],
               prof_rows)
    return 0


def _atom_cloud(cfg: ExperimentConfig, max_atoms: int):
    sched = cfg.schedule()
    gen = cfg.k_max
    while sched.segment_count(gen) > ENUMERATION_LIMIT and gen > 0:
        gen -= 1
    mu = generate(sched, gen)
    spacing = Fraction(1, 10 * round(cfg.a0) ** cfg.depth)
    # keep the cloud tractable
    min_spacing = Fraction(mu.total_mass) / max_atoms
    spacing = max(spacing, min_spacing)
    return atomize(mu, spacing), gen


def cmd_corona(cfg: ExperimentConfig) -> int:
    out = _prepare_out(cfg)
    atoms, gen = _atom_cloud(cfg, max_atoms=30_000)
    lattice = build_lattice(atoms, cfg.a0, cfg.depth)
    tree = corona_decompose(lattice, cfg.c_thr)
    _write_json(out / "corona.json", cfg, {
        "source_generation": gen,
        "n_atoms": len(atoms),
        "n_cubes": len(lattice.cubes),
        "root_mass_ratio": tree.root_mass_ratio(),
        "c0": cfg.c0,
        **tree.to_json_dict(),
    })
    rows = []
    for lam in (cfg.lam, math.sqrt(cfg.lam)):
        grid = ScaleGrid(cfg.r_min, cfg.r_max, lam)
        rep = packing_report(tree, grid, beta_sample=cfg.beta_sample,
                             seed=cfg.seed)
        rows.append((lam, rep.lhs, rep.rhs_mass, rep.rhs_beta, rep.c_star,
                     rep.n_roots, rep.ratio))
    _write_csv(out / "packing.csv", cfg,
               ["lambda", "lhs", "rhs_mass", "rhs_beta", "c_star", "n_roots",
                "ratio"], rows)
    return 0


def cmd_approx(cfg: ExperimentConfig) -> int:
    out = _prepare_out(cfg)
    atoms, gen = _atom_cloud(cfg, max_atoms=1200)
    c_star = 2.0
    mu_tilde, family = build_mu_tilde(
        atoms, cfg.vitali_lambda, Fraction(cfg.rho), cfg.eps, c_star=c_star)
    write_measure(mu_tilde, out / "mu_tilde.txt")
    rows = []
    for (cx, cy, r), m in zip(family.balls, family.masses):
        m_lam = atoms.ball_mass(Ball(
            (cx, cy), r * Fraction(cfg.vitali_lambda).limit_denominator()))
        flags = doubling_growth(float(m), float(m_lam), float(r),
                                cfg.vitali_lambda, c_star)
        rows.append((float(cx), float(cy), float(r), float(m),
                     *map(int, flags)))
    _write_csv(out / "balls.csv", cfg,
               ["cx", "cy", "radius", "mass", "doubling_ok", "growth_ok"],
               rows)
    lhs, rhs, ratio = restricted_maximal_comparison(
        atoms, family, mu_tilde, r_max=cfg.r_max)
    _write_csv(out / "comparison.csv", cfg, ["lhs", "rhs", "ratio"],
               [(lhs, rhs, ratio)])
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="betacantor",
        description="Cantor-type segment constructions and multiscale "
                    "line-approximation diagnostics")
    parser.add_argument("--config", help="JSON or TOML config file")
    parser.add_argument("--flavor",
                        choices=["thm11", "thm12", "tame", "custom"])
    parser.add_argument("--k-max", dest="k_max", type=int)
    parser.add_argument("--p", nargs="+", type=float)
    parser.add_argument("--samples", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--lambda", dest="lam", type=float)
    parser.add_argument("--r-min", dest="r_min", type=float)
    parser.add_argument("--r-max", dest="r_max", type=float)
    parser.add_argument("--out")
    parser.add_argument("--timestamp", action="store_true", default=None,
                        help="embed a generation timestamp in SVG output")
    parser.add_argument("command",
                        choices=["generate", "beta", "sqfn", "witness",
                                 "corona", "approx"])
    return parser


COMMANDS = {
    "generate": cmd_generate,
    "beta": cmd_beta,
    "sqfn": cmd_sqfn,
    "witness": cmd_witness,
    "corona": cmd_corona,
    "approx": cmd_approx,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ScheduleExhaustedError, ResourceBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
