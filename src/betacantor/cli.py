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
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from . import svgfig
from .beta import (ScaleGrid, SquareFunctionDetails, beta_both,
                   increment_pair, square_function)
from .cantor import (CantorMeasure, Schedule, UP, generate, point_of,
                     sample_address, schedule_custom, schedule_tame,
                     schedule_thm11, schedule_thm12, window_refine)
from .corona import MIN_A0, build_lattice, corona_decompose, packing_report
from .density import (build_mu_tilde, restricted_maximal_comparison,
                      unrectifiability_witness)
from .errors import (ConfigError, InvariantViolationError,
                     ResourceBudgetError, ScheduleExhaustedError)
from .geometry import Ball
from .measures import atomize, write_measure

ENUMERATION_LIMIT = 200_000
VARIANTS = ("beta", "betaTilde")


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
    h1: str = "1/128"
    out_dir: str = "out"
    timestamp: bool = False
    # custom schedule sequences (rational strings), used when flavor=custom
    custom_a: Tuple[str, ...] = ()
    custom_h: Tuple[str, ...] = ()
    custom_n: Tuple[int, ...] = ()
    # optional window restriction for generate
    window: Optional[Tuple[str, str, str]] = None  # cx, cy, radius
    # corona / approx parameters
    a0: float = 50.0
    c0: float = 10.0
    depth: int = 2
    c_thr: float = 2.0
    vitali_lambda: float = 100.0
    rho: str = "1/16"
    eps: float = 0.1
    beta_sample: int = 200

    def resolved_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["p"] = list(self.p)
        d["custom_a"] = list(self.custom_a)
        d["custom_h"] = list(self.custom_h)
        d["custom_n"] = list(self.custom_n)
        d["window"] = list(self.window) if self.window else None
        return d

    @property
    def config_hash(self) -> str:
        d = self.resolved_dict()
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


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file {path} not found")
        if path.suffix == ".toml":
            import tomllib
            data = tomllib.loads(path.read_text())
        else:
            data = json.loads(path.read_text())
        for key, val in data.items():
            if not hasattr(cfg, key):
                raise ConfigError(f"unknown config key {key!r}")
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
        if p < 1:
            raise ConfigError("every p must be >= 1")
    if cfg.k_max < 0:
        raise ConfigError("k_max must be nonnegative")
    if cfg.samples < 1:
        raise ConfigError("samples must be positive")
    if not 0 < cfg.lam < 1:
        raise ConfigError("lambda must lie in (0,1)")
    if not 0 < cfg.r_min < cfg.r_max:
        raise ConfigError("need 0 < r_min < r_max")
    # corona / approx parameters, checked here so that a bad value exits 2
    if cfg.a0 < MIN_A0:
        raise ConfigError(f"a0 must be at least {MIN_A0}")
    if cfg.c0 < 1:
        raise ConfigError("c0 must be at least 1")
    if cfg.depth < 0:
        raise ConfigError("depth must be nonnegative")
    if cfg.c_thr <= 1:
        raise ConfigError("c_thr must exceed 1")
    if cfg.vitali_lambda <= 2:
        raise ConfigError("vitali_lambda must exceed 2")
    try:
        rho = Fraction(cfg.rho)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"rho must be a rational, got {cfg.rho!r}") from None
    if rho <= 0:
        raise ConfigError("rho must be positive")
    if not 0 < cfg.eps < 0.5:
        raise ConfigError("eps must lie in (0, 1/2)")
    if cfg.beta_sample is not None and cfg.beta_sample < 1:
        raise ConfigError("beta_sample must be positive")
    return cfg


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _write_csv(path: Path, cfg: ExperimentConfig, header: Sequence[str],
               rows: Sequence[Sequence]) -> None:
    import numpy as np

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
            mu = window_refine(Ball((cx, cy), rad), k, sched)
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
    rows = []
    # coefficient-versus-radius curves, one per sample point and p
    curves = []
    points = _sampled_points(sched, cfg.k_max, cfg.samples, cfg.seed)
    for i, (_, pt) in enumerate(points):
        x, y = float(pt.x), float(pt.y)
        for p in cfg.p:
            vals = []
            for r in radii:
                both = beta_both(mu, (pt.x, pt.y), r, p)
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
    rows = []
    for _, pt in _sampled_points(sched, cfg.k_max, cfg.samples, cfg.seed):
        for p in cfg.p:
            det = SquareFunctionDetails()
            sums = square_function(mu, (pt.x, pt.y), p, grid, det)
            # only the mass-normalized coefficient is undefined on empty balls
            for variant, total, empty in zip(VARIANTS, sums,
                                             (0, det.empty_balls)):
                rows.append((float(pt.x), float(pt.y), p, variant,
                             grid.r_min, grid.r_max, total, empty))
    _write_csv(out / "sqfn.csv", cfg,
               ["x", "y", "p", "variant", "r_min", "r_max",
                "square_function", "empty_balls"], rows)

    # per-generation increment windows (h_g, h_{g-1}/2], h_0 = 1
    inc_rows = []
    for g in range(1, cfg.k_max + 1):
        mu = CantorMeasure(sched, g)
        r_lo = float(sched.h_of(g))
        r_hi = float(sched.h_of(g - 1)) / 2 if g >= 2 else 0.5
        a_g = float(sched.a_of(g))
        gen_points = _sampled_points(sched, g, cfg.samples, cfg.seed + g)
        for _, pt in gen_points:
            for p in cfg.p:
                sums = increment_pair(mu, (pt.x, pt.y), p, r_lo, r_hi,
                                      cfg.lam)
                a_term = a_g ** (2.0 / p)
                for variant, sub, ref in zip(VARIANTS, sums,
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
    from .density import density_profile
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
    lattice = build_lattice(atoms, cfg.a0, cfg.c0, cfg.depth)
    tree = corona_decompose(lattice, cfg.c_thr)
    _write_json(out / "corona.json", cfg, {
        "source_generation": gen,
        "n_atoms": len(atoms),
        "n_cubes": len(lattice.cubes),
        "root_mass_ratio": tree.root_mass_ratio(),
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
    mu_tilde, family = build_mu_tilde(
        atoms, cfg.vitali_lambda, Fraction(cfg.rho), cfg.eps,
        c_star=2.0)
    write_measure(mu_tilde, out / "mu_tilde.txt")
    rows = []
    for (cx, cy, r), m in zip(family.balls, family.masses):
        m_lam = atoms.ball_mass(Ball(
            (cx, cy), r * Fraction(cfg.vitali_lambda).limit_denominator()))
        doubling_ok = float(m_lam) <= 2.0 * cfg.vitali_lambda ** 2 * float(m)
        growth_ok = float(m) <= 10.0 * 2.0 * cfg.vitali_lambda * float(r)
        rows.append((float(cx), float(cy), float(r), float(m),
                     int(doubling_ok), int(growth_ok)))
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
