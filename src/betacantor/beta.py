"""Best-line L^p approximation numbers of planar measures in balls, and
their multiscale square functions.

For a measure ``mu``, a point ``x`` and a radius ``r`` the coefficient is

    value^p = inf over lines L of  int_{B(x,r)} (dist(y,L)/r)^p dmu(y) / N

with ``N = r`` for the radius-normalized variant ("beta") and
``N = mu(B(x,r))`` for the mass-normalized one ("betaTilde").  Both share
the same minimizing line, so one search yields both.

Evaluation rescales the window to the unit ball in exact rational
arithmetic first (faithful construction coordinates live at scales like
2^-200, far below float range) and only then switches to floats.  The
objective for a fixed normal direction is convex in the offset, so the
inner minimization is a derivative bisection on closed-form moments; the
outer direction search is a uniform grid of 180 angles refined by
golden section around the best brackets and two analytic seeds (the exact
L^2 line and the horizontal direction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Tuple

import numpy as np

from .cantor import CantorMeasure
from .errors import EmptyBallError
from .geometry import Ball, Line, Scalar, to_fraction
from .measures import AnyMeasure, AtomicMeasure, SegmentMeasure

PHI_GRID = 180              # outer uniform grid over [0, pi)
PHI_TOL = 1e-8              # golden-section stopping width on the angle
C_BISECT_ITERS = 46         # offset bisection steps (range <= 2.2)
C_BISECT_COARSE = 22        # cheap pass used only to rank directions
CLIP_TOL = 1e-12            # relative to the rescaled radius (= 1)
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _abs_pow(v: np.ndarray, q: float) -> np.ndarray:
    """``|v|^q`` with fast paths for the small integer and half-integer
    exponents the toolkit actually uses (pow is ~10x slower than sqrt)."""
    if q == 1.0:
        return np.abs(v)
    if q == 2.0:
        return v * v
    if q == 3.0:
        return np.abs(v) * v * v
    if q == 4.0:
        v2 = v * v
        return v2 * v2
    if q == 0.5:
        return np.sqrt(np.abs(v))
    if q == 1.5:
        a = np.abs(v)
        return a * np.sqrt(a)
    if q == 2.5:
        a = np.abs(v)
        return v * v * np.sqrt(a)
    if q == 3.5:
        a = np.abs(v)
        return v * v * a * np.sqrt(a)
    return np.abs(v) ** q


@dataclass(frozen=True)
class BetaResult:
    """One evaluated coefficient with its minimizing line and diagnostics."""

    value: float
    line: Line
    variant: str
    p: float
    ball_mass: float
    segments: int
    atoms: int
    iterations: int


@dataclass(frozen=True)
class ScaleGrid:
    """Geometric radius grid ``r_m = r_max * lam^m`` covering
    ``[r_min, r_max]``; the induced log-measure weight of one grid step is
    ``ln(1/lam)``."""

    r_min: float
    r_max: float
    lam: float = 2.0 ** -0.25

    def __post_init__(self):
        if not 0 < self.r_min < self.r_max:
            raise ValueError("need 0 < r_min < r_max")
        if not 0 < self.lam < 1:
            raise ValueError("lam must lie in (0,1)")

    def radii(self) -> List[float]:
        out = []
        r = float(self.r_max)
        floor = self.r_min * (1.0 - 1e-12)
        while r >= floor:
            out.append(r)
            r *= self.lam
        return out

    @property
    def log_weight(self) -> float:
        return math.log(1.0 / self.lam)


class Window:
    """A measure restricted to a ball and rescaled to the unit ball at the
    origin: float arrays of chord-clipped horizontal segments plus atoms."""

    __slots__ = ("seg_s", "seg_e", "seg_y", "seg_rho", "atom_x", "atom_y",
                 "atom_m", "mass")

    def __init__(self, seg_s, seg_e, seg_y, seg_rho, atom_x, atom_y, atom_m):
        self.seg_s = np.asarray(seg_s, dtype=float)
        self.seg_e = np.asarray(seg_e, dtype=float)
        self.seg_y = np.asarray(seg_y, dtype=float)
        self.seg_rho = np.asarray(seg_rho, dtype=float)
        self.atom_x = np.asarray(atom_x, dtype=float)
        self.atom_y = np.asarray(atom_y, dtype=float)
        self.atom_m = np.asarray(atom_m, dtype=float)
        self.mass = float((self.seg_rho * (self.seg_e - self.seg_s)).sum()
                          + self.atom_m.sum())

    @property
    def n_segments(self) -> int:
        return len(self.seg_s)

    @property
    def n_atoms(self) -> int:
        return len(self.atom_x)

    def support_points(self) -> np.ndarray:
        pts = []
        if self.n_segments:
            pts.append(np.column_stack([self.seg_s, self.seg_y]))
            pts.append(np.column_stack([self.seg_e, self.seg_y]))
        if self.n_atoms:
            pts.append(np.column_stack([self.atom_x, self.atom_y]))
        if not pts:
            return np.empty((0, 2))
        return np.vstack(pts)


def build_window(mu: AnyMeasure, x, r: Scalar) -> Window:
    """Restrict ``mu`` to ``B(x, r)`` and rescale to the unit ball.

    Rescaling is exact rational arithmetic; the chord clipping happens in
    floats with tolerance ``CLIP_TOL`` relative to the unit radius.
    """
    cx = to_fraction(x[0])
    cy = to_fraction(x[1])
    rr = to_fraction(r)
    if rr <= 0:
        raise ValueError("radius must be positive")

    if isinstance(mu, CantorMeasure):
        mu = mu.window((cx, cy), rr)

    seg_s: List[float] = []
    seg_e: List[float] = []
    seg_y: List[float] = []
    seg_rho: List[float] = []
    atom_x: List[float] = []
    atom_y: List[float] = []
    atom_m: List[float] = []

    if isinstance(mu, SegmentMeasure):
        for seg in mu.segments:
            y = float((seg.y - cy) / rr)
            if abs(y) > 1.0 + CLIP_TOL:
                continue
            w = math.sqrt(max(0.0, 1.0 - min(1.0, y * y)))
            s = max(float((seg.left.x - cx) / rr), -w)
            e = min(float((seg.right.x - cx) / rr), w)
            if e - s <= 0.0:
                continue
            seg_s.append(s)
            seg_e.append(e)
            seg_y.append(y)
            seg_rho.append(float(seg.density) * float(rr))
    elif isinstance(mu, AtomicMeasure):
        xs, ys, ms = mu.float_arrays()
        fcx, fcy, fr = float(cx), float(cy), float(rr)
        d2 = (xs - fcx) ** 2 + (ys - fcy) ** 2
        keep = d2 <= (fr * (1.0 + CLIP_TOL)) ** 2
        atom_x = ((xs[keep] - fcx) / fr).tolist()
        atom_y = ((ys[keep] - fcy) / fr).tolist()
        atom_m = ms[keep].tolist()
    else:
        raise TypeError(f"unsupported measure type {type(mu)!r}")

    # a unit of rescaled density keeps its value while lengths shrink by r,
    # so rescaled masses are the original ones divided by r
    scale = 1.0 / float(rr)
    return Window(seg_s, seg_e, seg_y,
                  np.asarray(seg_rho, dtype=float) * scale if seg_rho else [],
                  atom_x, atom_y,
                  np.asarray(atom_m) * scale if atom_m else [])


# ---------------------------------------------------------------------------
# inner problem: minimize over the line offset for fixed normal directions
# ---------------------------------------------------------------------------

class _Projection:
    """Support of a window projected onto a family of normal directions.

    For each direction the segments become weighted intervals on the line
    (or point masses when the direction is orthogonal to them), for which
    the ``|u - c|^p`` moments have closed forms.
    """

    __slots__ = ("ulo", "uhi", "lam", "umid", "pmass", "is_pt", "any_pt",
                 "au", "am", "lo", "hi")

    def __init__(self, win: Window, phis: np.ndarray):
        cos = np.cos(phis)[:, None]
        sin = np.sin(phis)[:, None]
        parts_lo, parts_hi = [], []
        if win.n_segments:
            u1 = win.seg_s[None, :] * cos + win.seg_y[None, :] * sin
            u2 = win.seg_e[None, :] * cos + win.seg_y[None, :] * sin
            self.ulo = np.minimum(u1, u2)
            self.uhi = np.maximum(u1, u2)
            self.pmass = np.broadcast_to(
                win.seg_rho * (win.seg_e - win.seg_s), self.ulo.shape)
            du = self.uhi - self.ulo
            self.is_pt = du <= 1e-14
            self.any_pt = bool(self.is_pt.any())
            with np.errstate(divide="ignore", invalid="ignore"):
                self.lam = np.where(self.is_pt, 0.0,
                                    self.pmass / np.where(self.is_pt, 1.0, du))
            self.umid = 0.5 * (self.ulo + self.uhi)
            parts_lo.append(self.ulo.min(axis=1))
            parts_hi.append(self.uhi.max(axis=1))
        else:
            self.ulo = self.uhi = self.lam = self.umid = None
            self.pmass = self.is_pt = None
            self.any_pt = False
        if win.n_atoms:
            self.au = (win.atom_x[None, :] * np.cos(phis)[:, None]
                       + win.atom_y[None, :] * np.sin(phis)[:, None])
            self.am = win.atom_m
            parts_lo.append(self.au.min(axis=1))
            parts_hi.append(self.au.max(axis=1))
        else:
            self.au = self.am = None
        self.lo = np.min(parts_lo, axis=0)
        self.hi = np.max(parts_hi, axis=0)

    def moment(self, c: np.ndarray, p: float) -> np.ndarray:
        """Closed-form ``int |u - c|^p`` against the projected measure
        (the antiderivative of ``|u|^p`` is ``sign(u)|u|^{p+1}/(p+1)``)."""
        q = p + 1.0
        total = 0.0
        if self.ulo is not None:
            vlo = self.ulo - c[:, None]
            vhi = self.uhi - c[:, None]
            cont = (np.sign(vhi) * _abs_pow(vhi, q)
                    - np.sign(vlo) * _abs_pow(vlo, q)) * (self.lam / q)
            if self.any_pt:
                pts = self.pmass * _abs_pow(self.umid - c[:, None], p)
                cont = np.where(self.is_pt, pts, cont)
            total = total + cont.sum(axis=1)
        if self.au is not None:
            total = total + (self.am * _abs_pow(self.au - c[:, None], p)
                             ).sum(axis=1)
        return total

    def dmoment(self, c: np.ndarray, p: float) -> np.ndarray:
        """Derivative of :meth:`moment` in ``c`` (nondecreasing in ``c``)."""
        total = 0.0
        if self.ulo is not None:
            vlo = self.ulo - c[:, None]
            vhi = self.uhi - c[:, None]
            cont = (_abs_pow(vlo, p) - _abs_pow(vhi, p)) * self.lam
            if self.any_pt:
                w = self.umid - c[:, None]
                pts = (-p) * self.pmass * np.sign(w) * _abs_pow(w, p - 1.0)
                cont = np.where(self.is_pt, pts, cont)
            total = total + cont.sum(axis=1)
        if self.au is not None:
            v = self.au - c[:, None]
            total = total + ((-p) * self.am * np.sign(v)
                             * _abs_pow(v, p - 1.0)).sum(axis=1)
        return total

    def minimize_offset(self, p: float, iters: int = C_BISECT_ITERS,
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Best offset per direction by bisection on the derivative (the
        objective is convex in the offset for p >= 1)."""
        lo = self.lo.copy()
        hi = self.hi.copy()
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            less = self.dmoment(mid, p) < 0.0
            lo = np.where(less, mid, lo)
            hi = np.where(less, hi, mid)
        c = 0.5 * (lo + hi)
        return c, self.moment(c, p)


def _weighted_median_smallest(u: np.ndarray, m: np.ndarray) -> float:
    """Smallest weighted median (ties resolved downward)."""
    order = np.argsort(u, kind="stable")
    u = u[order]
    m = m[order]
    csum = np.cumsum(m)
    half = 0.5 * csum[-1]
    idx = int(np.searchsorted(csum, half))
    return float(u[min(idx, len(u) - 1)])


def _solve_batch(win: Window, phis: np.ndarray, p: float,
                 iters: int = C_BISECT_ITERS,
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Inner minimization for a batch of directions: ``(offsets,
    objectives)``.  Pure atom measures at p = 1 use the exact smallest
    weighted median instead of bisection."""
    proj = _Projection(win, phis)
    if p == 1.0 and win.n_segments == 0 and win.n_atoms:
        cs = np.array([_weighted_median_smallest(proj.au[i], proj.am)
                       for i in range(len(phis))])
        return cs, proj.moment(cs, p)
    return proj.minimize_offset(p, iters)


# ---------------------------------------------------------------------------
# closed-form p = 2 minimizer
# ---------------------------------------------------------------------------

def _window_moments(win: Window):
    """Mass, raw first and second moments of a window (exact closed forms
    per segment)."""
    m = 0.0
    sx = sy = sxx = syy = sxy = 0.0
    if win.n_segments:
        w = win.seg_rho * (win.seg_e - win.seg_s)
        mx = 0.5 * (win.seg_s + win.seg_e)
        mxx = (win.seg_s ** 2 + win.seg_s * win.seg_e + win.seg_e ** 2) / 3.0
        m += w.sum()
        sx += (w * mx).sum()
        sy += (w * win.seg_y).sum()
        sxx += (w * mxx).sum()
        syy += (w * win.seg_y ** 2).sum()
        sxy += (w * mx * win.seg_y).sum()
    if win.n_atoms:
        m += win.atom_m.sum()
        sx += (win.atom_m * win.atom_x).sum()
        sy += (win.atom_m * win.atom_y).sum()
        sxx += (win.atom_m * win.atom_x ** 2).sum()
        syy += (win.atom_m * win.atom_y ** 2).sum()
        sxy += (win.atom_m * win.atom_x * win.atom_y).sum()
    return m, sx, sy, sxx, syy, sxy


def best_line_p2_window(win: Window) -> Tuple[float, float, float]:
    """Global L^2 minimizer in rescaled coordinates.

    The minimizing line passes through the centroid along the principal
    eigenvector of the centered second-moment matrix; the objective equals
    the smallest eigenvalue.  Returns ``(phi, c, objective)``.
    """
    m, sx, sy, sxx, syy, sxy = _window_moments(win)
    if m <= 0.0:
        raise EmptyBallError("zero clipped mass")
    cx, cy = sx / m, sy / m
    cxx = sxx - m * cx * cx
    cyy = syy - m * cy * cy
    cxy = sxy - m * cx * cy
    half_tr = 0.5 * (cxx + cyy)
    disc = math.sqrt(max(0.0, (0.5 * (cxx - cyy)) ** 2 + cxy * cxy))
    lam_min = max(0.0, half_tr - disc)
    # normal direction: eigenvector of the smallest eigenvalue
    v1 = (cxy, lam_min - cxx)
    v2 = (lam_min - cyy, cxy)
    nx, ny = v1 if math.hypot(*v1) >= math.hypot(*v2) else v2
    if math.hypot(nx, ny) < 1e-300:
        nx, ny = 0.0, 1.0  # isotropic cloud: any direction does
    norm = math.hypot(nx, ny)
    phi = math.atan2(ny / norm, nx / norm) % math.pi
    c = cx * math.cos(phi) + cy * math.sin(phi)
    return phi, c, lam_min


# ---------------------------------------------------------------------------
# collinearity fast path
# ---------------------------------------------------------------------------

def _collinear_line(win: Window, tol: float = 1e-12) -> Optional[Line]:
    """Return a line carrying the whole window support (within ``tol`` of
    the rescaled radius), or None."""
    pts = win.support_points()
    if len(pts) == 0:
        return Line.horizontal(0.0)
    if len(pts) == 1:
        return Line.horizontal(pts[0, 1])
    # two extreme support points span the candidate line when the support
    # is genuinely collinear
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    p0, p1 = pts[order[0]], pts[order[-1]]
    dx, dy = p1[0] - p0[0], p1[1] - p0[1]
    norm = math.hypot(dx, dy)
    if norm < tol:  # all support at one point
        return Line.horizontal(p0[1])
    nx, ny = -dy / norm, dx / norm
    phi = math.atan2(ny, nx) % math.pi
    line = Line(phi, p0[0] * math.cos(phi) + p0[1] * math.sin(phi))
    resid = np.abs(pts[:, 0] * math.cos(line.phi)
                   + pts[:, 1] * math.sin(line.phi) - line.c)
    if resid.max() <= tol:
        return line
    return None


# ---------------------------------------------------------------------------
# outer search
# ---------------------------------------------------------------------------

def _golden_batch(win: Window, p: float, centers: np.ndarray, step: float,
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Lock-step golden-section refinement of several direction brackets
    ``[center - step, center + step]``; one batched inner solve feeds every
    bracket per iteration.  Returns per-bracket ``(phi, c, objective)`` and
    the iteration count."""
    lo = centers - step
    hi = centers + step
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    c1, f1 = _solve_batch(win, x1, p)
    c2, f2 = _solve_batch(win, x2, p)
    iters = 0
    width = float(hi[0] - lo[0])
    while width > PHI_TOL:
        iters += 1
        take1 = f1 <= f2  # keep the left subinterval
        hi = np.where(take1, x2, hi)
        lo = np.where(take1, lo, x1)
        probes = np.where(take1, hi - _INV_GOLDEN * (hi - lo),
                          lo + _INV_GOLDEN * (hi - lo))
        cp, fp = _solve_batch(win, probes, p)
        # shift the surviving interior point, insert the probe
        x2n = np.where(take1, x1, probes)
        f2n = np.where(take1, f1, fp)
        c2n = np.where(take1, c1, cp)
        x1n = np.where(take1, probes, x2)
        f1n = np.where(take1, fp, f2)
        c1n = np.where(take1, cp, c2)
        x1, f1, c1 = x1n, f1n, c1n
        x2, f2, c2 = x2n, f2n, c2n
        width *= _INV_GOLDEN
    pick1 = f1 <= f2
    phi = np.where(pick1, x1, x2)
    cc = np.where(pick1, c1, c2)
    ff = np.where(pick1, f1, f2)
    return phi, cc, ff, iters


def best_line_search_window(win: Window, p: float,
                            ) -> Tuple[float, float, float, int]:
    """General-``p`` minimizer: rank the uniform direction grid with a
    coarse inner pass, then refine the three best brackets plus the two
    analytic seeds by batched golden section with fully converged inner
    solves.  Returns ``(phi, c, objective, iterations)``.
    """
    if win.mass <= 0.0:
        raise EmptyBallError("zero clipped mass")
    phis = np.arange(PHI_GRID) * (math.pi / PHI_GRID)
    _, objs = _solve_batch(win, phis, p, iters=C_BISECT_COARSE)
    iterations = PHI_GRID * C_BISECT_COARSE

    step = math.pi / PHI_GRID
    centers = [float(phis[i]) for i in np.argsort(objs)[:3]]
    try:
        phi2, _, _ = best_line_p2_window(win)
        centers.append(phi2)
    except EmptyBallError:
        pass
    centers.append(math.pi / 2)
    # drop near-duplicate brackets
    dedup: List[float] = []
    for c in centers:
        if all(min(abs(c - d), math.pi - abs(c - d)) > step / 2
               for d in dedup):
            dedup.append(c)

    bphi, bc, bobj, giters = _golden_batch(win, p, np.array(dedup), step)
    iterations += giters * len(dedup) * C_BISECT_ITERS
    # fully converged solves at the bracket centers guard the coarse pass
    ccs, cobjs = _solve_batch(win, np.array(dedup), p)
    iterations += len(dedup) * C_BISECT_ITERS
    best_i = int(np.argmin(bobj))
    phi, c, obj = float(bphi[best_i]), float(bc[best_i]), float(bobj[best_i])
    ci = int(np.argmin(cobjs))
    if cobjs[ci] < obj:
        phi, c, obj = float(dedup[ci]), float(ccs[ci]), float(cobjs[ci])
    # fold the angle into [0, pi); rotating the normal by pi flips the offset
    while phi < 0:
        phi += math.pi
        c = -c
    while phi >= math.pi:
        phi -= math.pi
        c = -c
    return phi, c, obj, iterations


def _map_line_back(phi: float, c: float, x, r) -> Line:
    cx, cy = float(x[0]), float(x[1])
    return Line(phi, c * float(r) + cx * math.cos(phi) + cy * math.sin(phi))


# ---------------------------------------------------------------------------
# public evaluation entry points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Core:
    """Shared minimization result in rescaled coordinates."""

    objective: float
    phi: float
    c: float
    mass: float
    segments: int
    atoms: int
    iterations: int


def _beta_core(mu: AnyMeasure, x, r: Scalar, p: float) -> _Core:
    if p < 1:
        raise ValueError("p must be >= 1")
    win = build_window(mu, x, r)
    if win.mass <= 0.0:
        return _Core(0.0, math.pi / 2, 0.0, 0.0, win.n_segments, win.n_atoms,
                     0)
    line = _collinear_line(win)
    if line is not None:
        return _Core(0.0, line.phi, line.c, win.mass, win.n_segments,
                     win.n_atoms, 0)
    if p == 2.0:
        phi, c, obj = best_line_p2_window(win)
        iters = 0
    else:
        phi, c, obj, iters = best_line_search_window(win, p)
    return _Core(max(0.0, obj), phi, c, win.mass, win.n_segments,
                 win.n_atoms, iters)


def beta_both(mu: AnyMeasure, x, r: Scalar, p: float = 2.0,
              ) -> Tuple[BetaResult, Optional[BetaResult]]:
    """Both normalizations from a single search: ``(beta, betaTilde)``.

    The two results share the minimizing line and the diagnostics and
    differ only in ``value`` and ``variant``.  The mass-normalized result
    is None on a ball of zero mass (the radius-normalized one vanishes
    there).
    """
    core = _beta_core(mu, x, r, p)
    b = BetaResult(core.objective ** (1.0 / p),
                   _map_line_back(core.phi, core.c, x, r), "beta", p,
                   core.mass * float(r), core.segments, core.atoms,
                   core.iterations)
    if core.mass <= 0.0:
        return b, None
    return b, replace(b, value=(core.objective / core.mass) ** (1.0 / p),
                      variant="betaTilde")


def beta(mu: AnyMeasure, x, r: Scalar, p: float = 2.0,
         variant: str = "beta") -> BetaResult:
    """Evaluate one coefficient; see the module docstring for the two
    variants.  Raises ``EmptyBallError`` for the mass-normalized variant on
    balls of zero mass (the radius-normalized one vanishes there).
    """
    if variant not in ("beta", "betaTilde"):
        raise ValueError("variant must be 'beta' or 'betaTilde'")
    b, t = beta_both(mu, x, r, p)
    if variant == "beta":
        return b
    if t is None:
        raise EmptyBallError(f"no mass in the ball at {x}, r={r}")
    return t


def best_line_p2(mu: AnyMeasure, ball: Ball) -> Line:
    """Exact L^2 best line of the clipped measure (original coordinates)."""
    win = build_window(mu, (ball.cx, ball.cy), ball.radius)
    phi, c, _ = best_line_p2_window(win)
    return _map_line_back(phi, c, (float(ball.cx), float(ball.cy)),
                          float(ball.radius))


def best_line_search(mu: AnyMeasure, ball: Ball, p: float) -> Line:
    """General-``p`` best line of the clipped measure (original
    coordinates)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    win = build_window(mu, (ball.cx, ball.cy), ball.radius)
    line = _collinear_line(win)
    if line is not None:
        phi, c = line.phi, line.c
    else:
        phi, c, _, _ = best_line_search_window(win, p)
    return _map_line_back(phi, c, (float(ball.cx), float(ball.cy)),
                          float(ball.radius))


# ---------------------------------------------------------------------------
# multiscale aggregation
# ---------------------------------------------------------------------------

@dataclass
class SquareFunctionDetails:
    """Diagnostics of a square-function sum."""

    empty_balls: int = 0


def _sum_squares(mu: AnyMeasure, x, p: float,
                 scales: Iterable[Tuple[float, float]],
                 details: Optional[SquareFunctionDetails] = None,
                 ) -> Tuple[float, float]:
    """``sum value(r)^2 * weight`` over ``(r, weight)`` scales for both
    variants, one line search per scale: ``(beta_sum, betaTilde_sum)``.
    Mass-normalized terms of empty balls contribute 0 and are counted in
    ``details.empty_balls``."""
    total_b = 0.0
    total_t = 0.0
    for r, weight in scales:
        b, t = beta_both(mu, x, r, p)
        total_b += b.value * b.value * weight
        if t is not None:
            total_t += t.value * t.value * weight
        elif details is not None:
            details.empty_balls += 1
    return total_b, total_t


def square_function(mu: AnyMeasure, x, p: float, grid: ScaleGrid,
                    details: Optional[SquareFunctionDetails] = None,
                    ) -> Tuple[float, float]:
    """Riemann-sum approximation of ``int beta(x,r)^2 dr/r`` over the grid,
    ``sum_m value(r_m)^2 * ln(1/lam)``, for both variants from one line
    search per scale: ``(beta_sum, betaTilde_sum)``.

    Mass-normalized coefficients on empty balls contribute 0 and are
    counted in ``details.empty_balls``.
    """
    weight = grid.log_weight
    return _sum_squares(mu, x, p, ((r, weight) for r in grid.radii()),
                        details)


def increment_pair(mu: AnyMeasure, x, p: float, r_lo: Scalar, r_hi: Scalar,
                   lam: float = 2.0 ** -0.25,
                   dense_octaves: float = 16.0) -> Tuple[float, float]:
    """Square-function sub-sums over ``(r_lo, r_hi]``, anchored at
    ``r_hi``, for both variants from one line search per scale:
    ``(beta_sum, betaTilde_sum)``.

    The grid is dense (ratio ``lam``) over the ``dense_octaves`` octaves
    above ``r_lo``, where the integrand concentrates, and one sample per
    octave further up; each sample is weighted by its own log step, so the
    whole window is still covered.
    """
    r_lo = float(r_lo)
    r_hi = float(r_hi)
    if not 0 < r_lo < r_hi:
        raise ValueError("need 0 < r_lo < r_hi")

    def scales():
        r = r_hi
        switch = r_lo * 2.0 ** dense_octaves
        while r > r_lo * (1.0 + 1e-12):
            ratio = lam if r <= switch else 0.5
            yield r, math.log(1.0 / ratio)
            r *= ratio

    return _sum_squares(mu, x, p, scales())


def beta_lower_bound_probe(mu: CantorMeasure, x, k: int, p: float,
                           sched, n_radii: int = 7) -> float:
    """Smallest coefficient over a grid of radii in ``[2 h_k, 4 h_k]``,
    used to probe the divergence mechanism of slow-decay schedules."""
    if isinstance(mu, CantorMeasure) and mu.gen < k:
        raise ValueError("measure generation must be at least k")
    h_k = float(sched.h_of(k))
    vals = []
    for i in range(n_radii):
        r = 2.0 * h_k * (2.0 ** (i / (n_radii - 1)))
        vals.append(beta(mu, x, r, p).value)
    return min(vals)
