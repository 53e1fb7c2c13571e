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

Every coefficient, single, over the radii of many points or summed into
square functions, scores its windows through one core: an empty window
gives 0; a window whose builder found a line carrying every piece
(``Window.line``, decided exactly from the int pieces) gives 0 on that
line; p = 2 takes the closed-form smallest eigenvalue of the window's
moments; any other p runs the search.  Callers hand the core a batch of
jobs, each a measure, a point and its radii: :func:`beta_both_points` takes
one job per point, :func:`sum_squares` one per square function, each job
with its own measure and scales.  The measure gives all the windows of a
job in one ``unit_windows`` call, and the windows of every job of the
batch go to the core together.  The single-point functions
(:func:`beta_both_radii`, :func:`square_function`, :func:`increment_pair`)
are batches of one job.

The searches of those windows run together, in lock step: each stage (the
coarse grid pass, the golden-section steps, the guard solves) is one set of
numpy calls, with one row per (window, direction) holding the pieces of
its window.  The pieces of every row are laid flat, row after row, and
steps piece by piece run on all of them at once, giving each piece the
value it gets in a search of its window alone.  Sums, minima and maxima
over a row are one ``ufunc.reduceat`` at the row starts, which reads only
that row, so a window's result does not depend on its batch.  Each row
opens with a pad slot whose terms are exactly 0.0: ``np.add.reduceat``
adds a row's first element to the pairwise sum of the rest, so the pad
keeps the numbers and order of a ``(rows, n)`` row sum, bit for bit.  The
coarse pass, whose rows are 180 per window, runs over consecutive windows
in chunks of at most ``COARSE_CHUNK_PIECES`` pieces (one window at least),
to keep its arrays small however many jobs the batch holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain, islice
from typing import (TYPE_CHECKING, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from .errors import EmptyBallError
from .geometry import Line, Scalar, to_fraction
from .measures import AnyMeasure, Window

if TYPE_CHECKING:
    from .cantor import CantorMeasure

PHI_GRID = 180              # outer uniform grid over [0, pi)
PHI_TOL = 1e-8              # golden-section stopping width on the angle
C_BISECT_ITERS = 46         # offset bisection steps (range <= 2.2)
C_BISECT_COARSE = 22        # cheap pass used only to rank directions
DENSE_OCTAVES = 16.0        # increment_pair: dense grid octaves above r_lo
COARSE_CHUNK_PIECES = 128   # window pieces per coarse-pass chunk
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
        if not 0 < self.r_min < self.r_max < math.inf:
            raise ValueError("need 0 < r_min < r_max < inf")
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


def build_window(mu: AnyMeasure, x, r: Scalar) -> Window:
    """Restrict ``mu`` to ``B(x, r)`` and rescale to the unit ball: the
    measure's own ``unit_windows`` at the exact center and radius."""
    r = to_fraction(r)
    if r <= 0:
        raise ValueError("radius must be positive")
    return next(mu.unit_windows(to_fraction(x[0]), to_fraction(x[1]), [r]))


# ---------------------------------------------------------------------------
# inner problem: minimize over the line offset for fixed normal directions
# ---------------------------------------------------------------------------

class _Rows(NamedTuple):
    """The pieces of one window per row, flattened row after row into
    ``s, e, y, m``: row ``i`` holds the ``width[i] >= 2`` slots at
    ``starts[i]``, its pad slot and then its pieces."""

    s: np.ndarray
    e: np.ndarray
    y: np.ndarray
    m: np.ndarray
    width: np.ndarray
    starts: np.ndarray


class _Pieces:
    """The pieces of nonempty windows, concatenated once, each window's led
    by its pad slot, a zero-mass point at the start of its first piece;
    rows of any of the windows are gathered from them."""

    def __init__(self, windows: Sequence[Window]):
        self.n = np.array([len(w.m) for w in windows])
        cut = np.cumsum(self.n) - self.n
        self.start = cut + np.arange(len(cut))
        s, e, y, m = (np.concatenate([getattr(w, k) for w in windows])
                      for k in "seym")
        self.flat = [np.insert(a, cut, pad) for a, pad in
                     ((s, s[cut]), (e, s[cut]), (y, y[cut]), (m, 0.0))]

    def rows(self, owner: np.ndarray) -> _Rows:
        """Row ``i`` holds the pad and the pieces of window ``owner[i]``."""
        width = self.n[owner] + 1
        end = np.cumsum(width)
        starts = end - width
        index = np.arange(end[-1]) + np.repeat(self.start[owner] - starts,
                                               width)
        return _Rows(*(a[index] for a in self.flat), width, starts)


class _Projection:
    """Support of windows projected onto normal directions, one direction
    per row of ``rows`` (for one :class:`Window`, the window on every
    row).

    For each direction the pieces become weighted intervals on the line,
    or point masses where the projected width vanishes (atoms, and
    segments orthogonal to the direction), for which the ``|u - c|^p``
    moments have closed forms.  Every piece-wise step runs on the flat
    arrays at once; each reduction over a row is one ``reduceat`` at the
    row starts.  A pad slot (see the module docstring) lies on its row's
    first piece, so it moves no bound, and has ``lam = 0`` off the point
    masses, so its terms are ``(x - x) * 0 = 0.0``.  Piece arrays are
    combined in place where that keeps fewer of them alive: the coarse
    pass holds 180 rows per window, and its peak sets the memory of the
    search.
    """

    __slots__ = ("width", "starts", "ulo", "uhi", "lam", "umid", "pmass",
                 "is_pt", "any_pt", "lo", "hi")

    def __init__(self, rows, phis: np.ndarray):
        if isinstance(rows, Window):
            rows = _Pieces([rows]).rows(np.zeros(len(phis), dtype=int))
        self.width = rows.width
        self.starts = rows.starts
        cos = np.repeat(np.cos(phis), rows.width)
        ysin = np.repeat(np.sin(phis), rows.width)
        ysin *= rows.y
        u1 = rows.s * cos
        u1 += ysin
        u2 = np.multiply(rows.e, cos, out=cos)
        u2 += ysin
        del cos, ysin
        self.ulo = np.minimum(u1, u2)
        self.uhi = np.maximum(u1, u2, out=u1)
        self.pmass = rows.m
        du = self.uhi - self.ulo
        self.is_pt = du <= 1e-14
        with np.errstate(divide="ignore", invalid="ignore"):
            self.lam = np.where(self.is_pt, 0.0,
                                self.pmass / np.where(self.is_pt, 1.0, du))
        self.is_pt[self.starts] = False
        self.any_pt = bool(self.is_pt.any())
        self.umid = 0.5 * (self.ulo + self.uhi)
        self.lo = np.minimum.reduceat(self.ulo, self.starts)
        self.hi = np.maximum.reduceat(self.uhi, self.starts)

    def moment(self, c: np.ndarray, p: float) -> np.ndarray:
        """Closed-form ``int |u - c|^p`` against the projected measure
        (the antiderivative of ``|u|^p`` is ``sign(u)|u|^{p+1}/(p+1)``)."""
        q = p + 1.0
        c = np.repeat(c, self.width)
        v = self.uhi - c
        cont = np.sign(v) * _abs_pow(v, q)
        v = self.ulo - c
        cont -= np.sign(v) * _abs_pow(v, q)
        cont *= self.lam / q
        if self.any_pt:
            np.copyto(cont, self.pmass * _abs_pow(self.umid - c, p),
                      where=self.is_pt)
        return np.add.reduceat(cont, self.starts)

    def dmoment(self, c: np.ndarray, p: float) -> np.ndarray:
        """Derivative of :meth:`moment` in ``c`` (nondecreasing in ``c``)."""
        c = np.repeat(c, self.width)
        cont = _abs_pow(self.ulo - c, p)
        cont -= _abs_pow(self.uhi - c, p)
        cont *= self.lam
        if self.any_pt:
            w = self.umid - c
            np.copyto(cont, (-p) * self.pmass * np.sign(w)
                      * _abs_pow(w, p - 1.0), where=self.is_pt)
        return np.add.reduceat(cont, self.starts)

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


# ---------------------------------------------------------------------------
# closed-form p = 2 minimizer
# ---------------------------------------------------------------------------

def _centered_moments(win: Window) -> Tuple[float, ...]:
    """Centroid, centered second moments and their smallest eigenvalue
    ``(cx, cy, cxx, cyy, cxy, lam_min)`` of a window of positive mass, from
    the raw moments of its pieces (exact closed forms per piece);
    ``lam_min`` is the L^2 objective of the best line."""
    m, w = win.mass, win.m
    mx = 0.5 * (win.s + win.e)
    mxx = (win.s ** 2 + win.s * win.e + win.e ** 2) / 3.0
    cx, cy = (w * mx).sum() / m, (w * win.y).sum() / m
    cxx = (w * mxx).sum() - m * cx * cx
    cyy = (w * win.y ** 2).sum() - m * cy * cy
    cxy = (w * mx * win.y).sum() - m * cx * cy
    half_tr = 0.5 * (cxx + cyy)
    disc = math.sqrt(max(0.0, (0.5 * (cxx - cyy)) ** 2 + cxy * cxy))
    return cx, cy, cxx, cyy, cxy, max(0.0, half_tr - disc)


def best_line_p2_window(win: Window) -> Tuple[float, float, float]:
    """Global L^2 minimizer in rescaled coordinates.

    The minimizing line passes through the centroid along the principal
    eigenvector of the centered second-moment matrix; the objective equals
    the smallest eigenvalue.  Returns ``(phi, c, objective)``.
    """
    if win.mass <= 0.0:
        raise EmptyBallError("zero clipped mass")
    cx, cy, cxx, cyy, cxy, lam_min = _centered_moments(win)
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
# outer search
# ---------------------------------------------------------------------------

def _golden_steps(width: float) -> int:
    """Golden-section steps that shrink a bracket of ``width`` to
    ``PHI_TOL``."""
    steps = 0
    while width > PHI_TOL:
        width *= _INV_GOLDEN
        steps += 1
    return steps


#: every bracket is ``[center - step, center + step]`` with ``step =
#: pi / PHI_GRID``, so its float width is ``2 step`` up to 2 ulp, far from a
#: step boundary (31 steps leave 1.19e-8 > PHI_TOL, 32 leave 7.4e-9): one
#: count serves every bracket
_GOLDEN_STEPS = _golden_steps(2.0 * math.pi / PHI_GRID)


def _golden(rows: _Rows, p: float, centers: np.ndarray, step: float,
            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lock-step golden-section refinement of the direction brackets
    ``[center - step, center + step]``, one per row of ``rows``; one
    batched inner solve feeds every bracket per step.  Returns per-bracket
    ``(phi, c, objective)``."""
    lo = centers - step
    hi = centers + step
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    c1, f1 = _Projection(rows, x1).minimize_offset(p)
    c2, f2 = _Projection(rows, x2).minimize_offset(p)
    for _ in range(_GOLDEN_STEPS):
        take1 = f1 <= f2  # keep the left subinterval
        hi = np.where(take1, x2, hi)
        lo = np.where(take1, lo, x1)
        probes = np.where(take1, hi - _INV_GOLDEN * (hi - lo),
                          lo + _INV_GOLDEN * (hi - lo))
        cp, fp = _Projection(rows, probes).minimize_offset(p)
        # shift the surviving interior point, insert the probe
        x2n = np.where(take1, x1, probes)
        f2n = np.where(take1, f1, fp)
        c2n = np.where(take1, c1, cp)
        x1n = np.where(take1, probes, x2)
        f1n = np.where(take1, fp, f2)
        c1n = np.where(take1, cp, c2)
        x1, f1, c1 = x1n, f1n, c1n
        x2, f2, c2 = x2n, f2n, c2n
    pick1 = f1 <= f2
    return (np.where(pick1, x1, x2), np.where(pick1, c1, c2),
            np.where(pick1, f1, f2))


def _brackets(win: Window, grid: np.ndarray, objs: np.ndarray,
              step: float) -> List[float]:
    """Bracket centers of one window: its three best grid directions, the
    exact L^2 direction and the horizontal one, near-duplicates dropped."""
    centers = [float(grid[i]) for i in np.argsort(objs)[:3]]
    centers.append(best_line_p2_window(win)[0])
    centers.append(math.pi / 2)
    dedup: List[float] = []
    for c in centers:
        if all(min(abs(c - d), math.pi - abs(c - d)) > step / 2
               for d in dedup):
            dedup.append(c)
    return dedup


def _coarse_chunks(n: np.ndarray) -> List[Tuple[int, int]]:
    """``(start, stop)`` of runs of consecutive windows, of piece counts
    ``n``, that the coarse pass takes together: at most
    ``COARSE_CHUNK_PIECES`` pieces per run, and one window at least."""
    cuts = [0]
    held = 0
    for i, count in enumerate(n.tolist()):
        if held and held + count > COARSE_CHUNK_PIECES:
            cuts.append(i)
            held = 0
        held += count
    cuts.append(len(n))
    return list(zip(cuts, cuts[1:]))


def _search(windows: Sequence[Window], p: float,
            ) -> List[Tuple[float, float, float, int]]:
    """General-``p`` minimizer of each window, ``(phi, c, objective,
    iterations)`` in order: rank the uniform direction grid with a coarse
    inner pass, then refine the three best brackets plus the two analytic
    seeds by golden section with fully converged inner solves.  The
    windows run in lock step, as the module docstring sets out."""
    if not windows:
        return []
    pieces = _Pieces(windows)
    grid = np.arange(PHI_GRID) * (math.pi / PHI_GRID)
    objs = []
    for a, b in _coarse_chunks(pieces.n):
        # no name holds the rows or the projection past its own pass
        _, found = _Projection(
            pieces.rows(np.repeat(np.arange(a, b), PHI_GRID)),
            np.tile(grid, b - a)).minimize_offset(p, C_BISECT_COARSE)
        objs.extend(found.reshape(b - a, PHI_GRID))

    step = math.pi / PHI_GRID
    brackets = [_brackets(win, grid, o, step)
                for win, o in zip(windows, objs)]
    counts = [len(b) for b in brackets]
    centers = np.array([c for b in brackets for c in b])
    rows = pieces.rows(np.repeat(np.arange(len(windows)), counts))
    bphi, bc, bobj = _golden(rows, p, centers, step)
    # fully converged solves at the bracket centers guard the coarse pass
    ccs, cobjs = _Projection(rows, centers).minimize_offset(p)

    out = []
    start = 0
    for count in counts:
        sl = slice(start, start + count)
        start += count
        best_i = int(np.argmin(bobj[sl]))
        phi, c, obj = (float(bphi[sl][best_i]), float(bc[sl][best_i]),
                       float(bobj[sl][best_i]))
        ci = int(np.argmin(cobjs[sl]))
        if cobjs[sl][ci] < obj:
            phi, c, obj = (float(centers[sl][ci]), float(ccs[sl][ci]),
                           float(cobjs[sl][ci]))
        # fold the angle into [0, pi); rotating the normal by pi flips the
        # offset
        while phi < 0:
            phi += math.pi
            c = -c
        while phi >= math.pi:
            phi -= math.pi
            c = -c
        iterations = (PHI_GRID * C_BISECT_COARSE
                      + (_GOLDEN_STEPS + 1) * count * C_BISECT_ITERS)
        out.append((phi, c, obj, iterations))
    return out


def best_line_search_window(win: Window, p: float,
                            ) -> Tuple[float, float, float, int]:
    """General-``p`` minimizer of one window, the batch of one of
    :func:`_search`.  Returns ``(phi, c, objective, iterations)``."""
    if win.mass <= 0.0:
        raise EmptyBallError("zero clipped mass")
    return _search([win], p)[0]


def _map_line_back(phi: float, c: float, x, r) -> Line:
    cx, cy = float(x[0]), float(x[1])
    return Line(phi, c * float(r) + cx * math.cos(phi) + cy * math.sin(phi))


# ---------------------------------------------------------------------------
# public evaluation entry points
# ---------------------------------------------------------------------------

def _best_lines(windows: Iterable[Window], p: float,
                ) -> List[Tuple[float, float, float, int, float, int, int]]:
    """The one core behind every coefficient: ``(objective, phi, c,
    iterations)`` of the best line of each window in rescaled coordinates,
    in order, where the objective is ``int dist^p`` over the window,
    followed by the window's ``(mass, n_segments, n_atoms)``.

    Each window is scored as it arrives: an empty window scores 0 (on the
    horizontal line through the center), a window with a ``line`` 0 on
    that line, and at p = 2 the closed form is taken.  Only the windows
    left for the general-``p`` search are held, and they are searched
    together by :func:`_search` once ``windows`` is exhausted."""
    if not 1 <= p < math.inf:
        raise ValueError("p must be finite and >= 1")
    out: List = []
    held: List[Tuple[int, Window]] = []
    for win in windows:
        facts = (win.mass, win.n_segments, win.n_atoms)
        if win.mass <= 0.0:
            out.append((0.0, math.pi / 2, 0.0, 0, *facts))
            continue
        if win.line is not None:
            out.append((0.0, win.line.phi, win.line.c, 0, *facts))
        elif p == 2.0:
            phi, c, obj = best_line_p2_window(win)
            out.append((max(0.0, obj), phi, c, 0, *facts))
        else:
            held.append((len(out), win))
            out.append(facts)
    found = _search([win for _, win in held], p)
    for (i, _), (phi, c, obj, iters) in zip(held, found):
        out[i] = (max(0.0, obj), phi, c, iters, *out[i])
    return out


def _values(obj: float, mass: float, p: float,
            ) -> Tuple[float, Optional[float]]:
    """The values ``(beta, betaTilde)`` of a window's objective; betaTilde
    is None on an empty window."""
    tilde = (obj / mass) ** (1.0 / p) if mass > 0.0 else None
    return obj ** (1.0 / p), tilde


def _job_lines(jobs: Sequence[Tuple[AnyMeasure, object, Sequence[Scalar]]],
               p: float) -> List[List[tuple]]:
    """:func:`_best_lines` of the windows of every ``(mu, x, radii)`` job
    in one batch, split back per job: the windows of a job come from one
    ``mu.unit_windows`` call around ``x``, one window per radius."""
    found = iter(_best_lines(chain.from_iterable(
        mu.unit_windows(to_fraction(x[0]), to_fraction(x[1]), radii)
        for mu, x, radii in jobs), p))
    return [list(islice(found, len(radii))) for _, _, radii in jobs]


def beta_both_points(mu: AnyMeasure, points: Sequence, radii: Sequence[Scalar],
                     p: float = 2.0,
                     ) -> List[List[Tuple[BetaResult, Optional[BetaResult]]]]:
    """:func:`beta_both` at each radius of ``radii`` around each point of
    ``points``, one list per point: one ``unit_windows`` call per point and
    one batched search over every window."""
    radii = [to_fraction(r) for r in radii]
    if any(r <= 0 for r in radii):
        raise ValueError("radius must be positive")
    lines = _job_lines([(mu, x, radii) for x in points], p)
    out = []
    for x, found in zip(points, lines):
        both = []
        for r, (obj, phi, c, iters, mass, segments, atoms) in zip(radii,
                                                                  found):
            value, tilde = _values(obj, mass, p)
            b = BetaResult(value, _map_line_back(phi, c, x, r), "beta", p,
                           mass * float(r), segments, atoms, iters)
            both.append((b, None if tilde is None
                         else replace(b, value=tilde, variant="betaTilde")))
        out.append(both)
    return out


def beta_both_radii(mu: AnyMeasure, x, radii: Sequence[Scalar],
                    p: float = 2.0,
                    ) -> List[Tuple[BetaResult, Optional[BetaResult]]]:
    """:func:`beta_both` at each radius of ``radii`` around one point, the
    one-point call of :func:`beta_both_points`."""
    return beta_both_points(mu, [x], radii, p)[0]


def beta_both(mu: AnyMeasure, x, r: Scalar, p: float = 2.0,
              ) -> Tuple[BetaResult, Optional[BetaResult]]:
    """Both normalizations from a single search: ``(beta, betaTilde)``.

    The two results share the minimizing line and the diagnostics and
    differ only in ``value`` and ``variant``.  The mass-normalized result
    is None on a ball of zero mass (the radius-normalized one vanishes
    there).
    """
    return beta_both_radii(mu, x, [r], p)[0]


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


# ---------------------------------------------------------------------------
# multiscale aggregation
# ---------------------------------------------------------------------------

def sum_squares(jobs: Iterable[Tuple[AnyMeasure, object,
                                      Iterable[Tuple[float, float]]]],
                p: float) -> List[Tuple[float, float, int]]:
    """``sum value(r)^2 * weight`` over the ``(r, weight)`` scales of each
    ``(mu, x, scales)`` job, for both variants: ``(beta_sum,
    betaTilde_sum, empty_balls)`` per job, from one ``unit_windows`` call
    per job and one :func:`_best_lines` over the windows of every job.
    Mass-normalized terms of empty balls contribute 0 and are counted in
    ``empty_balls``."""
    jobs = [(mu, x, list(scales)) for mu, x, scales in jobs]
    lines = _job_lines([(mu, x, [r for r, _ in scales])
                        for mu, x, scales in jobs], p)
    out = []
    for (_, _, scales), found in zip(jobs, lines):
        total_b = 0.0
        total_t = 0.0
        empty = 0
        for (_, weight), (obj, _, _, _, mass, _, _) in zip(scales, found):
            b, t = _values(obj, mass, p)
            total_b += b * b * weight
            if t is not None:
                total_t += t * t * weight
            else:
                empty += 1
        out.append((total_b, total_t, empty))
    return out


def square_function(mu: AnyMeasure, x, p: float, grid: ScaleGrid,
                    ) -> Tuple[float, float]:
    """Riemann-sum approximation of ``int beta(x,r)^2 dr/r`` over the grid,
    ``sum_m value(r_m)^2 * ln(1/lam)``, for both variants: ``(beta_sum,
    betaTilde_sum)``, the one-job call of :func:`sum_squares`.
    Mass-normalized coefficients on empty balls contribute 0; the count of
    those balls is the third element of :func:`sum_squares`.
    """
    weight = grid.log_weight
    total_b, total_t, _ = sum_squares(
        [(mu, x, [(r, weight) for r in grid.radii()])], p)[0]
    return total_b, total_t


def increment_scales(r_lo: float, r_hi: float, lam: float,
                     ) -> List[Tuple[float, float]]:
    """The ``(r, weight)`` scales of the square-function sub-sum over
    ``(r_lo, r_hi]``, anchored at ``r_hi``.

    The grid is dense (ratio ``lam``) over the ``DENSE_OCTAVES`` octaves
    above ``r_lo``, where the integrand concentrates, and one sample per
    octave further up; each sample is weighted by its own log step, so the
    whole window is still covered.
    """
    if not 0 < r_lo < r_hi < math.inf:
        raise ValueError("need 0 < r_lo < r_hi < inf")
    if not 0 < lam < 1:
        raise ValueError("lam must lie in (0,1)")
    out = []
    r = r_hi
    switch = r_lo * 2.0 ** DENSE_OCTAVES
    while r > r_lo * (1.0 + 1e-12):
        ratio = lam if r <= switch else 0.5
        out.append((r, math.log(1.0 / ratio)))
        r *= ratio
    return out


def increment_pair(mu: AnyMeasure, x, p: float, r_lo: Scalar, r_hi: Scalar,
                   lam: float = 2.0 ** -0.25) -> Tuple[float, float]:
    """Square-function sub-sums over :func:`increment_scales` for both
    variants: ``(beta_sum, betaTilde_sum)``, the one-job call of
    :func:`sum_squares`."""
    total_b, total_t, _ = sum_squares(
        [(mu, x, increment_scales(float(r_lo), float(r_hi), lam))], p)[0]
    return total_b, total_t


def beta_lower_bound_probe(mu: CantorMeasure, x, k: int, p: float,
                           sched) -> float:
    """Smallest coefficient over the radii ``2^(i/6) 2 h_k``, ``i <= 6``,
    used to probe the divergence mechanism of slow-decay schedules."""
    if mu.gen < k:
        raise ValueError("measure generation must be at least k")
    h_k = float(sched.h_of(k))
    radii = [2.0 * h_k * (2.0 ** (i / 6)) for i in range(7)]
    return min(b.value for b, _ in beta_both_radii(mu, x, radii, p))
