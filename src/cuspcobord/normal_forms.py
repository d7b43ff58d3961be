"""Explicit local models of maps to the plane and their numerics.

All models share the shape F(t, z) = (t, h(t, z)) with z the remaining
n-1 coordinates.  Their singular set is the zero set of the z-gradient of
h; a singular point is a fold where the z-Hessian is nondegenerate (its
negative-eigenvalue count grades the fold) and a cusp candidate where the
Hessian drops rank.

The module evaluates the models and their Jacobians analytically, locates
singular sets by Newton iteration from grid seeds, classifies and polishes
the results, verifies the controlled-perturbation statement for fold maps
perturbed by compactly supported bumps, and draws singular-value curves
and renders them to SVG/CSV.  All floating point in the package lives here.

Each model's formulas and checks live in its kind class (Fold, Cusp,
SwallowTail, PerturbedFold); no other code tests the kind.  Row formulas
take the first coordinates T, the z-coordinates Z and the form's signs
eps, one row per point, and round each entry as for that point alone.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import PreconditionError

__all__ = [
    "PiecewisePoly",
    "smooth_bump",
    "Fold",
    "Cusp",
    "SwallowTail",
    "PerturbedFold",
    "LocalMap",
    "evaluate",
    "jacobian",
    "GridSpec",
    "default_grid",
    "SingularSample",
    "detect_singular_set",
    "SwallowTailCurve",
    "perturbation_supremum",
    "PerturbedFoldReport",
    "perturbed_fold_image",
    "PlanarCurve",
    "singular_value_curve",
    "render_svg",
    "samples_to_csv",
]

NEWTON_RESIDUAL = 1e-12
DEDUP_RADIUS = 1e-6
HESSIAN_RANK_RATIO = 1e-5
NEWTON_MAXITER = 80
NEWTON_BLOCK = 2048  # seeds per batch, so memory does not grow with the grid
MAX_SEEDS = 10 ** 6  # seed budget of one detection
PERTURBATION_MARGIN = 1e-6  # sup |alpha * beta'| must stay below 1 minus this
# Range of the swallowtail |t|.  The rank test is relative: from |t| near
# 2 / HESSIAN_RANK_RATIO on, every fold sample reads as a cusp candidate,
# and from |t| near 2 * HESSIAN_RANK_RATIO down some fold samples do;
# from about 1e-60 down, Newton overflows.
MIN_ABS_T = 1e-4
MAX_ABS_T = 1e4


# ---------------------------------------------------------------------------
# compactly supported piecewise polynomials


def _poly_eval(coeffs: Sequence[float], t: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _poly_derive(coeffs: Sequence[float]) -> tuple[float, ...]:
    return tuple(k * c for k, c in enumerate(coeffs))[1:] or (0.0,)


def _poly_compose_linear(coeffs: Sequence[float], a: float,
                         b: float) -> tuple[float, ...]:
    """Coefficients of P(a + b*t) given those of P(u)."""
    out = [0.0]
    for c in reversed(coeffs):
        # out = out * (a + b t) + c
        shifted = [0.0] * (len(out) + 1)
        for k, v in enumerate(out):
            shifted[k] += v * a
            shifted[k + 1] += v * b
        shifted[0] += c
        while len(shifted) > 1 and shifted[-1] == 0.0:
            shifted.pop()
        out = shifted
    return tuple(out)


@dataclass(frozen=True, slots=True)
class PiecewisePoly:
    """Piecewise polynomial on consecutive knot intervals, zero outside.

    ``pieces[j]`` holds ascending-power coefficients valid on
    [knots[j], knots[j+1]].  Support is compact by construction, which the
    perturbation checks rely on.
    """

    knots: tuple[float, ...]
    pieces: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if len(self.knots) != len(self.pieces) + 1:
            raise ValueError("need exactly one more knot than pieces")
        if len(self.knots) < 2:
            raise ValueError("need at least one interval")
        for a, b in zip(self.knots, self.knots[1:]):
            if not (np.isfinite(a) and np.isfinite(b) and a < b):
                raise ValueError("knots must be finite and increasing")
        if not all(map(math.isfinite, (c for p in self.pieces for c in p))):
            raise ValueError("coefficients must be finite")

    def __call__(self, t: float) -> float:
        if t < self.knots[0] or t > self.knots[-1]:
            return 0.0
        j = min(bisect_right(self.knots, t) - 1, len(self.pieces) - 1)
        return _poly_eval(self.pieces[j], t)

    def at(self, u: np.ndarray) -> np.ndarray:
        """Values at every entry of u, each equal to ``self(entry)``: the
        same Horner steps, elementwise."""
        out = np.zeros(u.shape)
        inside = (u >= self.knots[0]) & (u <= self.knots[-1])
        ui = u[inside]
        j = np.minimum(np.searchsorted(self.knots, ui, side="right") - 1,
                       len(self.pieces) - 1)
        # highest power first, padded with zero leading coefficients: a
        # padded step leaves the accumulator at +0.0, where Horner starts
        width = max(len(c) for c in self.pieces)
        table = np.array([(0.0,) * (width - len(c)) + tuple(reversed(c))
                          for c in self.pieces])[j]
        acc = np.zeros(ui.shape)
        for c in table.T:
            acc = acc * ui + c
        out[inside] = acc
        return out

    def derivative(self) -> "PiecewisePoly":
        return PiecewisePoly(self.knots,
                             tuple(_poly_derive(p) for p in self.pieces))

    def support(self) -> tuple[float, float]:
        return self.knots[0], self.knots[-1]

    def max_abs(self) -> float:
        """Exact supremum of |value|: checked on knots and stationary points."""
        best = 0.0
        for j, coeffs in enumerate(self.pieces):
            lo, hi = self.knots[j], self.knots[j + 1]
            cands = [lo, hi]
            deriv = _poly_derive(coeffs)
            if any(c != 0.0 for c in deriv):
                roots = np.roots(list(reversed(deriv)))
                for r in roots:
                    if abs(r.imag) < 1e-12 and lo <= r.real <= hi:
                        cands.append(float(r.real))
            for t in cands:
                best = max(best, abs(_poly_eval(coeffs, t)))
        return best


_SMOOTHSTEP = (0.0, 0.0, 0.0, 10.0, -15.0, 6.0)  # 10u^3 - 15u^4 + 6u^5


def smooth_bump(center: float, radius: float, height: float) -> PiecewisePoly:
    """C^2 bump supported on [center-radius, center+radius] with the given
    peak value at the center.  Its pieces in powers of t cancel as
    |center| / radius grows (off the exact smoothstep by 1e-13, 1e-9, 1e-5
    times |height| at 1, 10, 64), hence the bounds checked here."""
    if not 1e-3 <= radius <= 1e3:
        raise ValueError(f"radius {radius:g} is outside [0.001, 1000]")
    if not abs(center) <= 10 * radius:
        raise ValueError(
            f"center {center:g} is outside [-10 * radius, 10 * radius]")
    if not abs(height) <= 1e3:
        raise ValueError(f"height {height:g} is outside [-1000, 1000]")
    a, c, b = center - radius, center, center + radius
    up = _poly_compose_linear(_SMOOTHSTEP, -a / radius, 1.0 / radius)
    down = _poly_compose_linear(_SMOOTHSTEP, b / radius, -1.0 / radius)
    scale = lambda coeffs: tuple(height * v for v in coeffs)
    return PiecewisePoly((a, c, b), (scale(up), scale(down)))


# ---------------------------------------------------------------------------
# local models


def _pow(x: np.ndarray, k: int) -> np.ndarray:
    """x ** k elementwise, each entry rounded as the scalar
    ``np.float64 ** k`` (libm pow); array ``**`` takes SIMD and multiply
    fast paths that round some entries differently."""
    try:
        return np.array([math.pow(v, k) for v in x.tolist()])
    except OverflowError:  # where the scalar power gives inf, with a warning
        return np.array([np.float64(v) ** k for v in x.tolist()])


def _solve_rows(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve A x = b for each row's matrix A and right side b; least squares
    where A is exactly singular."""
    try:
        return np.linalg.solve(A, B[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.empty_like(B)
    for i in range(len(B)):
        try:
            out[i] = np.linalg.solve(A[i], B[i])
        except np.linalg.LinAlgError:
            out[i] = np.linalg.lstsq(A[i], B[i], rcond=None)[0]
    return out


def _diagonal_steps(H: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Solve H x = G for diagonal H by the division an LU solve makes.

    A singular row (the cusp model's x = 0) goes to ``_solve_rows`` alone;
    in a stacked solve it would send its whole block to the per-row loop.
    """
    D = H.diagonal(axis1=1, axis2=2)
    regular = np.all(D != 0, axis=1)
    steps = np.empty_like(G)
    steps[regular] = G[regular] / D[regular]
    steps[~regular] = _solve_rows(H[~regular], G[~regular])
    return steps


def _check_index(kind, n: int, error: type = ValueError) -> None:
    top = n - kind._LEAD
    if not 0 <= kind.index <= top:
        raise error(f"{kind._INDEX} index {kind.index} outside [0, {top}]")


@dataclass(frozen=True, slots=True)
class Fold:
    """Projection plus a nondegenerate quadratic form with the given number
    of negative squares: h = form(z)."""

    index: int

    _LEAD, _INDEX = 1, "fold"  # coordinates before the form, index name
    _grid = ((-1.0, 1.0, 11),), (-0.5, 0.5, 3)  # seed axes: head, pad
    _check = _check_index
    _steps = staticmethod(_diagonal_steps)

    def _h(self, t: float, rest: np.ndarray, eps: np.ndarray) -> float:
        return eps @ (rest * rest)

    def _t_partial(self, t: float, rest: np.ndarray) -> float:
        return 0.0

    def _grad_rows(self, T, Z, eps) -> np.ndarray:
        return 2 * eps * Z

    def _fill_hess(self, H, T, Z, eps) -> None:
        diag = np.arange(Z.shape[1])
        H[:, diag, diag] = 2 * eps

    def _curve(self, m: LocalMap, samples, markers) -> PlanarCurve:
        ts = [s.point[0] for s in samples] or [-1.0, 1.0]
        return PlanarCurve(((min(ts), 0.0), (max(ts), 0.0)), markers)


class _Unfolding:
    """What the cusp and the swallowtail share: h = lead(x) + t*x + form(z)
    at (t, x, z), with lead and its x-derivatives given by the kind."""

    __slots__ = ()
    _LEAD = 2
    _check = _check_index
    _steps = staticmethod(_diagonal_steps)

    def _h(self, t: float, rest: np.ndarray, eps: np.ndarray) -> float:
        x, z = rest[0], rest[1:]
        return self._lead(x) + t * x + eps @ (z * z)

    def _t_partial(self, t: float, rest: np.ndarray) -> float:
        return rest[0]

    def _grad_rows(self, T, Z, eps) -> np.ndarray:
        G = np.empty_like(Z)
        G[:, 0] = self._lead_x(Z[:, 0]) + T
        G[:, 1:] = 2 * eps * Z[:, 1:]
        return G

    def _fill_hess(self, H, T, Z, eps) -> None:
        diag = np.arange(1, Z.shape[1])
        H[:, diag, diag] = 2 * eps
        H[:, 0, 0] = self._lead_xx(Z[:, 0])


@dataclass(frozen=True, slots=True)
class Cusp(_Unfolding):
    """One cubic direction coupled to the parameter, plus a quadratic form:
    h = x^3 + t*x + form(z)."""

    index: int

    _INDEX = "cusp"
    _grid = ((-1.5, 0.5, 21), (-1.2, 1.2, 13)), (-0.5, 0.5, 3)

    def _lead(self, x: float) -> float:
        return x ** 3

    def _lead_x(self, x: np.ndarray) -> np.ndarray:
        return 3 * _pow(x, 2)

    def _lead_xx(self, x: np.ndarray) -> np.ndarray:
        return 6 * x

    def _curve(self, m: LocalMap, samples, markers) -> PlanarCurve:
        xs = [s.point[1] for s in samples] or [-1.0, 1.0]
        points = [evaluate(m, (-3.0 * x ** 2, x) + (0.0,) * (m.n - 2))
                  for x in np.linspace(min(xs), max(xs), 401).tolist()]
        return PlanarCurve(tuple(points), markers)


@dataclass(frozen=True, slots=True)
class SwallowTail(_Unfolding):
    """Quartic family h = x^4/12 - t*x^2/2 + s*x + form(z) at (s, x, z); its
    singular curve carries two cusps for t > 0 and none for t < 0.  t = 0
    is non-generic; LocalMap accepts MIN_ABS_T <= |t| <= MAX_ABS_T."""

    t: float
    index: int = 0

    _INDEX = "quadratic"
    _grid = ((-1.5, 1.5, 31), (-2.0, 2.0, 21)), (-0.5, 0.5, 3)

    def _check(self, n: int) -> None:
        if not MIN_ABS_T <= abs(self.t) <= MAX_ABS_T:
            raise ValueError(f"|t| = {abs(self.t):g} is outside "
                             f"[{MIN_ABS_T:g}, {MAX_ABS_T:g}]")
        _check_index(self, n)

    def _lead(self, x: float) -> float:
        return x ** 4 / 12 - self.t * x ** 2 / 2

    def _lead_x(self, x: np.ndarray) -> np.ndarray:
        return _pow(x, 3) / 3 - self.t * x

    def _lead_xx(self, x: np.ndarray) -> np.ndarray:
        return _pow(x, 2) - self.t

    def _curve(self, m: LocalMap, samples, markers) -> PlanarCurve:
        xs = [s.point[1] for s in samples]
        pad = 0.1 * (max(xs) - min(xs) or 1.0) if xs else 0.0
        xlo, xhi = (min(xs) - pad, max(xs) + pad) if xs else (-2.0, 2.0)
        curve = SwallowTailCurve(m.n, self.t)
        points = [curve.image_point(x)
                  for x in np.linspace(xlo, xhi, 401).tolist()]
        return PlanarCurve(tuple(points), markers)


@dataclass(frozen=True, slots=True)
class PerturbedFold:
    """Fold perturbed by alpha(t) * beta(|z|^2) with compactly supported
    bump factors: h = form(z) + alpha(t) * beta(|z|^2)."""

    index: int
    alpha: PiecewisePoly
    beta: PiecewisePoly

    _LEAD, _INDEX = 1, "fold"
    _steps = staticmethod(_solve_rows)

    def _check(self, n: int) -> None:
        _check_index(self, n)
        if not (isinstance(self.alpha, PiecewisePoly)
                and isinstance(self.beta, PiecewisePoly)):
            raise ValueError("perturbation factors must be compactly "
                             "supported piecewise polynomials")

    def _h(self, t: float, rest: np.ndarray, eps: np.ndarray) -> float:
        r = float(rest @ rest)
        return eps @ (rest * rest) + self.alpha(t) * self.beta(r)

    def _t_partial(self, t: float, rest: np.ndarray) -> float:
        return self.alpha.derivative()(t) * self.beta(float(rest @ rest))

    def _grad_rows(self, T, Z, eps) -> np.ndarray:
        ab1 = self.alpha.at(T) * self.beta.derivative().at(np.vecdot(Z, Z))
        return 2 * Z * (eps + ab1[:, None])

    def _fill_hess(self, H, T, Z, eps) -> None:
        diag = np.arange(Z.shape[1])
        r = np.vecdot(Z, Z)
        a = self.alpha.at(T)
        beta_d = self.beta.derivative()
        H[:, diag, diag] = 2 * (eps + (a * beta_d.at(r))[:, None])
        H += ((4 * a) * beta_d.derivative().at(r))[:, None, None] * (
            Z[:, :, None] * Z[:, None, :])

    @property
    def _grid(self) -> tuple[tuple, tuple[float, float, int]]:
        lo, hi = self.alpha.support()
        return ((lo - 1.0, hi + 1.0, 41),), (-0.75, 0.75, 5)

    def _graph(self, t: float) -> float:  # the predicted singular value
        return self.alpha(t) * self.beta(0.0)

    def _curve(self, m: LocalMap, samples, markers) -> PlanarCurve:
        lo, hi = self.alpha.support()
        ts = np.linspace(lo - 1.0, hi + 1.0, 401).tolist()
        return PlanarCurve(tuple((t, self._graph(t)) for t in ts))


@dataclass(frozen=True, slots=True)
class LocalMap:
    """A model map R^n -> R^2 of the shape (t, z) -> (t, h(t, z))."""

    n: int
    kind: Fold | Cusp | SwallowTail | PerturbedFold

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"ambient dimension must be >= 2, got {self.n}")
        if type(self.kind) not in (Fold, Cusp, SwallowTail, PerturbedFold):
            raise ValueError(f"unknown model kind {self.kind!r}")
        self.kind._check(self.n)


def _quad_signs(m: LocalMap) -> np.ndarray:
    """Signs of the purely quadratic coordinates of the model."""
    out = np.ones(m.n - m.kind._LEAD)
    out[:m.kind.index] = -1.0
    return out


def _split(m: LocalMap, p: Sequence[float]) -> tuple[float, np.ndarray]:
    """A point's first coordinate and its z-coordinates, as floats."""
    if len(p) != m.n:
        raise PreconditionError(
            f"point has {len(p)} coordinates, map expects {m.n}")
    t, *z = (float(v) for v in p)
    return t, np.array(z)


def evaluate(m: LocalMap, p: Sequence[float]) -> tuple[float, float]:
    """Evaluate the model map at a point of R^n."""
    t, rest = _split(m, p)
    return t, float(m.kind._h(t, rest, _quad_signs(m)))


def jacobian(m: LocalMap, p: Sequence[float]) -> np.ndarray:
    """Analytic 2 x n Jacobian of the model map."""
    t, rest = _split(m, p)
    out = np.zeros((2, m.n))
    out[0, 0] = 1.0
    out[1, 0] = m.kind._t_partial(t, rest)
    out[1, 1:] = _z_grad_rows(m, np.array([t]), rest[None])[0]
    return out


def _z_grad_rows(m: LocalMap, T: np.ndarray, Z: np.ndarray) -> np.ndarray:
    return m.kind._grad_rows(T, Z, _quad_signs(m))


def _z_hess_rows(m: LocalMap, T: np.ndarray, Z: np.ndarray) -> np.ndarray:
    H = np.zeros(Z.shape + Z.shape[1:])  # a dim x dim matrix per row
    m.kind._fill_hess(H, T, Z, _quad_signs(m))
    return H


def _row_norms(G: np.ndarray) -> np.ndarray:
    # sqrt of the BLAS dot, exactly as np.linalg.norm of each row
    return np.sqrt(np.vecdot(G, G))


# ---------------------------------------------------------------------------
# grids and detection


@dataclass(frozen=True, slots=True)
class GridSpec:
    """Seed grid: per-axis (lo, hi, count) with count evenly spaced values."""

    axes: tuple[tuple[float, float, int], ...]

    def __post_init__(self) -> None:
        for lo, hi, count in self.axes:
            if count < 1:
                raise ValueError("axis count must be >= 1")
            if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
                raise ValueError("axis bounds must be finite with lo <= hi")
            if not np.isfinite(hi - lo):
                raise ValueError("axis span hi - lo must be finite")

    @property
    def size(self) -> int:
        """Number of grid points."""
        return math.prod(count for _, _, count in self.axes)

    def blocks(self, rows: int):
        """The grid points in lexicographic order (last axis fastest), as
        arrays of at most ``rows`` points each."""
        lines = [np.linspace(lo, hi, count) for lo, hi, count in self.axes]
        shape = tuple(count for _, _, count in self.axes)
        for start in range(0, self.size, rows):
            index = np.unravel_index(
                np.arange(start, min(start + rows, self.size)), shape)
            yield np.column_stack([line[i] for line, i in zip(lines, index)])


def _add_axis(seeds: int, count: int) -> int:
    """Seeds of a grid after one more axis of ``count`` values; a grid over
    the budget is refused."""
    seeds *= count
    if seeds > MAX_SEEDS:
        raise PreconditionError(
            f"grid has more than {MAX_SEEDS} seeds, the budget of one "
            f"detection")
    return seeds


def default_grid(m: LocalMap) -> GridSpec:
    """The seed grid of a model when none is given: fixed leading axes per
    kind, then a short axis for every further coordinate.  Seeds are
    counted while the axes are made, so a grid over the budget is refused
    before its n axes exist."""
    head, pad = m.kind._grid
    axes: list[tuple[float, float, int]] = []
    seeds = 1
    while len(axes) < m.n:
        axis = head[len(axes)] if len(axes) < len(head) else pad
        seeds = _add_axis(seeds, axis[2])
        axes.append(axis)
    return GridSpec(tuple(axes))


@dataclass(frozen=True, slots=True)
class SingularSample:
    """A converged singular point with its classification."""

    point: tuple[float, ...]
    residual: float
    kind: str  # "fold" | "cusp-candidate" | "unknown"
    negative_eigenvalues: Optional[int] = None

    def class_label(self) -> str:
        if self.kind == "fold":
            return f"fold({self.negative_eigenvalues})"
        return self.kind


@np.errstate(over="ignore", invalid="ignore")  # inf/nan residuals never drop
def _damped_newton(F, step, X: np.ndarray,
                   maxiter: int) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton towards F = 0 from every row of X.

    Each row follows the one-point iteration exactly: stop below
    NEWTON_RESIDUAL or after ``maxiter`` steps; move by ``step(x, F(x))``,
    halved up to 25 times until the residual norm drops, and stop a row
    whose residual never does.  Returns the final rows and residual norms.
    """
    X = X.copy()
    G = F(X)
    res = _row_norms(G)
    live = np.arange(len(X))
    for _ in range(maxiter):
        live = live[~(res[live] < NEWTON_RESIDUAL)]
        if not live.size:
            break
        x = X[live]
        dx = step(x, G[live])
        improved = np.zeros(live.size, dtype=bool)
        todo = np.arange(live.size)
        scale = 1.0
        for _ in range(25):
            xn = x[todo] - scale * dx[todo]
            gn = F(xn)
            rn = _row_norms(gn)
            ok = rn < res[live[todo]]
            rows = live[todo[ok]]
            X[rows], G[rows], res[rows] = xn[ok], gn[ok], rn[ok]
            improved[todo[ok]] = True
            todo = todo[~ok]
            if not todo.size:
                break
            scale /= 2
        live = live[improved]
    return X, res


def _newton_rows(m: LocalMap, T: np.ndarray,
                 Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton in z for every row at its fixed first coordinate, for
    up to NEWTON_MAXITER steps.  Returns the final z and residual of every
    row."""
    def step(X: np.ndarray, G: np.ndarray) -> np.ndarray:
        # a zero t-step leaves t bit for bit: t - 0.0 == t
        return np.column_stack([np.zeros(len(X)), m.kind._steps(
            _z_hess_rows(m, X[:, 0], X[:, 1:]), G)])

    X, res = _damped_newton(lambda X: _z_grad_rows(m, X[:, 0], X[:, 1:]),
                            step, np.column_stack([T, Z]), NEWTON_MAXITER)
    return X[:, 1:], res


def _canonical_key(point: Sequence[float]) -> tuple:
    # order along the z-coordinates first so samples on a curve that folds
    # back over the parameter axis still come out in curve order
    return tuple(round(float(c), 12) for c in point[1:]) + (
        round(float(point[0]), 12),)


def _dedup(points: np.ndarray) -> np.ndarray:
    """The rows in canonical order, dropping each row within DEDUP_RADIUS
    of a row kept before it.

    Kept rows are sorted by their leading key, so only those whose leading
    key lies within 2 * DEDUP_RADIUS below the candidate's can be that
    close.  An exact repeat of a scanned row is dropped unchecked: the row
    that kept out its first copy, or that copy itself, is within
    DEDUP_RADIUS of it.
    """
    keys = [_canonical_key(p) for p in points.tolist()]
    kept = np.empty_like(points)
    leads: list[float] = []
    seen: set[bytes] = set()  # most converged rows repeat one exactly
    for i in sorted(range(len(keys)), key=keys.__getitem__):
        row = points[i].tobytes()
        if row in seen:
            continue
        seen.add(row)
        near = kept[bisect_left(leads, keys[i][0] - 2 * DEDUP_RADIUS):
                    len(leads)]
        if np.all(_row_norms(points[i] - near) > DEDUP_RADIUS):
            kept[len(leads)] = points[i]
            leads.append(keys[i][0])
    return kept[:len(leads)]


def detect_singular_set(m: LocalMap, grid: GridSpec,
                        tol: float) -> list[SingularSample]:
    """Locate the singular set from grid seeds.

    Newton runs in the z-coordinates at each seed's fixed first coordinate;
    converged points are deduplicated, classified by the z-Hessian, and
    cusps are polished: a Hessian-determinant sign change between
    neighboring samples seeds a second Newton iteration on the extended
    system, and the sharpened cusp replaces any coarse samples near it.
    A tolerance that is not positive and a grid of more than MAX_SEEDS
    seeds are refused before any work.
    """
    if not tol > 0:
        raise PreconditionError("tolerance must be positive")
    if len(grid.axes) != m.n:
        raise PreconditionError(
            f"grid has {len(grid.axes)} axes, map expects {m.n}")
    _add_axis(1, grid.size)
    converged = []
    for seeds in grid.blocks(NEWTON_BLOCK):
        z, res = _newton_rows(m, seeds[:, 0], seeds[:, 1:])
        ok = res < tol
        converged.append(np.column_stack([seeds[ok, 0], z[ok]]))
    kept = _dedup(np.concatenate(converged))
    H = _z_hess_rows(m, kept[:, 0], kept[:, 1:])

    # hunt cusps between neighbors whose Hessian determinant changes sign
    dets = np.linalg.det(H)
    da, db = dets[:-1], dets[1:]
    flips = (da != 0.0) & (db != 0.0) & ((da > 0) != (db > 0))

    def cusp_system(X: np.ndarray) -> np.ndarray:
        T, Z = X[:, 0], X[:, 1:]
        return np.column_stack([_z_grad_rows(m, T, Z),
                                np.linalg.det(_z_hess_rows(m, T, Z))])

    def polish_step(X: np.ndarray, G: np.ndarray) -> np.ndarray:
        # central differences of the extended system
        h = 1e-6
        J = np.empty(X.shape + (m.n,))
        for j, dx in enumerate(np.eye(m.n) * h):
            J[:, :, j] = (cusp_system(X + dx) - cusp_system(X - dx)) / (2 * h)
        return _solve_rows(J, G)

    polished, res = _damped_newton(
        cusp_system, polish_step, (kept[:-1][flips] + kept[1:][flips]) / 2, 60)
    cusp_points = _dedup(polished[res < 1e-9])

    coarse = np.ones(len(kept), dtype=bool)
    for c in cusp_points:
        coarse &= _row_norms(kept - c) > DEDUP_RADIUS

    # classify the coarse samples by their z-Hessian's eigenvalues; the
    # polished cusps follow them
    points = np.concatenate([kept[coarse], cusp_points])
    residuals = _row_norms(_z_grad_rows(m, points[:, 0], points[:, 1:]))
    eigs = np.linalg.eigvalsh(H[coarse])
    mags = np.abs(eigs)
    labels: list[tuple[str, Optional[int]]] = []
    for e, top, low in zip(eigs, mags.max(axis=1), mags.min(axis=1)):
        if top < 1e-12:
            labels.append(("unknown", None))
        elif low < HESSIAN_RANK_RATIO * top:
            labels.append(("cusp-candidate", None))
        else:
            labels.append(("fold", int(np.sum(e < 0))))
    labels += [("cusp-candidate", None)] * len(cusp_points)
    samples = [SingularSample(tuple(p), r, *label) for p, r, label in
               zip(points.tolist(), residuals.tolist(), labels)]
    samples.sort(key=lambda s: _canonical_key(s.point))
    return samples


# ---------------------------------------------------------------------------
# the quartic family's singular curve, exactly


@dataclass(frozen=True, slots=True)
class SwallowTailCurve:
    """Analytic singular curve of the quartic family at a fixed t != 0.

    Parameterized by the cubic coordinate x: the curve point is
    (-x^3/3 + t*x, x, 0, ..., 0) in the source and its image under the map
    is (-x^3/3 + t*x, -x^4/4 + t*x^2/2).
    """

    n: int
    t: float
    index: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.t):
            raise PreconditionError(f"t = {self.t} is not finite")
        if self.t == 0:
            raise PreconditionError(
                "t = 0 is not generic; only t < 0 and t > 0 are modeled")
        if self.n < 2:
            raise PreconditionError("ambient dimension must be >= 2")
        _check_index(SwallowTail(self.t, self.index), self.n,
                     PreconditionError)

    def point(self, x: float) -> tuple[float, ...]:
        head = (-x ** 3 / 3 + self.t * x, x)
        return head + (0.0,) * (self.n - 2)

    def image_point(self, x: float) -> tuple[float, float]:
        return (-x ** 3 / 3 + self.t * x,
                -x ** 4 / 4 + self.t * x ** 2 / 2)

    def cusp_parameters(self) -> tuple[float, ...]:
        if self.t < 0:
            return ()
        r = float(np.sqrt(self.t))
        return (-r, r)

    def fold_negatives(self, x: float) -> int:
        """Negative-eigenvalue count of the z-Hessian at parameter x."""
        if x ** 2 == self.t:
            raise PreconditionError(f"x={x} is a cusp, not a fold")
        return (1 if x ** 2 < self.t else 0) + self.index

    def fold_absolute_index(self, x: float) -> int:
        lam = self.fold_negatives(x)
        return max(lam, (self.n - 1) - lam)

    def distance_bound(self, p: Sequence[float]) -> float:
        """Upper bound for the distance from p to the curve (evaluated at
        the curve parameter equal to p's own x-coordinate)."""
        q = np.asarray(self.point(float(p[1])))
        return float(np.linalg.norm(np.asarray(p, dtype=float) - q))


# ---------------------------------------------------------------------------
# perturbation condition and verified image


def perturbation_supremum(alpha: PiecewisePoly, beta: PiecewisePoly) -> float:
    """sup over (t, r) of |alpha(t) * beta'(r)|, exact.

    The variables separate, so the supremum is the product of the factor
    suprema, each computed from knots and stationary points.
    """
    for f, name in ((alpha, "alpha"), (beta, "beta")):
        if not isinstance(f, PiecewisePoly):
            raise PreconditionError(
                f"{name} must be a compactly supported piecewise polynomial; "
                f"arbitrary callables may have unbounded support")
    return alpha.max_abs() * beta.derivative().max_abs()


@dataclass(frozen=True, slots=True)
class PerturbedFoldReport:
    """Numerical verification that a passing perturbation keeps the
    singular set on the parameter axis and moves the image onto the
    predicted graph.  ``detected`` holds the singular samples checked."""

    sup_product: float
    detected: tuple[SingularSample, ...]
    max_axis_distance: float
    max_image_error: float
    tol: float

    @property
    def samples(self) -> int:
        return len(self.detected)

    @property
    def ok(self) -> bool:
        return (self.samples > 0
                and self.max_axis_distance <= self.tol
                and self.max_image_error <= self.tol)


def perturbed_fold_image(index: int, n: int, alpha: PiecewisePoly,
                         beta: PiecewisePoly, tol: float = 1e-8,
                         grid: Optional[GridSpec] = None
                         ) -> PerturbedFoldReport:
    """Verify that the perturbed fold's singular set is the parameter axis
    and its singular-value curve is the graph of t -> alpha(t) * beta(0)."""
    sup = perturbation_supremum(alpha, beta)
    if not sup < 1.0 - PERTURBATION_MARGIN:
        raise PreconditionError(
            f"perturbation condition fails: sup |alpha * beta'| = "
            f"{sup:.6g} is not below 1 - {PERTURBATION_MARGIN:g}")
    m = LocalMap(n, PerturbedFold(index, alpha, beta))
    if grid is None:
        grid = default_grid(m)
    samples = detect_singular_set(m, grid, tol=max(tol, 1e-10))
    max_axis = max_img = 0.0
    for s in samples:
        max_axis = max(max_axis, float(np.linalg.norm(s.point[1:])))
        t, h = evaluate(m, s.point)
        max_img = max(max_img, abs(h - m.kind._graph(t)))
    return PerturbedFoldReport(
        sup_product=sup,
        detected=tuple(samples),
        max_axis_distance=max_axis,
        max_image_error=max_img,
        tol=tol,
    )


# ---------------------------------------------------------------------------
# rendering


@dataclass(frozen=True, slots=True)
class PlanarCurve:
    """Polyline in the target plane with optional cusp marker points."""

    points: tuple[tuple[float, float], ...]
    cusps: tuple[tuple[float, float], ...] = ()


def singular_value_curve(m: LocalMap,
                         samples: Sequence[SingularSample]) -> PlanarCurve:
    """The singular-value curve of a model to draw over the range of its
    samples, marking each cusp candidate's image.  A perturbed fold draws
    its predicted graph around the support of alpha, unmarked."""
    markers = tuple(evaluate(m, s.point) for s in samples
                    if s.kind == "cusp-candidate")
    return m.kind._curve(m, samples, markers)


_SVG_W, _SVG_H, _SVG_MARGIN = 480.0, 360.0, 24.0


def render_svg(curve: PlanarCurve) -> str:
    """Deterministic SVG of one singular-value curve; byte-stable per input."""
    points = curve.points + curve.cusps
    xs, ys = [x for x, _ in points], [y for _, y in points]
    if xs:
        lo_x, hi_x, lo_y, hi_y = min(xs), max(xs), min(ys), max(ys)
    else:
        lo_x, hi_x, lo_y, hi_y = -1.0, 1.0, -1.0, 1.0
    span_x = (hi_x - lo_x) or 1.0
    span_y = (hi_y - lo_y) or 1.0
    scale = min((_SVG_W - 2 * _SVG_MARGIN) / span_x,
                (_SVG_H - 2 * _SVG_MARGIN) / span_y)
    off_x = (_SVG_W - scale * span_x) / 2
    off_y = (_SVG_H - scale * span_y) / 2

    def to_px(x: float, y: float) -> tuple[float, float]:
        return (off_x + scale * (x - lo_x),
                _SVG_H - (off_y + scale * (y - lo_y)))

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (_SVG_W, _SVG_H, _SVG_W, _SVG_H),
        '<style>.fold{fill:none;stroke:#1a1a1a;stroke-width:1.5}'
        '.cusp{fill:#c01515;stroke:none}</style>',
    ]
    if curve.points:
        coords = []
        for k, (x, y) in enumerate(curve.points):
            px, py = to_px(x, y)
            coords.append("%s%.3f,%.3f" % ("M" if k == 0 else "L", px, py))
        parts.append('<path class="fold" d="%s"/>' % " ".join(coords))
    for x, y in curve.cusps:
        px, py = to_px(x, y)
        parts.append('<circle class="cusp" cx="%.3f" cy="%.3f" r="4"/>'
                     % (px, py))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def samples_to_csv(m: LocalMap, samples: Sequence[SingularSample]) -> str:
    """CSV of the singular samples of ``m``: t, z-coordinates, residual,
    class; the header names ``m``'s columns, with or without samples."""
    rows = [["t", *(f"z{k}" for k in range(1, m.n)), "residual", "class"]]
    rows += [["%.12g" % v for v in (*s.point, s.residual)] + [s.class_label()]
             for s in samples]
    return "".join(",".join(row) + "\n" for row in rows)
