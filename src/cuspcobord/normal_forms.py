"""Explicit local models of maps to the plane and their numerics.

All models share the shape F(t, z) = (t, h(t, z)) with z the remaining
n-1 coordinates.  Their singular set is the zero set of the z-gradient of
h; a singular point is a fold where the z-Hessian is nondegenerate (its
negative-eigenvalue count grades the fold) and a cusp candidate where the
Hessian drops rank.

The module evaluates the models and their Jacobians analytically, locates
singular sets by Newton iteration from grid seeds, classifies and polishes
the results, verifies the controlled-perturbation statement for fold maps
perturbed by compactly supported bumps, and renders singular-value curves
to SVG/CSV.  All floating point in the package lives here.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence, Union

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
    "swallow_tail_singular_curve",
    "perturbation_supremum",
    "check_perturbation_condition",
    "PerturbedFoldReport",
    "perturbed_fold_image",
    "PlanarCurve",
    "render_svg",
    "samples_to_csv",
]

NEWTON_RESIDUAL = 1e-12
DEDUP_RADIUS = 1e-6
HESSIAN_RANK_RATIO = 1e-5
NEWTON_MAXITER = 80
NEWTON_BLOCK = 2048  # seeds per batch, so memory does not grow with the grid
MAX_SEEDS = 10 ** 6  # seed budget of one detection
# Largest swallowtail |t|.  The rank test is relative: from |t| near
# 2 / HESSIAN_RANK_RATIO on, every fold sample reads as a cusp candidate.
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


@dataclass(frozen=True)
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
    peak value at the center."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    a, c, b = center - radius, center, center + radius
    up = _poly_compose_linear(_SMOOTHSTEP, -a / radius, 1.0 / radius)
    down = _poly_compose_linear(_SMOOTHSTEP, b / radius, -1.0 / radius)
    scale = lambda coeffs: tuple(height * v for v in coeffs)
    return PiecewisePoly((a, c, b), (scale(up), scale(down)))


# ---------------------------------------------------------------------------
# local models


@dataclass(frozen=True)
class Fold:
    """Projection plus a nondegenerate quadratic form with the given number
    of negative squares."""

    index: int


@dataclass(frozen=True)
class Cusp:
    """One cubic direction coupled to the parameter, plus a quadratic form."""

    index: int


@dataclass(frozen=True)
class SwallowTail:
    """Quartic one-parameter family; its singular curve carries two cusps
    for t > 0 and none for t < 0.  t = 0 is non-generic and rejected."""

    t: float
    index: int = 0


@dataclass(frozen=True)
class PerturbedFold:
    """Fold perturbed by alpha(t) * beta(|z|^2) with compactly supported
    bump factors."""

    index: int
    alpha: PiecewisePoly
    beta: PiecewisePoly


Kind = Union[Fold, Cusp, SwallowTail, PerturbedFold]


@dataclass(frozen=True)
class LocalMap:
    """A model map R^n -> R^2 of the shape (t, z) -> (t, h(t, z))."""

    n: int
    kind: Kind

    def __post_init__(self) -> None:
        n, k = self.n, self.kind
        if n < 2:
            raise ValueError(f"ambient dimension must be >= 2, got {n}")
        if isinstance(k, Fold):
            if not 0 <= k.index <= n - 1:
                raise ValueError(
                    f"fold index {k.index} outside [0, {n - 1}]")
        elif isinstance(k, Cusp):
            if not 0 <= k.index <= n - 2:
                raise ValueError(
                    f"cusp index {k.index} outside [0, {n - 2}]")
        elif isinstance(k, SwallowTail):
            if k.t == 0:
                raise ValueError(
                    "t = 0 is not generic; only t < 0 and t > 0 are modeled")
            if not abs(k.t) <= MAX_ABS_T:
                raise ValueError(f"|t| = {abs(k.t):g} exceeds {MAX_ABS_T:g}")
            if not 0 <= k.index <= max(n - 2, 0):
                raise ValueError(
                    f"quadratic index {k.index} outside [0, {max(n - 2, 0)}]")
            if n == 2 and k.index != 0:
                raise ValueError("no quadratic coordinates in dimension 2")
        elif isinstance(k, PerturbedFold):
            if not 0 <= k.index <= n - 1:
                raise ValueError(
                    f"fold index {k.index} outside [0, {n - 1}]")
            if not isinstance(k.alpha, PiecewisePoly) or \
               not isinstance(k.beta, PiecewisePoly):
                raise ValueError(
                    "perturbation factors must be compactly supported "
                    "piecewise polynomials")
        else:
            raise ValueError(f"unknown model kind {k!r}")


def _signs(count: int, negatives: int) -> np.ndarray:
    out = np.ones(count)
    out[:negatives] = -1.0
    return out


def _quad_signs(m: LocalMap) -> np.ndarray:
    """Signs of the purely quadratic coordinates of the model."""
    k = m.kind
    if isinstance(k, (Fold, PerturbedFold)):
        return _signs(m.n - 1, k.index)
    return _signs(m.n - 2, k.index)


def evaluate(m: LocalMap, p: Sequence[float]) -> tuple[float, float]:
    """Evaluate the model map at a point of R^n."""
    if len(p) != m.n:
        raise PreconditionError(
            f"point has {len(p)} coordinates, map expects {m.n}")
    p = [float(v) for v in p]
    t, rest = p[0], np.asarray(p[1:])
    k = m.kind
    eps = _quad_signs(m)
    if isinstance(k, Fold):
        return t, float(eps @ (rest * rest))
    if isinstance(k, Cusp):
        x, z = rest[0], rest[1:]
        return t, float(x ** 3 + t * x + eps @ (z * z))
    if isinstance(k, SwallowTail):
        x, z = rest[0], rest[1:]
        return t, float(x ** 4 / 12 - k.t * x ** 2 / 2 + t * x
                        + eps @ (z * z))
    assert isinstance(k, PerturbedFold)
    r = float(rest @ rest)
    return t, float(eps @ (rest * rest) + k.alpha(t) * k.beta(r))


def jacobian(m: LocalMap, p: Sequence[float]) -> np.ndarray:
    """Analytic 2 x n Jacobian of the model map."""
    if len(p) != m.n:
        raise PreconditionError(
            f"point has {len(p)} coordinates, map expects {m.n}")
    t, *z = (float(v) for v in p)
    rest = np.array(z)
    k = m.kind
    out = np.zeros((2, m.n))
    out[0, 0] = 1.0
    if isinstance(k, (Cusp, SwallowTail)):
        out[1, 0] = z[0]
    elif isinstance(k, PerturbedFold):
        out[1, 0] = k.alpha.derivative()(t) * k.beta(float(rest @ rest))
    out[1, 1:] = _z_grad(m, t, rest)
    return out


def _pow(x: np.ndarray, k: int) -> np.ndarray:
    """x ** k elementwise, each entry rounded as the scalar
    ``np.float64 ** k`` (libm pow); array ``**`` takes SIMD and multiply
    fast paths that round some entries differently."""
    try:
        return np.array([math.pow(v, k) for v in x.tolist()])
    except OverflowError:  # where the scalar power gives inf, with a warning
        return np.array([np.float64(v) ** k for v in x.tolist()])


# The z-derivatives below take one row per point: T holds the (fixed) first
# coordinates, Z the z-coordinates.  Every entry goes through the same
# floating-point operations, in the same order, as for that point alone.


def _z_grad_rows(m: LocalMap, T: np.ndarray, Z: np.ndarray) -> np.ndarray:
    k = m.kind
    eps = _quad_signs(m)
    if isinstance(k, Fold):
        return 2 * eps * Z
    if isinstance(k, PerturbedFold):
        ab1 = k.alpha.at(T) * k.beta.derivative().at(np.vecdot(Z, Z))
        return 2 * Z * (eps + ab1[:, None])
    x = Z[:, 0]
    G = np.empty_like(Z)
    if isinstance(k, Cusp):
        G[:, 0] = 3 * _pow(x, 2) + T
    else:
        G[:, 0] = _pow(x, 3) / 3 - k.t * x + T
    G[:, 1:] = 2 * eps * Z[:, 1:]
    return G


def _z_hess_rows(m: LocalMap, T: np.ndarray, Z: np.ndarray) -> np.ndarray:
    k = m.kind
    eps = _quad_signs(m)
    rows, dim = Z.shape
    H = np.zeros((rows, dim, dim))
    diag = np.arange(dim)
    if isinstance(k, PerturbedFold):
        r = np.vecdot(Z, Z)
        a = k.alpha.at(T)
        beta_d = k.beta.derivative()
        H[:, diag, diag] = 2 * (eps + (a * beta_d.at(r))[:, None])
        H += ((4 * a) * beta_d.derivative().at(r))[:, None, None] * (
            Z[:, :, None] * Z[:, None, :])
        return H
    if isinstance(k, Fold):
        H[:, diag, diag] = 2 * eps
    else:
        H[:, diag[1:], diag[1:]] = 2 * eps
        H[:, 0, 0] = (6 * Z[:, 0] if isinstance(k, Cusp)
                      else _pow(Z[:, 0], 2) - k.t)
    return H


def _z_grad(m: LocalMap, t: float, z: np.ndarray) -> np.ndarray:
    return _z_grad_rows(m, np.array([t]), np.array([z], dtype=float))[0]


def _z_hess(m: LocalMap, t: float, z: np.ndarray) -> np.ndarray:
    return _z_hess_rows(m, np.array([t]), np.array([z], dtype=float))[0]


def _row_norms(G: np.ndarray) -> np.ndarray:
    # sqrt of the BLAS dot, exactly as np.linalg.norm of each row
    return np.sqrt(np.vecdot(G, G))


# ---------------------------------------------------------------------------
# grids and detection


@dataclass(frozen=True)
class GridSpec:
    """Seed grid: per-axis (lo, hi, count) with count evenly spaced values."""

    axes: tuple[tuple[float, float, int], ...]

    def __post_init__(self) -> None:
        for lo, hi, count in self.axes:
            if count < 1:
                raise ValueError("axis count must be >= 1")
            if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
                raise ValueError("axis bounds must be finite with lo <= hi")

    @classmethod
    def parse(cls, text: str) -> "GridSpec":
        """Parse 'lo:hi:count' axis specs separated by commas."""
        axes = []
        for part in text.split(","):
            bits = part.split(":")
            if len(bits) != 3:
                raise ValueError(
                    f"axis spec {part!r} is not of the form lo:hi:count")
            axes.append((float(bits[0]), float(bits[1]), int(bits[2])))
        return cls(tuple(axes))

    @classmethod
    def uniform(cls, lo: float, hi: float, count: int, dims: int) -> "GridSpec":
        return cls(tuple((lo, hi, count) for _ in range(dims)))

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
    k = m.kind
    pad = (-0.5, 0.5, 3)
    if isinstance(k, SwallowTail):
        head = [(-1.5, 1.5, 31), (-2.0, 2.0, 21)]
    elif isinstance(k, Cusp):
        head = [(-1.5, 0.5, 21), (-1.2, 1.2, 13)]
    elif isinstance(k, PerturbedFold):
        lo, hi = k.alpha.support()
        head, pad = [(lo - 1.0, hi + 1.0, 41)], (-0.75, 0.75, 5)
    else:  # Fold
        head = [(-1.0, 1.0, 11)]
    axes: list[tuple[float, float, int]] = []
    seeds = 1
    while len(axes) < m.n:
        axis = head[len(axes)] if len(axes) < len(head) else pad
        seeds = _add_axis(seeds, axis[2])
        axes.append(axis)
    return GridSpec(tuple(axes))


@dataclass(frozen=True)
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


def _newton_steps(m: LocalMap, T: np.ndarray, Z: np.ndarray,
                  G: np.ndarray) -> np.ndarray:
    """Solve H step = G for each row's z-Hessian H; least squares where H is
    exactly singular."""
    H = _z_hess_rows(m, T, Z)
    if isinstance(m.kind, PerturbedFold):
        try:
            return np.linalg.solve(H, G[..., None])[..., 0]
        except np.linalg.LinAlgError:
            steps, retry = np.empty_like(G), range(len(G))
    else:
        # diagonal Hessians: an LU solve reduces to this division exactly
        D = H.diagonal(axis1=1, axis2=2)
        regular = np.all(D != 0, axis=1)
        steps = np.empty_like(G)
        steps[regular] = G[regular] / D[regular]
        retry = np.flatnonzero(~regular)
    for i in retry:
        try:
            steps[i] = np.linalg.solve(H[i], G[i])
        except np.linalg.LinAlgError:
            steps[i] = np.linalg.lstsq(H[i], G[i], rcond=None)[0]
    return steps


def _newton_rows(m: LocalMap, T: np.ndarray,
                 Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton in z for every row at its fixed first coordinate.

    Each row follows the one-seed iteration exactly: stop below
    NEWTON_RESIDUAL or after NEWTON_MAXITER steps; halve the step up to 25
    times until the residual drops, and stop a row whose residual never
    does.  Returns the final z and residual of every row.
    """
    Z = Z.copy()
    G = _z_grad_rows(m, T, Z)
    res = _row_norms(G)
    live = np.arange(len(T))
    for _ in range(NEWTON_MAXITER):
        live = live[~(res[live] < NEWTON_RESIDUAL)]
        if not live.size:
            break
        t, z = T[live], Z[live]
        step = _newton_steps(m, t, z, G[live])
        improved = np.zeros(live.size, dtype=bool)
        todo = np.arange(live.size)
        scale = 1.0
        for _ in range(25):
            zn = z[todo] - scale * step[todo]
            gn = _z_grad_rows(m, t[todo], zn)
            rn = _row_norms(gn)
            ok = rn < res[live[todo]]
            rows = live[todo[ok]]
            Z[rows], G[rows], res[rows] = zn[ok], gn[ok], rn[ok]
            improved[todo[ok]] = True
            todo = todo[~ok]
            if not todo.size:
                break
            scale /= 2
        live = live[improved]
    return Z, res


def _canonical_key(point: Sequence[float]) -> tuple:
    # order along the z-coordinates first so samples on a curve that folds
    # back over the parameter axis still come out in curve order
    return tuple(round(float(c), 12) for c in point[1:]) + (
        round(float(point[0]), 12),)


def _dedup(points: np.ndarray, radius: float) -> np.ndarray:
    """The rows in canonical order, dropping each row within ``radius`` of
    a row kept before it.

    Kept rows are sorted by their leading key, so only those whose leading
    key lies within 2 * radius below the candidate's can be that close.  An
    exact repeat of a scanned row is dropped unchecked: the row that kept
    out its first copy, or that copy itself, is within radius of it.
    """
    keys = [_canonical_key(p) for p in points.tolist()]
    kept = np.empty_like(points)
    leads: list[float] = []
    seen: set[bytes] = set()
    for i in sorted(range(len(keys)), key=keys.__getitem__):
        row = points[i].tobytes()
        if row in seen:
            continue
        seen.add(row)
        near = kept[bisect_left(leads, keys[i][0] - 2 * radius):len(leads)]
        if np.all(_row_norms(points[i] - near) > radius):
            kept[len(leads)] = points[i]
            leads.append(keys[i][0])
    return kept[:len(leads)]


def _classify(m: LocalMap, point: np.ndarray) -> tuple[str, Optional[int]]:
    H = _z_hess(m, float(point[0]), point[1:])
    eigs = np.linalg.eigvalsh(H)
    amax = float(np.max(np.abs(eigs)))
    if amax < 1e-12:
        return "unknown", None
    if float(np.min(np.abs(eigs))) < HESSIAN_RANK_RATIO * amax:
        return "cusp-candidate", None
    return "fold", int(np.sum(eigs < 0))


def _full_residual(m: LocalMap, point: np.ndarray) -> float:
    return float(np.linalg.norm(_z_grad(m, float(point[0]), point[1:])))


def _cusp_system(m: LocalMap, x: np.ndarray) -> np.ndarray:
    g = _z_grad(m, float(x[0]), x[1:])
    d = np.linalg.det(_z_hess(m, float(x[0]), x[1:]))
    return np.concatenate([g, [d]])


def _polish_cusp(m: LocalMap, seed: np.ndarray) -> tuple[np.ndarray, float]:
    """Sharpen a cusp location by Newton on (z-gradient, Hessian det) = 0."""
    x = np.array(seed, dtype=float)
    res = float(np.linalg.norm(_cusp_system(m, x)))
    for _ in range(60):
        if res < NEWTON_RESIDUAL:
            break
        G = _cusp_system(m, x)
        J = np.zeros((m.n, m.n))
        h = 1e-6
        for j in range(m.n):
            dx = np.zeros(m.n)
            dx[j] = h
            J[:, j] = (_cusp_system(m, x + dx) - _cusp_system(m, x - dx)) / (2 * h)
        try:
            step = np.linalg.solve(J, G)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(J, G, rcond=None)[0]
        scale = 1.0
        improved = False
        for _ in range(25):
            xn = x - scale * step
            rn = float(np.linalg.norm(_cusp_system(m, xn)))
            if rn < res:
                x, res = xn, rn
                improved = True
                break
            scale /= 2
        if not improved:
            break
    return x, res


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
    seeds = 1
    for _, _, count in grid.axes:
        seeds = _add_axis(seeds, count)
    converged = []
    for seeds in grid.blocks(NEWTON_BLOCK):
        z, res = _newton_rows(m, seeds[:, 0], seeds[:, 1:])
        ok = res < tol
        converged.append(np.column_stack([seeds[ok, 0], z[ok]]))
    kept = _dedup(np.concatenate(converged), DEDUP_RADIUS)

    # hunt cusps between neighbors whose Hessian determinant changes sign
    dets = [float(np.linalg.det(_z_hess(m, float(p[0]), p[1:])))
            for p in kept]
    polished: list[np.ndarray] = []
    for a, b, da, db in zip(kept, kept[1:], dets, dets[1:]):
        if da == 0.0 or db == 0.0 or (da > 0) == (db > 0):
            continue
        cusp, res = _polish_cusp(m, (a + b) / 2)
        if res < 1e-9:
            polished.append(cusp)
    cusp_points = _dedup(np.reshape(polished, (-1, m.n)), DEDUP_RADIUS)

    final: list[np.ndarray] = []
    for p in kept:
        if all(np.linalg.norm(p - c) > DEDUP_RADIUS for c in cusp_points):
            final.append(p)

    samples: list[SingularSample] = []
    for p in final:
        kind, negs = _classify(m, p)
        samples.append(SingularSample(tuple(float(v) for v in p),
                                      _full_residual(m, p), kind, negs))
    for c in cusp_points:
        samples.append(SingularSample(tuple(float(v) for v in c),
                                      _full_residual(m, c),
                                      "cusp-candidate", None))
    samples.sort(key=lambda s: _canonical_key(s.point))
    return samples


# ---------------------------------------------------------------------------
# the quartic family's singular curve, exactly


@dataclass(frozen=True)
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
        if self.t == 0:
            raise PreconditionError(
                "t = 0 is not generic; only t < 0 and t > 0 are modeled")
        if self.n < 2:
            raise PreconditionError("ambient dimension must be >= 2")

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


def swallow_tail_singular_curve(t: float, n: int = 3,
                                index: int = 0) -> SwallowTailCurve:
    """The analytic singular curve of SwallowTail(t) in dimension n."""
    return SwallowTailCurve(n, t, index)


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


def check_perturbation_condition(alpha: PiecewisePoly, beta: PiecewisePoly,
                                 margin: float = 1e-6) -> bool:
    """Whether |alpha(t) * beta'(r)| stays below 1 with the given margin,
    judged on the exact supremum."""
    return perturbation_supremum(alpha, beta) < 1.0 - margin


@dataclass(frozen=True)
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
                         grid: Optional[GridSpec] = None,
                         margin: float = 1e-6) -> PerturbedFoldReport:
    """Verify that the perturbed fold's singular set is the parameter axis
    and its singular-value curve is the graph of t -> alpha(t) * beta(0)."""
    if not check_perturbation_condition(alpha, beta, margin=margin):
        raise PreconditionError(
            f"perturbation condition fails: sup |alpha * beta'| = "
            f"{perturbation_supremum(alpha, beta):.6g} is not below "
            f"1 - {margin:g}")
    m = LocalMap(n, PerturbedFold(index, alpha, beta))
    if grid is None:
        grid = default_grid(m)
    samples = detect_singular_set(m, grid, tol=max(tol, 1e-10))
    beta0 = beta(0.0)
    max_axis = 0.0
    max_img = 0.0
    for s in samples:
        z = np.asarray(s.point[1:])
        max_axis = max(max_axis, float(np.linalg.norm(z)))
        t = s.point[0]
        _, h = evaluate(m, s.point)
        max_img = max(max_img, abs(h - alpha(t) * beta0))
    return PerturbedFoldReport(
        sup_product=perturbation_supremum(alpha, beta),
        detected=tuple(samples),
        max_axis_distance=max_axis,
        max_image_error=max_img,
        tol=tol,
    )


# ---------------------------------------------------------------------------
# rendering


@dataclass(frozen=True)
class PlanarCurve:
    """Polyline in the target plane with optional cusp marker points."""

    points: tuple[tuple[float, float], ...]
    cusps: tuple[tuple[float, float], ...] = ()


_SVG_W, _SVG_H, _SVG_MARGIN = 480.0, 360.0, 24.0


def render_svg(curves: Sequence[PlanarCurve]) -> str:
    """Deterministic SVG for singular-value curves; byte-stable per input."""
    xs: list[float] = []
    ys: list[float] = []
    for c in curves:
        for x, y in c.points:
            xs.append(x)
            ys.append(y)
        for x, y in c.cusps:
            xs.append(x)
            ys.append(y)
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
    for c in curves:
        if c.points:
            coords = []
            for k, (x, y) in enumerate(c.points):
                px, py = to_px(x, y)
                coords.append("%s%.3f,%.3f" % ("M" if k == 0 else "L", px, py))
            parts.append('<path class="fold" d="%s"/>' % " ".join(coords))
        for x, y in c.cusps:
            px, py = to_px(x, y)
            parts.append('<circle class="cusp" cx="%.3f" cy="%.3f" r="4"/>'
                         % (px, py))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def samples_to_csv(samples: Sequence[SingularSample]) -> str:
    """CSV of singular samples: t, z-coordinates, residual, class."""
    if samples:
        zdim = len(samples[0].point) - 1
    else:
        zdim = 0
    header = ["t"] + [f"z{k + 1}" for k in range(zdim)] + ["residual", "class"]
    lines = [",".join(header)]
    for s in samples:
        row = ["%.12g" % v for v in s.point]
        row.append("%.12g" % s.residual)
        row.append(s.class_label())
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
