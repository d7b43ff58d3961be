"""Reference oracle for singular-set detection: the per-point loops.

This is the scalar algorithm the row-wise detection in ``normal_forms``
must reproduce bit for bit: the model value, z-gradient and z-Hessian
written point by point with numpy scalars, one damped Newton iteration
per grid seed, the quadratic deduplication, one cusp polish per
determinant sign change, and the classification and residual of each
sample on its own.  ``detect`` shares only the canonical sample order
with the package.
"""

from __future__ import annotations

import itertools

import numpy as np

from cuspcobord import normal_forms as nf


def quad_signs(m: nf.LocalMap) -> np.ndarray:
    """Signs of the purely quadratic coordinates: the index negatives
    first."""
    k = m.kind
    count = m.n - 1 if isinstance(k, (nf.Fold, nf.PerturbedFold)) else m.n - 2
    return np.array([-1.0] * k.index + [1.0] * (count - k.index))


def h(m: nf.LocalMap, t: float, z) -> float:
    """Second coordinate of the model map at (t, z)."""
    t, rest = float(t), np.asarray([float(v) for v in z])
    k = m.kind
    eps = quad_signs(m)
    if isinstance(k, nf.Fold):
        return float(eps @ (rest * rest))
    if isinstance(k, (nf.Cusp, nf.SwallowTail)):
        x, z = rest[0], rest[1:]
        lead = (x ** 3 if isinstance(k, nf.Cusp)
                else x ** 4 / 12 - k.t * x ** 2 / 2)
        return float(lead + t * x + eps @ (z * z))
    r = float(rest @ rest)
    return float(eps @ (rest * rest) + k.alpha(t) * k.beta(r))


def z_grad(m: nf.LocalMap, t: float, z) -> np.ndarray:
    """Second row, z-columns, of the model's Jacobian at (t, z)."""
    p = [float(v) for v in [t, *z]]
    t, rest = p[0], np.asarray(p[1:])
    k = m.kind
    eps = quad_signs(m)
    if isinstance(k, nf.Fold):
        return 2 * eps * rest
    if isinstance(k, nf.Cusp):
        x, z = rest[0], rest[1:]
        return np.concatenate([[3 * x ** 2 + t], 2 * eps * z])
    if isinstance(k, nf.SwallowTail):
        x, z = rest[0], rest[1:]
        return np.concatenate([[x ** 3 / 3 - k.t * x + t], 2 * eps * z])
    r = float(rest @ rest)
    beta_d = k.beta.derivative()
    return 2 * rest * (eps + k.alpha(t) * beta_d(r))


def t_partial(m: nf.LocalMap, t: float, z) -> float:
    """First column, second row, of the model's Jacobian at (t, z)."""
    rest = np.asarray([float(v) for v in z])
    k = m.kind
    if isinstance(k, nf.Fold):
        return 0.0
    if isinstance(k, (nf.Cusp, nf.SwallowTail)):
        return float(rest[0])
    return k.alpha.derivative()(float(t)) * k.beta(float(rest @ rest))


def z_hess(m: nf.LocalMap, t: float, z: np.ndarray) -> np.ndarray:
    k = m.kind
    eps = quad_signs(m)
    if isinstance(k, nf.Fold):
        return np.diag(2 * eps)
    if isinstance(k, nf.Cusp):
        return np.diag(np.concatenate([[6 * z[0]], 2 * eps]))
    if isinstance(k, nf.SwallowTail):
        return np.diag(np.concatenate([[z[0] ** 2 - k.t], 2 * eps]))
    r = float(z @ z)
    a = k.alpha(t)
    b1 = k.beta.derivative()(r)
    b2 = k.beta.derivative().derivative()(r)
    H = np.diag(2 * (eps + a * b1))
    H += 4 * a * b2 * np.outer(z, z)
    return H


def residual(m: nf.LocalMap, p: np.ndarray) -> float:
    return float(np.linalg.norm(z_grad(m, float(p[0]), p[1:])))


def classify(m: nf.LocalMap, p: np.ndarray) -> tuple[str, int | None]:
    eigs = np.linalg.eigvalsh(z_hess(m, float(p[0]), p[1:]))
    amax = float(np.max(np.abs(eigs)))
    if amax < 1e-12:
        return "unknown", None
    if float(np.min(np.abs(eigs))) < nf.HESSIAN_RANK_RATIO * amax:
        return "cusp-candidate", None
    return "fold", int(np.sum(eigs < 0))


def cusp_system(m: nf.LocalMap, x: np.ndarray) -> np.ndarray:
    g = z_grad(m, float(x[0]), x[1:])
    d = np.linalg.det(z_hess(m, float(x[0]), x[1:]))
    return np.concatenate([g, [d]])


def polish_cusp(m: nf.LocalMap, seed: np.ndarray) -> tuple[np.ndarray, float]:
    """Sharpen a cusp location by Newton on (z-gradient, Hessian det) = 0,
    with a central-difference Jacobian."""
    x = np.array(seed, dtype=float)
    res = float(np.linalg.norm(cusp_system(m, x)))
    for _ in range(60):
        if res < nf.NEWTON_RESIDUAL:
            break
        G = cusp_system(m, x)
        J = np.zeros((m.n, m.n))
        h = 1e-6
        for j in range(m.n):
            dx = np.zeros(m.n)
            dx[j] = h
            J[:, j] = (cusp_system(m, x + dx) - cusp_system(m, x - dx)) / (2 * h)
        try:
            step = np.linalg.solve(J, G)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(J, G, rcond=None)[0]
        scale = 1.0
        improved = False
        for _ in range(25):
            xn = x - scale * step
            rn = float(np.linalg.norm(cusp_system(m, xn)))
            if rn < res:
                x, res = xn, rn
                improved = True
                break
            scale /= 2
        if not improved:
            break
    return x, res


def newton_z(m: nf.LocalMap, t: float,
             z0: np.ndarray) -> tuple[np.ndarray, float]:
    z = np.array(z0, dtype=float)
    res = float(np.linalg.norm(z_grad(m, t, z)))
    for _ in range(nf.NEWTON_MAXITER):
        if res < nf.NEWTON_RESIDUAL:
            break
        g = z_grad(m, t, z)
        H = z_hess(m, t, z)
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(H, g, rcond=None)[0]
        scale = 1.0
        improved = False
        for _ in range(25):
            zn = z - scale * step
            rn = float(np.linalg.norm(z_grad(m, t, zn)))
            if rn < res:
                z, res = zn, rn
                improved = True
                break
            scale /= 2
        if not improved:
            break
    return z, res


def dedup(points: list[np.ndarray], radius: float) -> list[np.ndarray]:
    kept: list[np.ndarray] = []
    for p in sorted(points, key=nf._canonical_key):
        if all(np.linalg.norm(p - q) > radius for q in kept):
            kept.append(p)
    return kept


def grid_points(grid: nf.GridSpec):
    lines = [np.linspace(lo, hi, count) for lo, hi, count in grid.axes]
    for combo in itertools.product(*lines):
        yield np.array(combo)


def newton_all(m: nf.LocalMap,
               grid: nf.GridSpec) -> list[tuple[float, np.ndarray, float]]:
    """(t, final z, final residual) of every seed, in grid order."""
    return [(float(seed[0]), *newton_z(m, float(seed[0]), seed[1:]))
            for seed in grid_points(grid)]


def detect(m: nf.LocalMap, grid: nf.GridSpec, tol: float,
           runs=None) -> list[nf.SingularSample]:
    """Singular samples as the per-seed loop finds them; ``runs`` may pass
    in ``newton_all(m, grid)`` when it is at hand."""
    converged = [np.concatenate([[t], z])
                 for t, z, res in runs or newton_all(m, grid) if res < tol]
    kept = dedup(converged, nf.DEDUP_RADIUS)

    dets = [float(np.linalg.det(z_hess(m, float(p[0]), p[1:])))
            for p in kept]
    polished: list[np.ndarray] = []
    for a, b, da, db in zip(kept, kept[1:], dets, dets[1:]):
        if da == 0.0 or db == 0.0 or (da > 0) == (db > 0):
            continue
        cusp, res = polish_cusp(m, (a + b) / 2)
        if res < 1e-9:
            polished.append(cusp)
    cusp_points = dedup(polished, nf.DEDUP_RADIUS)

    samples: list[nf.SingularSample] = []
    for p in kept:
        if all(np.linalg.norm(p - c) > nf.DEDUP_RADIUS for c in cusp_points):
            kind, negs = classify(m, p)
            samples.append(nf.SingularSample(tuple(float(v) for v in p),
                                             residual(m, p), kind, negs))
    for c in cusp_points:
        samples.append(nf.SingularSample(tuple(float(v) for v in c),
                                         residual(m, c), "cusp-candidate",
                                         None))
    samples.sort(key=lambda s: nf._canonical_key(s.point))
    return samples
