"""Singular-set detection against the closed forms of the local models.

The per-seed loop of ``_newton_reference`` shares every rule of the
detection, so it cannot catch a wrong rule; these laws come from the
mathematics instead.  The closed forms:

- fold of index k: the axis z = 0, a fold of index k everywhere;
- cusp of index k: the curve t = -3x^2, z_rest = 0, a fold of index
  k + [x < 0] away from its one cusp at x = 0;
- swallowtail: ``SwallowTailCurve``, whose ``fold_negatives`` and
  ``cusp_parameters`` give the fold indices and the cusps;
- fold of index k perturbed by bumps that pass the perturbation
  condition: the axis z = 0, a fold of index k everywhere.

The laws, for every grid: each sample lies within 1e-8 of the singular
set; no two samples lie within DEDUP_RADIUS; each fold index is the closed
form's; a sample within 1e-7 of a cusp is a cusp candidate, and each cusp
candidate lies within 1e-5 of a cusp (a Newton run into a double root
stops about 1e-6 short, so the bounds differ); each sample is a fold or a
cusp candidate; each sample's residual is below the tolerance it was
detected at, whether Newton or the cusp polish placed it.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from cuspcobord import normal_forms as nf

TOLS = st.sampled_from([1e-9, 1e-12, 1e-13, 1e-14, 1e-16])


def kinds(n: int):
    """Every model kind of dimension n, at each index; the swallowtail at
    both signs of t."""
    return st.one_of(
        st.builds(nf.Fold, st.integers(0, n - 1)),
        st.builds(nf.Cusp, st.integers(0, n - 2)),
        st.builds(nf.SwallowTail,
                  st.sampled_from([-2.0, -0.25, 0.25, 1.0, 2.0]),
                  st.integers(0, n - 2)))


def closed_form(m: nf.LocalMap):
    """An upper bound for a point's distance to the singular set of ``m``,
    the index of a fold point, and the cusps."""
    n, kind = m.n, m.kind
    if type(kind) is nf.Fold:
        return (lambda p: math.hypot(*p[1:]), lambda p: kind.index, [])
    if type(kind) is nf.Cusp:
        return (lambda p: math.hypot(p[0] + 3 * p[1] ** 2, *p[2:]),
                lambda p: kind.index + (p[1] < 0), [(0.0,) * n])
    curve = nf.SwallowTailCurve(n, kind.t, kind.index)
    return (curve.distance_bound, lambda p: curve.fold_negatives(p[1]),
            [curve.point(x) for x in curve.cusp_parameters()])


@st.composite
def axis(draw):
    """A symmetric axis, which seeds an exact zero at an odd count, or one
    that ends at zero: there the Hessian of an n = 2 cusp vanishes."""
    a = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))
    lo, hi = draw(st.sampled_from([(-a, a), (-a, 0.0), (0.0, a)]))
    return lo, hi, draw(st.integers(2, 9))


@st.composite
def models_and_grids(draw):
    n = draw(st.integers(2, 4))
    m = nf.LocalMap(n, draw(kinds(n)))
    pads = [(-0.5, 0.5, draw(st.integers(1, 3))) for _ in range(n - 2)]
    return m, nf.GridSpec((draw(axis()), draw(axis()), *pads))


def on_grid(m: nf.LocalMap, *axes: tuple, tol: float = 1e-9):
    return example(case=(m, nf.GridSpec(axes)), tol=tol)


@settings(max_examples=200)
@given(case=models_and_grids(), tol=TOLS)
# a sample exactly on a cusp, whose Hessian is zero at n = 2 and of
# dropped rank at n = 3
@on_grid(nf.LocalMap(2, nf.Cusp(0)), (-3.0, 0.0, 2), (0.0, 1.0, 2))
@on_grid(nf.LocalMap(2, nf.SwallowTail(1.0)), (-2.0, 2.0, 7),
         (-0.5, 0.5, 4))
@on_grid(nf.LocalMap(3, nf.Cusp(0)), (-3.0, 0.0, 2), (0.0, 1.0, 2),
         (0.0, 0.0, 1))
@on_grid(nf.LocalMap(3, nf.Cusp(1)), (-3.0, 0.0, 2), (-1.0, 0.0, 2),
         (0.0, 0.0, 1))
# the cusp polish stops at a residual of 5.0e-13
@on_grid(nf.LocalMap(2, nf.Cusp(0)), (-0.5, 0.5, 2), (-0.5, 0.5, 2),
         tol=1e-13)
def test_detection_obeys_the_closed_forms(case, tol):
    m, grid = case
    distance, fold_index, cusps = closed_form(m)
    samples = nf.detect_singular_set(m, grid, tol)
    assert {s.kind for s in samples} <= {"fold", "cusp-candidate"}
    for s in samples:
        assert s.residual < tol, s
        assert distance(s.point) <= 1e-8, s
        near = min((math.dist(s.point, c) for c in cusps), default=math.inf)
        if s.kind == "fold":
            assert s.negative_eigenvalues == fold_index(s.point), s
            assert near > 1e-7, s
        else:
            assert near <= 1e-5, s
    points = np.array([s.point for s in samples]).reshape(-1, m.n)
    gaps = np.linalg.norm(points[:, None] - points[None], axis=-1)
    np.fill_diagonal(gaps, np.inf)
    close = np.argwhere(gaps <= nf.DEDUP_RADIUS)
    assert not close.size, [samples[i] for i in close[0]]


@st.composite
def perturbed_folds(draw):
    """A fold of index k perturbed by alpha(t) * beta(|z|^2), where alpha is
    a bump of height up to 0.5 and beta the unit bump: sup |alpha * beta'|
    stays at most 0.9375, below 1."""
    n = draw(st.integers(2, 4))
    k = draw(st.integers(0, n - 1))
    alpha = nf.smooth_bump(draw(st.sampled_from([-1.0, 0.0, 0.3, 1.0])), 1.0,
                           draw(st.sampled_from([0.1, 0.4, 0.5])))
    return k, n, alpha, nf.GridSpec(tuple(draw(axis()) for _ in range(n)))


@settings(max_examples=100)
@given(case=perturbed_folds(), tol=TOLS)
# the default perturbed fold of ``trace perturbed-fold --n 2``, whose
# seeds off the axis converge to residuals of up to 2.5e-13
@example(case=(0, 2, nf.smooth_bump(0, 1, 0.4),
               nf.GridSpec(((-2.0, 2.0, 41), (-0.75, 0.75, 5)))), tol=1e-13)
def test_perturbed_fold_samples_lie_on_the_axis(case, tol):
    k, n, alpha, grid = case
    report = nf.perturbed_fold_image(k, n, alpha, nf.smooth_bump(0, 1, 1),
                                     tol=tol, grid=grid)
    for s in report.detected:
        assert (s.kind, s.negative_eigenvalues) == ("fold", k), s
        assert math.hypot(*s.point[1:]) <= 1e-8, s
        assert s.residual < tol, s
