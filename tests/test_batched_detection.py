"""Batched Newton detection against the per-seed reference loop, bit
for bit."""

import random

import numpy as np
import pytest

from cuspcobord import normal_forms as nf
from cuspcobord.errors import PreconditionError

import _newton_reference as ref

ALPHA = nf.smooth_bump(0.0, 1.0, 0.4)
BETA = nf.smooth_bump(0.0, 1.0, 1.0)


def grid(n: int, *lead: tuple) -> nf.GridSpec:
    """The given leading axes, padded with three-point axes up to n."""
    return nf.GridSpec(tuple(lead) + ((-0.5, 0.5, 3),) * (n - len(lead)))


def assert_same_detection(m: nf.LocalMap, g: nf.GridSpec, tol: float = 1e-9,
                          found: bool = True) -> list[nf.SingularSample]:
    """Every seed's Newton run, then the detected samples, are identical;
    the case finds singular points unless ``found`` is false.  Returns the
    samples."""
    runs = ref.newton_all(m, g)
    seeds = np.concatenate(list(g.blocks(nf.NEWTON_BLOCK)))
    z, res = nf._newton_rows(m, seeds[:, 0], seeds[:, 1:])
    assert z.tolist() == [run[1].tolist() for run in runs]
    assert res.tolist() == [run[2] for run in runs]
    got = nf.detect_singular_set(m, g, tol)
    want = ref.detect(m, g, tol, runs)
    assert bool(got) == found, f"found {len(got)} singular points"
    assert got == want
    assert nf.samples_to_csv(m, got) == nf.samples_to_csv(m, want)
    return got


def model_cases() -> list:
    cases = []
    for n in (2, 3, 4):
        for t in (1.0, -1.0, 0.3, -0.3):
            cases.append((nf.LocalMap(n, nf.SwallowTail(t, n - 2)),
                          grid(n, (-1.5, 1.5, 7), (-2.0, 2.0, 9))))
        for k in {0, n - 2}:
            cases.append((nf.LocalMap(n, nf.Cusp(k)),
                          grid(n, (-1.5, 0.5, 7), (-1.2, 1.2, 9))))
        for i in range(n):
            cases.append((nf.LocalMap(n, nf.Fold(i)),
                          grid(n, (-1.0, 1.0, 5), (-1.0, 1.0, 5))))
        cases.append((nf.LocalMap(n, nf.PerturbedFold(n - 1, ALPHA, BETA)),
                      nf.GridSpec(((-2.0, 2.0, 9),)
                                  + ((-0.75, 0.75, 5),) * (n - 1))))
    return cases


CASES = model_cases()
IDS = [f"{type(m.kind).__name__}-n{m.n}-{i}" for i, (m, _) in enumerate(CASES)]


@pytest.mark.parametrize("m, g", CASES, ids=IDS)
def test_every_model_kind_matches_the_reference(m, g):
    assert_same_detection(m, g)


def test_exactly_singular_seeds_take_the_least_squares_step():
    # x = +-1 are grid values, where the quartic family's Hessian at t = 1
    # vanishes exactly
    m = nf.LocalMap(3, nf.SwallowTail(1.0))
    g = nf.GridSpec(((-1.5, 1.5, 31), (-2.0, 2.0, 21), (-0.5, 0.5, 3)))
    assert 1.0 in np.linspace(-2.0, 2.0, 21)
    assert_same_detection(m, g)


def test_perturbed_fold_default_grid():
    m = nf.LocalMap(2, nf.PerturbedFold(0, ALPHA, BETA))
    assert_same_detection(
        m, nf.GridSpec(((-2.0, 2.0, 41), (-0.75, 0.75, 5))))


def test_singular_perturbed_fold_hessians_fall_back_row_by_row():
    # alpha = 1 and beta(r) = r cancel the first quadratic term where
    # |z|^2 <= 1, so those seeds have the singular Hessian diag(0, 4)
    one = nf.PiecewisePoly((-5.0, 5.0), ((1.0,),))
    ramp = nf.PiecewisePoly((-1.0, 1.0), ((0.0, 1.0),))
    m = nf.LocalMap(3, nf.PerturbedFold(1, one, ramp))
    H = nf._z_hess_rows(m, np.array([0.0]), np.array([[0.5, 0.5]]))[0]
    assert H.tolist() == [[0.0, 0.0], [0.0, 4.0]]
    assert_same_detection(m, grid(3, (-1.0, 1.0, 3), (-1.5, 1.5, 7),
                                  (-1.5, 1.5, 7)))


def test_seeds_that_run_out_of_iterations():
    # beta'(r) = -1 + 1e30 r^2 makes the gradient 2e30 z^5: Newton shrinks
    # z by 4/5 a step and stops at NEWTON_MAXITER above NEWTON_RESIDUAL
    one = nf.PiecewisePoly((-5.0, 5.0), ((1.0,),))
    flat = nf.PiecewisePoly((-1.0, 1.0), ((0.0, -1.0, 0.0, 1e30 / 3),))
    m = nf.LocalMap(2, nf.PerturbedFold(0, one, flat))
    assert_same_detection(m, grid(2, (-1.0, 1.0, 3), (-0.9, 0.9, 7)))


def test_several_cusps_are_polished_in_one_call(monkeypatch):
    seeds = []
    damped_newton = nf._damped_newton

    def spy(F, step, X, maxiter):
        seeds.append(len(X))
        return damped_newton(F, step, X, maxiter)

    monkeypatch.setattr(nf, "_damped_newton", spy)
    m = nf.LocalMap(3, nf.SwallowTail(1.0))
    got = assert_same_detection(m, grid(3, (-1.5, 1.5, 7), (-2.0, 2.0, 9)))
    assert seeds[-1] >= 2  # the polish runs last, on every seed at once
    assert sum(s.kind == "cusp-candidate" for s in got) >= 2


def test_polish_on_an_exactly_singular_difference_jacobian(monkeypatch):
    # alpha jumps from 0 to 2 at t = 0 and beta'(r) = -1, so the Hessian
    # det on the axis z = 0 flips from 2 to -2 between t = -0.5 and t = 0.
    # At the polish seed t = -0.25 alpha is flat, so the t-column of the
    # difference Jacobian is exactly zero: the least-squares step is zero,
    # the residual stays at 2, and the polished point is rejected.
    alpha = nf.PiecewisePoly((-2.0, 0.0, 2.0), ((0.0,), (2.0,)))
    beta = nf.PiecewisePoly((-1.0, 1.0), ((0.0, -1.0),))
    m = nf.LocalMap(2, nf.PerturbedFold(0, alpha, beta))
    systems = []
    lstsq = np.linalg.lstsq

    def spy(a, b, rcond=None):
        systems.append((a.tolist(), b.tolist()))
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    got = nf.detect_singular_set(m, grid(2, (-1.0, 0.5, 4)), 1e-9)
    monkeypatch.undo()
    assert systems == [([[0.0, 2.0], [0.0, 0.0]], [0.0, 2.0])]
    assert [s.class_label() for s in got] == ["fold(0)", "fold(0)",
                                              "fold(1)", "fold(1)"]
    assert assert_same_detection(m, grid(2, (-1.0, 0.5, 4))) == got


def test_a_cusp_polish_that_takes_all_60_iterations():
    # alpha = 1 - t^3 and beta'(r) = -1: on the axis z = 0 the Hessian det
    # is 2 t^3, flipping between the samples at t = -1e3 and t = 1e7.  From
    # their midpoint the polish is Newton in t on 2 t^3, which shrinks t by
    # 2/3 per step: after 60 steps t is 1.4e-4, and the residual 2 t^3 is
    # 5e-12, still above NEWTON_RESIDUAL but below the 1e-9 that keeps the
    # cusp.  Stopping after 59 steps would leave t at 2.0e-4.
    alpha = nf.PiecewisePoly((-1e8, 1e8), ((1.0, 0.0, 0.0, -1.0),))
    beta = nf.PiecewisePoly((-1.0, 1.0), ((0.0, -1.0),))
    m = nf.LocalMap(2, nf.PerturbedFold(0, alpha, beta))
    got = assert_same_detection(m, grid(2, (-1e3, 1e7, 2)))
    seed = np.array([(1e7 - 1e3) / 2, 0.0])
    polished, res = ref.polish_cusp(m, seed)
    assert nf.NEWTON_RESIDUAL < res < 1e-9
    assert polished[0] == pytest.approx(seed[0] * (2 / 3) ** 60, rel=1e-3)
    assert [(s.point, s.kind) for s in got] == [
        ((-1e3, 0.0), "fold"), ((polished[0], 0.0), "cusp-candidate"),
        ((1e7, 0.0), "fold")]


def test_a_detection_where_no_seed_converges():
    # the gradient 2e30 z^5 of test_seeds_that_run_out_of_iterations: off
    # z = 0 every seed stops above NEWTON_RESIDUAL, so none is accepted
    one = nf.PiecewisePoly((-5.0, 5.0), ((1.0,),))
    flat = nf.PiecewisePoly((-1.0, 1.0), ((0.0, -1.0, 0.0, 1e30 / 3),))
    m = nf.LocalMap(2, nf.PerturbedFold(0, one, flat))
    g = grid(2, (-1.0, 1.0, 3), (0.3, 0.9, 4))
    assert_same_detection(m, g, tol=nf.NEWTON_RESIDUAL, found=False)


@pytest.mark.parametrize("m", [
    nf.LocalMap(3, nf.SwallowTail(0.5)),
    nf.LocalMap(3, nf.Cusp(1)),
    nf.LocalMap(3, nf.PerturbedFold(0, ALPHA, BETA)),
], ids=["swallowtail", "cusp", "perturbed-fold"])
def test_grid_larger_than_one_block(m, monkeypatch):
    g = grid(3, (-1.5, 0.5, 9), (-1.2, 1.2, 7))
    monkeypatch.setattr(nf, "NEWTON_BLOCK", 10)  # 189 seeds, 19 blocks
    assert_same_detection(m, g)


def test_grid_blocks_follow_the_product_order():
    g = nf.GridSpec(((-1.0, 1.0, 3), (0.0, 2.0, 5), (0.0, 1.0, 2)))
    rows = np.concatenate(list(g.blocks(4)))
    assert [len(b) for b in g.blocks(4)] == [4] * 7 + [2]
    assert rows.tolist() == [list(p) for p in ref.grid_points(g)]
    assert g.size == 30


MODELS = [nf.LocalMap(n, kind) for n, kind in [
    (2, nf.Fold(1)), (4, nf.Fold(2)), (2, nf.Cusp(0)), (4, nf.Cusp(1)),
    (2, nf.SwallowTail(0.7)), (4, nf.SwallowTail(-1.3, 1)),
    (2, nf.PerturbedFold(0, ALPHA, BETA)),
    (4, nf.PerturbedFold(2, ALPHA, BETA))]]


@pytest.mark.parametrize("m", MODELS, ids=lambda m: f"{m.kind}-n{m.n}")
def test_derivatives_match_the_pointwise_formulas(m, rng):
    points = [[rng.uniform(-1.6, 1.6) for _ in range(m.n)]
              for _ in range(300)]
    points += [[0.0] * m.n, [0.3] + [1.0] + [0.0] * (m.n - 2)]
    for p in points:
        t, z = p[0], np.array(p[1:])
        jac = nf.jacobian(m, p)
        assert jac[1, 1:].tolist() == ref.z_grad(m, t, z).tolist()
        assert jac[1, 0] == ref.t_partial(m, t, z)
        assert jac[0].tolist() == [1.0] + [0.0] * (m.n - 1)
        assert (nf._z_hess_rows(m, np.array([t]), np.array([z]))[0].tolist()
                == ref.z_hess(m, t, z).tolist())


def test_vectorised_piecewise_values_match_scalar_calls():
    rng = random.Random(3)
    for f in (ALPHA, BETA, BETA.derivative(), BETA.derivative().derivative(),
              nf.smooth_bump(0.3, 0.7, -1.9),
              nf.PiecewisePoly((0.0, 1.0, 2.5), ((1.0,), (0.5, 0.0, 2.0)))):
        lo, hi = f.support()
        u = [rng.uniform(lo - 0.5, hi + 0.5) for _ in range(2000)]
        u += list(f.knots) + [lo - 1e-300, -0.0, float("inf")]
        assert f.at(np.array(u)).tolist() == [f(v) for v in u]


def test_elementwise_power_rounds_as_the_scalar_power():
    x = np.random.default_rng(7).standard_normal(20000) * 3.0
    for k in (2, 3):
        assert nf._pow(x, k).tolist() == [np.float64(v) ** k for v in x]
    with np.errstate(over="ignore"):
        big = np.array([1e200, -1e200, 2.0])
        assert nf._pow(big, 3).tolist() == [np.float64(v) ** 3 for v in big]


def test_row_norms_round_as_the_vector_norm():
    rng = np.random.default_rng(5)
    for dim in range(1, 7):
        rows = rng.standard_normal((5000, dim)) * rng.choice(
            [1e-9, 1.0, 1e6], size=(5000, 1))
        assert nf._row_norms(rows).tolist() == [
            float(np.linalg.norm(r)) for r in rows]


def test_dedup_matches_the_quadratic_scan():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4):
        centers = rng.uniform(-1, 1, (40, n))
        centers[:10, 1] = 0.0  # many points share a leading key
        points = centers[rng.integers(0, 40, 600)]
        # half the rows repeat a center exactly, half move by about radius
        points += (rng.normal(0, 1e-6, points.shape)
                   * rng.integers(0, 2, (600, 1)))
        got = nf._dedup(points)
        want = ref.dedup(list(points), nf.DEDUP_RADIUS)
        assert got.tolist() == [p.tolist() for p in want]


class TestSeedBudget:
    def test_oversized_grid_is_refused_before_any_work(self):
        m = nf.LocalMap(2, nf.Fold(0))
        g = nf.GridSpec(((-1.0, 1.0, 1001), (-1.0, 1.0, 1000)))
        with pytest.raises(PreconditionError, match="budget"):
            nf.detect_singular_set(m, g, tol=1e-9)

    def test_non_positive_or_nan_tolerance_is_refused(self):
        m = nf.LocalMap(2, nf.Fold(0))
        for tol in (0.0, -1.0, float("nan")):
            with pytest.raises(PreconditionError, match="tolerance"):
                nf.detect_singular_set(m, grid(2, (-1.0, 1.0, 3)), tol)
