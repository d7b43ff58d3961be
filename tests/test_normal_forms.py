"""Numeric models: evaluation, Jacobians, detection, exact suprema, plots."""

import ast
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from cuspcobord.errors import PreconditionError
from cuspcobord.normal_forms import (
    PERTURBATION_MARGIN,
    Cusp,
    Fold,
    GridSpec,
    LocalMap,
    PerturbedFold,
    PiecewisePoly,
    SwallowTail,
    SwallowTailCurve,
    default_grid,
    detect_singular_set,
    evaluate,
    jacobian,
    perturbation_supremum,
    perturbed_fold_image,
    render_svg,
    samples_to_csv,
    smooth_bump,
)

import _newton_reference as ref
from _corpus import REPO_ROOT
from test_batched_detection import MODELS


def bump(height=0.4, radius=1.0, center=0.0):
    return smooth_bump(center, radius, height)


class TestPiecewisePoly:
    def test_evaluates_per_piece_and_zero_outside(self):
        f = PiecewisePoly((0.0, 1.0, 2.0), ((0.0, 1.0), (2.0, -1.0)))
        assert f(0.5) == 0.5
        assert f(1.5) == 0.5
        assert f(-1.0) == 0.0
        assert f(3.0) == 0.0

    def test_derivative_matches_finite_differences(self):
        f = smooth_bump(0.25, 1.5, 2.0)
        g = f.derivative()
        for t in np.linspace(-1.2, 1.7, 37):
            h = 1e-6
            fd = (f(t + h) - f(t - h)) / (2 * h)
            assert abs(fd - g(t)) < 1e-7 * (1 + abs(g(t)))

    def test_max_abs_is_an_upper_bound_for_dense_sampling(self):
        f = smooth_bump(0.0, 2.0, -3.5)
        sup = f.max_abs()
        dense = max(abs(f(t)) for t in np.linspace(-2.5, 2.5, 20001))
        assert dense <= sup + 1e-12
        assert sup == pytest.approx(3.5, abs=1e-12)

    def test_knots_must_increase(self):
        with pytest.raises(ValueError):
            PiecewisePoly((0.0, 0.0), ((1.0,),))
        with pytest.raises(ValueError):
            PiecewisePoly((0.0, 1.0), ((1.0,), (2.0,)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_coefficients_must_be_finite(self, bad):
        # a NaN coefficient would read as zero in max_abs, so the
        # perturbation condition would pass on it
        with pytest.raises(ValueError, match="coefficients must be finite"):
            PiecewisePoly((0.0, 1.0), ((bad, 1.0),))
        with pytest.raises(ValueError, match="coefficients must be finite"):
            PiecewisePoly((0.0, 1.0, 2.0), ((0.0, 1.0), (2.0, 0.0, bad)))

    def test_a_single_knot_is_refused(self):
        with pytest.raises(ValueError, match="^need at least one interval$"):
            PiecewisePoly((0.0,), ())


class TestSmoothBump:
    def test_peak_and_support(self):
        f = smooth_bump(1.0, 0.5, 3.0)
        assert f(1.0) == pytest.approx(3.0, abs=1e-12)
        assert f.support() == (0.5, 1.5)
        assert f(0.5) == pytest.approx(0.0, abs=1e-12)
        assert f(1.5) == pytest.approx(0.0, abs=1e-12)

    def test_continuity_of_value_and_slope_at_knots(self):
        f = smooth_bump(0.0, 1.0, 1.0)
        g = f.derivative()
        for knot in (-1.0, 0.0, 1.0):
            eps = 1e-9
            assert abs(f(knot - eps) - f(knot + eps)) < 1e-7
            assert abs(g(knot - eps) - g(knot + eps)) < 1e-6

    def test_steepest_slope_value(self):
        # the quintic step has maximal slope 15/8 at its midpoint
        f = smooth_bump(0.0, 2.0, 4.0)
        assert f.derivative().max_abs() == pytest.approx(
            1.875 * 4.0 / 2.0, rel=1e-12)

    def test_bad_radius_rejected(self):
        with pytest.raises(ValueError):
            smooth_bump(0.0, 0.0, 1.0)

    @pytest.mark.parametrize("center, radius, height", [
        (0.0, 1e-3, 1e3), (0.0, 1e3, -1e3), (1e4, 1e3, 1.0),
        (-10.0, 1.0, 0.4), (0.01, 1e-3, 0.0)])
    def test_range_corners_are_accepted(self, center, radius, height):
        assert smooth_bump(center, radius, height).support() == (
            center - radius, center + radius)

    @pytest.mark.parametrize("center, radius, height, message", [
        (0.0, 9.99e-4, 1.0, "radius 0.000999 is outside"),
        (0.0, 1e160, 0.4, "radius 1e+160 is outside"),
        (0.0, float("nan"), 1.0, "radius nan is outside"),
        (1000.0, 1.0, 0.2, "center 1000 is outside"),
        (-10.5, 1.0, 0.2, "center -10.5 is outside"),
        (float("inf"), 1e3, 1.0, "center inf is outside"),
        (0.0, 1.0, -1001.0, "height -1001 is outside"),
        (0.0, 1.0, float("nan"), "height nan is outside")])
    def test_out_of_range_rejected(self, center, radius, height, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            smooth_bump(center, radius, height)

    def test_pieces_stay_close_to_the_smoothstep_across_the_range(self):
        # exact smoothstep values in local coordinates, against the pieces
        # in powers of t, at the widest allowed |center| / radius
        for center, radius in ((10.0, 1.0), (-1e4, 1e3), (1e-2, 1e-3)):
            f = smooth_bump(center, radius, 1.0)
            for t in np.linspace(center - radius, center + radius, 101):
                u = 1 - abs(Fraction(float(t)) - Fraction(center)) / Fraction(
                    radius)
                exact = 10 * u ** 3 - 15 * u ** 4 + 6 * u ** 5
                assert abs(Fraction(f(float(t))) - exact) < 1e-8


class TestModelConstruction:
    def test_index_windows(self):
        LocalMap(3, Fold(2))
        with pytest.raises(ValueError):
            LocalMap(3, Fold(3))
        LocalMap(3, Cusp(1))
        with pytest.raises(ValueError):
            LocalMap(3, Cusp(2))
        with pytest.raises(ValueError):
            LocalMap(1, Fold(0))

    @pytest.mark.parametrize("kind, message", [
        (Fold(3), "fold index 3 outside [0, 2]"),
        (PerturbedFold(-1, bump(), bump()), "fold index -1 outside [0, 2]"),
        (Cusp(2), "cusp index 2 outside [0, 1]"),
        (SwallowTail(1.0, 2), "quadratic index 2 outside [0, 1]"),
    ], ids=["fold", "perturbed-fold", "cusp", "swallowtail"])
    def test_index_messages(self, kind, message):
        with pytest.raises(ValueError) as exc:
            LocalMap(3, kind)
        assert str(exc.value) == message

    def test_degenerate_family_parameter_rejected(self):
        with pytest.raises(ValueError):
            LocalMap(3, SwallowTail(0.0))
        # |t| is checked before the index
        with pytest.raises(ValueError) as exc:
            LocalMap(3, SwallowTail(0.0, 5))
        assert str(exc.value) == "|t| = 0 is outside [0.0001, 10000]"

    def test_an_unknown_kind_is_refused(self):
        with pytest.raises(ValueError,
                           match="^unknown model kind <object object at "):
            LocalMap(2, object())

    def test_perturbation_factors_must_have_compact_support(self):
        with pytest.raises(ValueError):
            LocalMap(2, PerturbedFold(0, lambda t: 0.0, bump()))
        with pytest.raises(PreconditionError):
            perturbation_supremum(math.sin, bump())


class TestEvaluate:
    # frozen oracle values, each a one-line hand computation
    def test_fold(self):
        m = LocalMap(3, Fold(0))
        assert evaluate(m, (0.5, 1.0, 2.0)) == (0.5, 5.0)
        m1 = LocalMap(3, Fold(1))
        assert evaluate(m1, (0.5, 1.0, 2.0)) == (0.5, 3.0)

    def test_cusp(self):
        m = LocalMap(3, Cusp(0))
        assert evaluate(m, (2.0, 1.0, 3.0)) == (2.0, 12.0)

    def test_quartic_family(self):
        m = LocalMap(3, SwallowTail(1.0))
        t, h = evaluate(m, (2.0 / 3.0, 1.0, 0.0))
        assert t == pytest.approx(2.0 / 3.0)
        assert h == pytest.approx(0.25, abs=1e-12)

    def test_perturbed_fold(self):
        m = LocalMap(2, PerturbedFold(0, bump(0.4), bump(1.0)))
        t, h = evaluate(m, (0.0, 0.0))
        assert t == 0.0
        assert h == pytest.approx(0.4, abs=1e-12)

    def test_wrong_arity_rejected(self):
        m = LocalMap(3, Fold(0))
        with pytest.raises(PreconditionError):
            evaluate(m, (0.0, 0.0))


@pytest.mark.parametrize("m", MODELS, ids=lambda m: f"{m.kind}-n{m.n}")
def test_evaluate_matches_the_pointwise_formula_bit_for_bit(m, rng):
    points = [[rng.uniform(-1.6, 1.6) for _ in range(m.n)]
              for _ in range(300)]
    points += [[0.0] * m.n, [-0.0] * m.n]  # float.hex tells the zeros apart
    for p in points:
        want = (p[0], ref.h(m, p[0], p[1:]))
        assert [v.hex() for v in evaluate(m, p)] == [v.hex() for v in want]


class TestJacobian:
    def _fd(self, m, p, h=1e-7):
        p = np.asarray(p, dtype=float)
        out = np.zeros((2, len(p)))
        for j in range(len(p)):
            dp = np.zeros(len(p))
            dp[j] = h
            fp = np.asarray(evaluate(m, p + dp))
            fm = np.asarray(evaluate(m, p - dp))
            out[:, j] = (fp - fm) / (2 * h)
        return out

    def test_analytic_matches_finite_differences(self, rng):
        models = [
            LocalMap(3, Fold(1)),
            LocalMap(4, Fold(0)),
            LocalMap(3, Cusp(0)),
            LocalMap(4, Cusp(2)),
            LocalMap(3, SwallowTail(1.0)),
            LocalMap(3, SwallowTail(-0.25)),
            LocalMap(2, PerturbedFold(0, bump(0.4), bump(1.0))),
            LocalMap(3, PerturbedFold(1, bump(0.3), bump(1.0, 0.8))),
        ]
        for m in models:
            for _ in range(12):
                p = [rng.uniform(-0.9, 0.9) for _ in range(m.n)]
                J = jacobian(m, p)
                F = self._fd(m, p)
                rel = np.abs(F - J) / (1.0 + np.abs(J))
                assert float(rel.max()) < 1e-6, (m.kind, p)

    def test_wrong_arity_rejected(self):
        with pytest.raises(PreconditionError):
            jacobian(LocalMap(3, Fold(0)), (0.0, 0.0))


class TestGridSpec:
    def test_size_counts_the_grid_points(self):
        assert GridSpec(((-1.0, 1.0, 3), (0.0, 2.0, 2))).size == 6

    def test_rejects_malformed_axes(self):
        with pytest.raises(ValueError):
            GridSpec(((0.0, -1.0, 5),))
        with pytest.raises(ValueError):
            GridSpec(((0.0, 1.0, 0),))
        with pytest.raises(ValueError, match="span"):
            GridSpec(((-1.7e308, 1.7e308, 3),))


def former_default_axes(m):
    """The default seed axes of every model kind, written out longhand as
    the reference for ``default_grid``."""
    k = m.kind
    if isinstance(k, PerturbedFold):
        lo, hi = k.alpha.support()
        return ((lo - 1.0, hi + 1.0, 41),) + ((-0.75, 0.75, 5),) * (m.n - 1)
    if isinstance(k, SwallowTail):
        axes = [(-1.5, 1.5, 31), (-2.0, 2.0, 21)]
    elif isinstance(k, Cusp):
        axes = [(-1.5, 0.5, 21), (-1.2, 1.2, 13)]
    else:
        axes = [(-1.0, 1.0, 11)]
    while len(axes) < m.n:
        axes.append((-0.5, 0.5, 3))
    return tuple(axes[:m.n])


class TestDefaultGrid:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_same_axes_as_before_for_every_kind(self, n):
        for kind in (Fold(0), Cusp(0), SwallowTail(1.0),
                     PerturbedFold(0, bump(0.4, center=0.5), bump(1.0))):
            m = LocalMap(n, kind)
            assert default_grid(m).axes == former_default_axes(m)

    def test_refused_once_the_seeds_pass_the_budget(self):
        # 11 * 3**10 seeds fit in the budget, 11 * 3**11 do not
        assert default_grid(LocalMap(11, Fold(0))).size == 11 * 3 ** 10
        with pytest.raises(PreconditionError, match="budget"):
            default_grid(LocalMap(12, Fold(0)))

    @pytest.mark.parametrize("kind", [Fold(0),
                                      PerturbedFold(0, bump(), bump(1.0))])
    def test_huge_dimension_is_refused_without_walking_it(self, kind):
        with pytest.raises(PreconditionError, match="budget"):
            default_grid(LocalMap(10 ** 9, kind))


FOLD_GRID = GridSpec(((-1.0, 1.0, 11), (-1.0, 1.0, 7), (-1.0, 1.0, 7)))
ST_GRID = GridSpec(((-1.5, 1.5, 31), (-2.0, 2.0, 21), (-0.5, 0.5, 3)))


class TestDetection:
    def test_fold_singular_set_is_the_axis(self):
        for index in (0, 1, 2):
            m = LocalMap(3, Fold(index))
            samples = detect_singular_set(m, FOLD_GRID, tol=1e-9)
            assert samples
            for s in samples:
                assert abs(s.point[1]) < 1e-9 and abs(s.point[2]) < 1e-9
                assert s.kind == "fold"
                assert s.negative_eigenvalues == index

    def test_cusp_model_finds_the_cusp_point(self):
        m = LocalMap(3, Cusp(0))
        grid = GridSpec(((-1.5, 0.5, 21), (-1.2, 1.2, 13), (-0.5, 0.5, 3)))
        samples = detect_singular_set(m, grid, tol=1e-9)
        cusps = [s for s in samples if s.kind == "cusp-candidate"]
        assert len(cusps) == 1
        assert abs(cusps[0].point[0]) < 1e-6
        assert abs(cusps[0].point[1]) < 1e-6
        folds = [s for s in samples if s.kind == "fold"]
        assert folds
        for s in folds:
            # the fold curve of the cubic model is t = -3 x^2
            t, x = s.point[0], s.point[1]
            assert abs(t + 3 * x * x) < 1e-6

    def test_quartic_family_positive_parameter(self):
        m = LocalMap(3, SwallowTail(1.0))
        curve = SwallowTailCurve(3, 1.0)
        samples = detect_singular_set(m, ST_GRID, tol=1e-9)
        assert len(samples) > 30
        cusps = [s for s in samples if s.kind == "cusp-candidate"]
        assert len(cusps) == 2
        got = sorted(s.point[1] for s in cusps)
        assert got[0] == pytest.approx(-1.0, abs=1e-6)
        assert got[1] == pytest.approx(1.0, abs=1e-6)
        for s in samples:
            assert curve.distance_bound(s.point) < 1e-8
        for s in samples:
            if s.kind == "fold":
                assert s.negative_eigenvalues == curve.fold_negatives(
                    s.point[1])

    def test_quartic_family_negative_parameter(self):
        m = LocalMap(3, SwallowTail(-1.0))
        curve = SwallowTailCurve(3, -1.0)
        samples = detect_singular_set(m, ST_GRID, tol=1e-9)
        assert samples
        assert not [s for s in samples if s.kind == "cusp-candidate"]
        for s in samples:
            assert curve.distance_bound(s.point) < 1e-8

    def test_detection_is_deterministic(self):
        m = LocalMap(3, SwallowTail(0.25))
        a = detect_singular_set(m, ST_GRID, tol=1e-9)
        b = detect_singular_set(m, ST_GRID, tol=1e-9)
        assert a == b

    def test_grid_arity_checked(self):
        m = LocalMap(3, Fold(0))
        with pytest.raises(PreconditionError):
            detect_singular_set(m, GridSpec(((-1.0, 1.0, 5),)), tol=1e-9)
        with pytest.raises(PreconditionError):
            detect_singular_set(m, FOLD_GRID, tol=0.0)


class TestAnalyticCurve:
    def test_cusp_parameters(self):
        assert SwallowTailCurve(3, 4.0).cusp_parameters() == (-2.0, 2.0)
        assert SwallowTailCurve(3, -4.0).cusp_parameters() == ()

    def test_point_and_image(self):
        c = SwallowTailCurve(4, 1.0)
        assert c.point(0.0) == (0.0, 0.0, 0.0, 0.0)
        p = c.point(1.0)
        assert p[0] == pytest.approx(2.0 / 3.0)
        assert c.image_point(1.0) == (pytest.approx(2.0 / 3.0),
                                      pytest.approx(0.25))

    def test_fold_negatives_and_absolute_index(self):
        c = SwallowTailCurve(3, 1.0)
        assert c.fold_negatives(0.0) == 1
        assert c.fold_negatives(2.0) == 0
        assert c.fold_absolute_index(2.0) == 2
        with pytest.raises(PreconditionError):
            c.fold_negatives(1.0)

    def test_degenerate_parameter_rejected(self):
        with pytest.raises(PreconditionError):
            SwallowTailCurve(3, 0.0)
        # what LocalMap refuses: a non-finite t, and a quadratic index
        # outside [0, n - 2]
        for t in (math.nan, math.inf, -math.inf):
            with pytest.raises(PreconditionError, match="not finite"):
                SwallowTailCurve(3, t)
        for n, index in ((3, 2), (3, 5), (3, -1), (3, -4), (2, 1)):
            with pytest.raises(PreconditionError,
                               match=f"quadratic index {index} outside"):
                SwallowTailCurve(n, 1.0, index)
        assert SwallowTailCurve(3, 1.0, 1).fold_negatives(0.0) == 2

    def test_dimension_one_is_refused(self):
        # before the index check, which would name index 0 outside [0, -1]
        with pytest.raises(PreconditionError,
                           match="^ambient dimension must be >= 2$"):
            SwallowTailCurve(1, 1.0)


class TestPerturbation:
    def test_supremum_is_exact_product(self):
        # max |alpha| = 0.4, max |beta'| = 1.875 for a unit bump
        assert perturbation_supremum(bump(0.4), bump(1.0)) == pytest.approx(
            0.75, rel=1e-12)

    def test_condition_threshold(self):
        bound = 1.0 - PERTURBATION_MARGIN
        assert perturbation_supremum(bump(0.4), bump(1.0)) < bound
        assert perturbation_supremum(bump(0.6), bump(1.0)) >= bound

    def test_report_verifies_axis_and_image(self):
        report = perturbed_fold_image(0, 2, bump(0.4), bump(1.0))
        assert report.ok
        assert report.sup_product == pytest.approx(0.75, rel=1e-12)
        assert report.samples > 0
        assert report.max_axis_distance < 1e-8
        assert report.max_image_error < 1e-8

    def test_failing_condition_raises(self):
        with pytest.raises(PreconditionError):
            perturbed_fold_image(0, 2, bump(0.6), bump(1.0))

    def test_higher_dimension_report(self):
        report = perturbed_fold_image(1, 3, bump(0.3), bump(1.0))
        assert report.ok


class TestRendering:
    def test_svg_is_deterministic(self):
        m = LocalMap(2, Cusp(0))
        samples = detect_singular_set(m, default_grid(m), tol=1e-9)
        assert render_svg(m, samples) == render_svg(m, samples)

    def test_svg_structure(self):
        m = LocalMap(2, Cusp(0))
        samples = detect_singular_set(m, default_grid(m), tol=1e-9)
        svg = render_svg(m, samples)
        assert svg.startswith("<svg ")
        assert svg.count("<path") == 1
        assert svg.count("<circle") == 1
        assert svg.endswith("</svg>\n")

    def test_csv_layout(self):
        m = LocalMap(2, Fold(0))
        samples = detect_singular_set(
            m, GridSpec(((-1.0, 1.0, 5), (-1.0, 1.0, 5))), tol=1e-9)
        text = samples_to_csv(m, samples)
        lines = text.strip().split("\n")
        assert lines[0] == "t,z1,residual,class"
        assert len(lines) == len(samples) + 1
        assert all(line.endswith("fold(0)") for line in lines[1:])

    def test_csv_of_nothing(self):
        assert samples_to_csv(LocalMap(2, Fold(0)), []) == (
            "t,z1,residual,class\n")


KINDS = {"Fold", "Cusp", "SwallowTail", "PerturbedFold"}


def _calls(node: ast.AST, name: str) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == name)


def _kind_type_tests(source: str) -> list[str]:
    """The isinstance, type() and match-class tests that name a model kind
    in source, outside the kinds' own class bodies and LocalMap's
    unknown-kind check (the one test there that names every kind)."""
    found = []

    def walk(node: ast.AST, owner: str) -> None:
        if isinstance(node, ast.ClassDef):
            owner = node.name
        if (_calls(node, "isinstance") or isinstance(node, ast.MatchClass)
                or isinstance(node, ast.Compare) and any(
                    _calls(e, "type") for e in [node.left, *node.comparators])):
            named = KINDS & {n.id for n in ast.walk(node)
                             if isinstance(n, ast.Name)}
            if named and owner not in KINDS and not (
                    owner == "LocalMap" and named == KINDS):
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
        for child in ast.iter_child_nodes(node):
            walk(child, owner)

    walk(ast.parse(source), "")
    return found


@pytest.mark.parametrize("source, hits", [
    ("isinstance(k, Fold)", 1),
    ("def f(k):\n    return isinstance(k, (Cusp, SwallowTail))", 1),
    ("type(k) is PerturbedFold or type(k) == Cusp", 2),
    ("match k:\n    case Fold(index=0):\n        pass", 1),
    ("isinstance(k.alpha, PiecewisePoly) and type(k) is LocalMap", 0),
    ("class Fold:\n    def f(self, o):\n        return isinstance(o, Fold)",
     0),
    ("class LocalMap:\n    def f(self):\n"
     "        return isinstance(self.kind, Cusp)", 1),
    ("class LocalMap:\n    def __post_init__(self):\n"
     "        if type(self.kind) not in (Fold, Cusp, SwallowTail,\n"
     "                                   PerturbedFold):\n"
     "            raise ValueError", 0),
    ("if type(k) not in (Fold, Cusp, SwallowTail, PerturbedFold):\n"
     "    raise ValueError", 1),
])
def test_kind_type_test_finder(source, hits):
    assert len(_kind_type_tests(source)) == hits


def test_only_the_kind_classes_know_their_kind():
    # each model's formulas live in its kind class; the rest of the module
    # calls them and never picks a model by its type
    path = REPO_ROOT / "src" / "cuspcobord" / "normal_forms.py"
    assert _kind_type_tests(path.read_text(encoding="utf-8")) == []
