"""Pattern structure: index rules, validation, field predicates, aggregates."""

import ast
import importlib
import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from cuspcobord import moves as mv
from cuspcobord import pattern as pat
from cuspcobord.cli import main
from cuspcobord.errors import PreconditionError
from cuspcobord.invariants import SignAssignment
from cuspcobord.morse import BoundaryCriticalPoint
from cuspcobord.pattern import (
    CIRCLE,
    INTERVAL,
    Component,
    Cusp,
    FoldArc,
    SingularPattern,
    aggregate_even,
    aggregate_odd,
    check_condition_even,
    check_condition_odd,
    cusp_parity_check,
    cusp_tau,
    endpoint_tau,
    fold_tau_range,
    validate_pattern,
    vector_field_exists,
)

from _corpus import REPO_ROOT
from _enumeration import (
    build_pattern,
    cusp_abut_pairs,
    patterns_up_to,
    sign_assignments,
    single_shapes,
)


def local_rules_ok(p: SingularPattern) -> bool:
    """Re-statement of every structural rule, written flat and separately
    from the library validator so the two can disagree."""
    lo, hi = p.n // 2, p.n - 1
    pt_ids = [bp.id for bp in p.boundary_points]
    if len(set(pt_ids)) != len(pt_ids):
        return False
    by_id = {bp.id: bp for bp in p.boundary_points}
    elt_ids: list[str] = []
    endpoint_uses: list[str] = []
    for comp in p.components:
        seq = comp.sequence
        if not seq:
            return False
        elt_ids += [e.id for e in seq]
        shape_ok = all(isinstance(e, FoldArc if j % 2 == 0 else Cusp)
                       for j, e in enumerate(seq))
        if comp.kind == CIRCLE:
            if comp.endpoints is not None:
                return False
            if len(seq) != 1 and len(seq) % 2 != 0:
                return False
            if not shape_ok:
                return False
            ncusps = sum(isinstance(e, Cusp) for e in seq)
            if p.n % 2 == 1 and ncusps % 2 == 1:
                return False
        else:
            if comp.endpoints is None or len(seq) % 2 != 1 or not shape_ok:
                return False
            x0, x1 = comp.endpoints
            if x0 == x1 or x0 not in by_id or x1 not in by_id:
                return False
            endpoint_uses += [x0, x1]
            for pid, arc in ((x0, seq[0]), (x1, seq[-1])):
                mu = by_id[pid].mu
                if arc.tau != max(mu, p.n - 1 - mu):
                    return False
        for e in seq:
            if isinstance(e, FoldArc) and not lo <= e.tau <= hi:
                return False
            if isinstance(e, Cusp) and not 0 <= e.normal_index <= p.n - 2:
                return False
        for j, e in enumerate(seq):
            if not isinstance(e, Cusp):
                continue
            left = seq[j - 1]
            right = seq[(j + 1) % len(seq)] if comp.kind == CIRCLE else seq[j + 1]
            if (left.tau, right.tau) not in cusp_abut_pairs(
                    e.normal_index, p.n):
                return False
    if len(set(elt_ids)) != len(elt_ids):
        return False
    return sorted(endpoint_uses) == sorted(pt_ids)


class TestIndexRules:
    def test_cusp_tau_table(self):
        # frozen: max(I, n-2-I) spot values
        assert cusp_tau(0, 2) == 0
        assert cusp_tau(0, 3) == 1 and cusp_tau(1, 3) == 1
        assert cusp_tau(0, 4) == 2 and cusp_tau(1, 4) == 1
        assert cusp_tau(3, 5) == 3

    def test_endpoint_tau_table(self):
        assert endpoint_tau(0, 2) == 1 and endpoint_tau(1, 2) == 1
        assert endpoint_tau(0, 3) == 2 and endpoint_tau(1, 3) == 1
        assert endpoint_tau(2, 5) == 2

    def test_fold_tau_window(self):
        assert fold_tau_range(2) == (1, 1)
        assert fold_tau_range(3) == (1, 2)
        assert fold_tau_range(4) == (2, 3)
        assert fold_tau_range(7) == (3, 6)


class TestValidationCodes:
    def bare(self, n=2):
        return build_pattern(n, (("circle", (1,), ()),))

    def test_enumerated_patterns_all_validate(self):
        for n in (2, 3, 4):
            for shape in single_shapes(n, 3):
                p = build_pattern(n, (shape,))
                report = validate_pattern(p)
                assert report.ok, (shape, report.codes())

    def test_unknown_component_kind_is_refused(self):
        with pytest.raises(ValueError,
                           match="^unknown component kind 'blob'$"):
            Component("blob", ())

    def test_empty_component(self):
        p = SingularPattern(2, (Component(CIRCLE, ()),))
        assert "empty-component" in validate_pattern(p).codes()

    def test_alternation_broken(self):
        p = SingularPattern(2, (Component(
            CIRCLE, (FoldArc("a0", 1), FoldArc("a1", 1))),))
        assert "alternation" in validate_pattern(p).codes()

    def test_arc_index_out_of_window(self):
        p = SingularPattern(3, (Component(CIRCLE, (FoldArc("a0", 0),)),))
        assert "arc-index-range" in validate_pattern(p).codes()

    def test_cusp_index_out_of_range(self):
        p = SingularPattern(2, (Component(
            CIRCLE, (FoldArc("a0", 1), Cusp("c0", 1))),))
        assert "cusp-index-range" in validate_pattern(p).codes()

    def test_cusp_transition_violated(self):
        # a cusp with I=0 in dimension 3 needs arc indices {1, 2}
        p = SingularPattern(3, (Component(
            CIRCLE, (FoldArc("a0", 1), Cusp("c0", 0),
                     FoldArc("a1", 1), Cusp("c1", 0))),))
        assert "cusp-transition" in validate_pattern(p).codes()

    def test_circle_with_endpoints(self):
        pts = (BoundaryCriticalPoint("x0", 0, 1),
               BoundaryCriticalPoint("x1", 0, 1))
        p = SingularPattern(2, (Component(
            CIRCLE, (FoldArc("a0", 1),), ("x0", "x1")),), pts)
        codes = validate_pattern(p).codes()
        assert "circle-endpoints" in codes

    def test_odd_dimension_forbids_odd_circles(self):
        p = SingularPattern(3, (Component(
            CIRCLE, (FoldArc("a0", 1), Cusp("c0", 0),
                     FoldArc("a1", 2), Cusp("c1", 0),
                     FoldArc("a2", 1), Cusp("c2", 1))),))
        assert "odd-circle-cusps" in validate_pattern(p).codes()

    def test_interval_needs_endpoints(self):
        p = SingularPattern(2, (Component(INTERVAL, (FoldArc("a0", 1),)),))
        assert "interval-endpoints-missing" in validate_pattern(p).codes()

    def test_interval_endpoints_distinct(self):
        pts = (BoundaryCriticalPoint("x0", 0, 1),)
        p = SingularPattern(2, (Component(
            INTERVAL, (FoldArc("a0", 1),), ("x0", "x0")),), pts)
        assert "interval-endpoints-equal" in validate_pattern(p).codes()

    def test_unknown_endpoint(self):
        p = SingularPattern(2, (Component(
            INTERVAL, (FoldArc("a0", 1),), ("x0", "x1")),))
        assert "unknown-endpoint" in validate_pattern(p).codes()

    def test_endpoint_forces_end_arc_index(self):
        pts = (BoundaryCriticalPoint("x0", 0, 1),
               BoundaryCriticalPoint("x1", 1, 1))
        p = SingularPattern(3, (Component(
            INTERVAL, (FoldArc("a0", 1),), ("x0", "x1")),), pts)
        assert "endpoint-index" in validate_pattern(p).codes()

    def test_endpoint_multiplicity(self):
        pts = (BoundaryCriticalPoint("x0", 0, 1),
               BoundaryCriticalPoint("x1", 0, 1),
               BoundaryCriticalPoint("x2", 0, 1),
               BoundaryCriticalPoint("x3", 0, 1))
        p = SingularPattern(2, (
            Component(INTERVAL, (FoldArc("a0", 1),), ("x0", "x1")),
            Component(INTERVAL, (FoldArc("a1", 1),), ("x0", "x2")),
        ), pts)
        codes = validate_pattern(p).codes()
        assert "endpoint-multiplicity" in codes

    def test_duplicate_element_id(self):
        p = SingularPattern(2, (
            Component(CIRCLE, (FoldArc("a0", 1),)),
            Component(CIRCLE, (FoldArc("a0", 1),)),
        ))
        assert "duplicate-element-id" in validate_pattern(p).codes()

    def test_duplicate_boundary_id(self):
        pts = (BoundaryCriticalPoint("x0", 0, 1),
               BoundaryCriticalPoint("x0", 0, 1))
        p = SingularPattern(2, (
            Component(INTERVAL, (FoldArc("a0", 1),), ("x0", "x0")),), pts)
        assert "duplicate-boundary-id" in validate_pattern(p).codes()


def _mutate(p: SingularPattern, rng: random.Random) -> SingularPattern:
    """Randomly corrupt one aspect of a pattern (result may stay valid)."""
    comps = list(p.components)
    ci = rng.randrange(len(comps))
    comp = comps[ci]
    seq = list(comp.sequence)
    choice = rng.randrange(6)
    if choice == 0:
        j = rng.randrange(len(seq))
        e = seq[j]
        if isinstance(e, FoldArc):
            seq[j] = replace(e, tau=e.tau + rng.choice((-1, 1)))
        else:
            seq[j] = replace(e, normal_index=e.normal_index + rng.choice((-1, 1)))
        comps[ci] = replace(comp, sequence=tuple(seq))
    elif choice == 1 and len(seq) > 1:
        del seq[rng.randrange(len(seq))]
        comps[ci] = replace(comp, sequence=tuple(seq))
    elif choice == 2 and comp.kind == INTERVAL:
        comps[ci] = replace(comp, endpoints=(comp.endpoints[0],) * 2)
    elif choice == 3:
        flipped = INTERVAL if comp.kind == CIRCLE else CIRCLE
        comps[ci] = replace(comp, kind=flipped)
    elif choice == 4 and len(seq) > 2:
        seq[0], seq[1] = seq[1], seq[0]
        comps[ci] = replace(comp, sequence=tuple(seq))
    else:
        j = rng.randrange(len(seq))
        other = seq[(j + 2) % len(seq)]
        seq[j] = replace(seq[j], id=other.id) if type(seq[j]) is type(other) \
            else seq[j]
        comps[ci] = replace(comp, sequence=tuple(seq))
    return replace(p, components=tuple(comps))


class TestValidatorAgainstIndependentRules:
    def test_agreement_on_valid_and_corrupted_patterns(self, rng):
        for n in (2, 3, 4):
            shapes = single_shapes(n, 2)
            for shape in shapes:
                p = build_pattern(n, (shape,))
                assert validate_pattern(p).ok == local_rules_ok(p) == True  # noqa: E712
                for _ in range(6):
                    q = _mutate(p, rng)
                    assert validate_pattern(q).ok == local_rules_ok(q), (
                        shape, q)


class TestFieldPredicates:
    def test_even_dimension_equivalence_small(self):
        for n in (2, 4):
            for p in patterns_up_to(n, 2, 2):
                for sigma in sign_assignments(p):
                    flags = check_condition_even(p, sigma)
                    assert vector_field_exists(p, sigma) == all(flags)
                    for comp, flag in zip(p.components, flags):
                        assert flag == _component_field_ok(comp, sigma)

    def test_odd_dimension_equivalence_small(self):
        for p in patterns_up_to(3, 2, 2):
            for sigma in sign_assignments(p):
                flags = check_condition_odd(p, sigma)
                assert vector_field_exists(p, sigma) == all(flags)
                for comp, flag in zip(p.components, flags):
                    assert flag == _component_field_ok(comp, sigma)

    def test_wrong_parity_dimension_rejected(self):
        p = build_pattern(2, (("circle", (1,), ()),))
        sigma = SignAssignment({})
        with pytest.raises(PreconditionError):
            check_condition_odd(p, sigma)
        q = build_pattern(3, (("circle", (1,), ()),))
        with pytest.raises(PreconditionError):
            check_condition_even(q, sigma)

    def test_sigma_domain_must_match(self):
        p = build_pattern(2, (("interval", (1,), (), 0, 0),))
        with pytest.raises(PreconditionError):
            vector_field_exists(p, SignAssignment({"x0": 1}))


def _component_field_ok(comp: Component, sigma: SignAssignment) -> bool:
    """The geometric criterion, stated directly: circles need evenly many
    cusps; an interval needs evenly many exactly when its end signs differ."""
    even = comp.cusp_count % 2 == 0
    if comp.kind == CIRCLE:
        return even
    s0, s1 = (sigma.sign(x) for x in comp.endpoints)
    return even == (s0 != s1)


class TestCuspParity:
    def test_holds_on_concrete_case(self):
        # one interval, no cusps, two boundary points: total cusps 0,
        # so chi must be odd for the law 0 == chi + 1 (mod 2)
        p = build_pattern(2, (("interval", (1,), (), 0, 0),))
        assert cusp_parity_check(p, 1)
        assert not cusp_parity_check(p, 0)

    @pytest.mark.parametrize("stored", [None, 0, 1])
    def test_the_given_chi_decides_whatever_the_pattern_stores(self, stored):
        # two cusps and no boundary: the law holds exactly for even chi_V;
        # the pattern's chi_ambient is the CLI's to read, not the law's
        p = build_pattern(2, (("circle", (1, 1), (0, 0)),),
                          chi_ambient=stored)
        assert cusp_parity_check(p, chi_V=0)
        assert cusp_parity_check(p, -2)
        assert not cusp_parity_check(p, 1)
        with pytest.raises(TypeError):
            cusp_parity_check(p)

    def test_preserved_by_construction_across_enumeration(self):
        # any fixed ambient characteristic of the right parity satisfies
        # the law; the wrong parity never does
        for n in (2, 3):
            for p in patterns_up_to(n, 2, 2):
                k = len(p.boundary_points)
                good = (p.total_cusps - k // 2) % 2
                assert cusp_parity_check(p, good)
                assert not cusp_parity_check(p, good + 1)


class TestAggregates:
    def test_even_identity_across_enumeration(self):
        for n in (2, 4):
            for p in patterns_up_to(n, 2, 2):
                chi_V = (p.total_cusps - len(p.boundary_points) // 2) % 2
                for sigma in sign_assignments(p):
                    lhs, rhs = aggregate_even(p, sigma, chi_V)
                    assert lhs == rhs

    def test_odd_identity_across_enumeration(self):
        for p in patterns_up_to(3, 2, 2):
            for sigma in sign_assignments(p):
                lhs, rhs = aggregate_odd(p, sigma)
                assert lhs == rhs
                # every boundary point is an endpoint exactly once, so the
                # halves always cancel into integers on valid patterns
                assert lhs.denominator == 1

    def test_even_requires_parity_law(self):
        p = build_pattern(2, (("interval", (1,), (), 0, 0),))
        sigma = SignAssignment({"x0": 1, "x1": 1})
        with pytest.raises(PreconditionError):
            aggregate_even(p, sigma, 0)

    def test_odd_concrete_value(self):
        # both endpoints at mu=1 with plus signs: boundary characteristic
        # -2, plus-count -2, so both sides come out +1
        p = build_pattern(3, (("interval", (1,), (), 1, 1),))
        sigma = SignAssignment({"x0": 1, "x1": 1})
        lhs, rhs = aggregate_odd(p, sigma)
        assert lhs == rhs == Fraction(1)


# an odd and an even pattern whose normalization takes several moves
ODD = (3, (("interval", (2,), (), 0, 0), ("interval", (1,), (), 1, 1),
           ("interval", (2, 1), (0,), 0, 1)))
EVEN = (4, (("interval", (3,), (), 0, 0), ("interval", (2,), (), 1, 2),
            ("circle", (2, 2), (1, 1))))


def _all_plus(p: SingularPattern) -> SignAssignment:
    return SignAssignment({bp.id: 1 for bp in p.boundary_points})


class TestReportPerObject:
    """The law check runs at most once per pattern object; its report is
    kept on the object, and nothing is shared between objects."""

    @pytest.fixture()
    def runs(self, monkeypatch):
        seen = []
        check = pat._check_laws

        def counting(p):
            seen.append(p)
            return check(p)

        monkeypatch.setattr(pat, "_check_laws", counting)
        return seen

    def test_every_question_on_one_odd_object_costs_one_run(self, runs):
        p = build_pattern(*ODD)
        sigma = _all_plus(p)
        assert check_condition_odd(p, sigma) == [False, False, True]
        assert not vector_field_exists(p, sigma)
        assert aggregate_odd(p, sigma) == (Fraction(0), Fraction(0))
        out = mv.normalize_odd(p, sigma)
        assert isinstance(out, mv.MoveTrace) and out.initial is p
        assert mv.replay(out) == out.final
        assert validate_pattern(p) is validate_pattern(p)
        assert runs == [p]

    def test_every_question_on_one_even_object_costs_one_run(self, runs):
        p = build_pattern(*EVEN)
        sigma = _all_plus(p)
        check_condition_even(p, sigma)
        vector_field_exists(p, sigma)
        assert aggregate_even(p, sigma, 0) == (0, 0)
        out = mv.normalize_even(p, sigma, 0)
        assert isinstance(out, mv.MoveTrace) and len(out.moves) > 3
        assert mv.replay(out) == out.final
        mv.toggle_parity(p, 0)
        assert runs == [p]

    def test_cli_check_asks_three_questions_for_one_run(self, runs, capsys):
        assert main(["pattern", "check",
                     str(REPO_ROOT / "corpus" / "two_intervals_n2.json"),
                     "--sigma", str(REPO_ROOT / "corpus" / "sigma_pp_pp.json"),
                     "--chi-v", "0"]) == 1  # no normal field
        assert "aggregate_lhs=0" in capsys.readouterr().out
        assert len(runs) == 1

    def test_an_equal_but_distinct_object_gets_its_own_run(self, runs):
        p, q = build_pattern(*ODD), build_pattern(*ODD)
        assert p == q and hash(p) == hash(q) and p is not q
        vector_field_exists(p, _all_plus(p))
        vector_field_exists(q, _all_plus(q))
        assert runs == [p, q] and runs[1] is q
        assert validate_pattern(p) == validate_pattern(q)

    def test_the_report_is_not_a_field(self):
        p = build_pattern(*ODD)
        before = hash(p)
        assert validate_pattern(p).ok
        assert hash(p) == before and p == build_pattern(*ODD)
        assert "_report" not in repr(p)
        assert "_report" not in vars(replace(p))

    def test_a_move_output_is_validated_afresh(self, runs):
        p = build_pattern(*ODD)
        q = mv.create_cusp_pair(p, "a0", 0)
        assert runs == [p] and "_report" not in vars(q)
        r = mv.create_cusp_pair(q, "a1", 1)
        assert runs == [p, q]
        assert validate_pattern(r).ok and runs == [p, q, r]

    @pytest.mark.parametrize("call, message", [
        (lambda p, s: check_condition_odd(p, s),
         "needs odd ambient dimension, got n=4"),
        (lambda p, s: aggregate_odd(p, s),
         "needs odd ambient dimension, got n=4"),
        (lambda p, s: mv.normalize_odd(p, s),
         "needs odd ambient dimension, got n=4"),
        (lambda p, s: mv.merge_components(p, 0, 1),
         "needs odd ambient dimension, got n=4"),
        (lambda p, s: check_condition_even(p, s),
         "sign assignment domain mismatch: missing ['x3'], extra ['y']"),
        (lambda p, s: aggregate_even(p, s, 0),
         "sign assignment domain mismatch: missing ['x3'], extra ['y']"),
        (lambda p, s: mv.normalize_even(p, s, 0),
         "sign assignment domain mismatch: missing ['x3'], extra ['y']"),
        (lambda p, s: aggregate_even(p, _all_plus(p), 1),
         "cusp-parity law fails: 2 cusps vs chi_V=1 and 4 boundary points"),
        (lambda p, s: mv.normalize_even(p, _all_plus(p), 1),
         "cusp-parity law fails: 2 cusps vs chi_V=1 and 4 boundary points"),
    ])
    def test_one_message_per_precondition(self, call, message):
        p = build_pattern(*EVEN)
        sigma = SignAssignment({"x0": 1, "x1": 1, "x2": 1, "y": 1})
        with pytest.raises(PreconditionError) as info:
            call(p, sigma)
        assert str(info.value) == message

    def test_preconditions_are_checked_in_order(self):
        # each call breaks its first precondition and every later one
        p = build_pattern(3, (("interval", (2,), (), 0, 0),))
        bad = replace(p, components=p.components * 2)
        assert not validate_pattern(bad).ok
        wrong = SignAssignment({"y": 1})
        for call in (lambda: mv.normalize_even(bad, wrong, 1),
                     lambda: check_condition_even(bad, wrong),
                     lambda: mv.toggle_parity(bad, 0)):
            with pytest.raises(PreconditionError,
                               match="needs even ambient dimension, got n=3"):
                call()
        with pytest.raises(PreconditionError, match="^invalid pattern: "):
            mv.normalize_odd(bad, wrong)
        with pytest.raises(PreconditionError, match="domain mismatch"):
            mv.normalize_even(build_pattern(*EVEN), wrong, 1)

    @pytest.mark.parametrize("argv, line", [
        (["pattern", "check", "two_intervals_n3.json", "--sigma",
          "sigma_pm.json"],
         "error: sign assignment domain mismatch: missing ['y0', 'y1'], "
         "extra []\n"),
        (["pattern", "normalize", "two_intervals_n2.json", "--sigma",
          "sigma_pp_pp.json", "--chi-v", "1"],
         "error: cusp-parity law fails: 0 cusps vs chi_V=1 and 4 boundary "
         "points\n"),
    ])
    def test_the_cli_prints_one_line_and_exits_2(self, argv, line, capsys):
        argv = [str(REPO_ROOT / "corpus" / a) if a.endswith(".json") else a
                for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == line


NO_CACHE_DECORATORS = {"functools.lru_cache", "functools.cache",
                       "lru_cache", "cache"}


def _global_cache_decorators(source: str) -> list[str]:
    """Names of functools cache decorators applied anywhere in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        for deco in getattr(node, "decorator_list", ()):
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = ast.unparse(target)
            if name in NO_CACHE_DECORATORS:
                found.append(f"{node.name}: @{name}")
    return found


@pytest.mark.parametrize("source, hits", [
    ("import functools\n@functools.lru_cache(maxsize=8)\ndef f(x): ...", 1),
    ("from functools import cache\n@cache\ndef f(x): ...", 1),
    ("class C:\n    @functools.cache\n    def f(self): ...", 1),
    ("class C:\n    @functools.cached_property\n    def f(self): ...", 0),
])
def test_cache_decorator_finder(source, hits):
    assert len(_global_cache_decorators(source)) == hits


def test_the_package_has_no_global_caches():
    found = []
    for path in sorted((REPO_ROOT / "src" / "cuspcobord").glob("*.py")):
        found += [f"{path.name}: {hit}" for hit in
                  _global_cache_decorators(path.read_text(encoding="utf-8"))]
    assert not found, found


def _numpy_imports(source: str) -> list[str]:
    """The lines of source that import numpy or a submodule of it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "numpy" for name in names):
            found.append(f"line {node.lineno}")
    return found


@pytest.mark.parametrize("source, hits", [
    ("import numpy as np", 1),
    ("import math, numpy.linalg", 1),
    ("from numpy import linspace", 1),
    ("def f():\n    import numpy\n    return numpy", 1),
    ("import numpyish\nfrom . import numpy_free", 0),
])
def test_numpy_import_finder(source, hits):
    assert len(_numpy_imports(source)) == hits


def test_only_normal_forms_imports_numpy():
    # all floating point lives in normal_forms, and the CLI (and so its
    # start-up) gets numpy through it
    found = []
    for path in sorted((REPO_ROOT / "src" / "cuspcobord").glob("*.py")):
        hits = _numpy_imports(path.read_text(encoding="utf-8"))
        if path.name == "normal_forms.py":
            assert hits
        else:
            found += [f"{path.name}: {hit}" for hit in hits]
    assert not found, found


def _unslotted_dataclasses(source: str) -> list[str]:
    """Classes in source under @dataclass without slots=True that keep no
    functools.cached_property (which needs an instance dict)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        cached = any(ast.unparse(deco).endswith("cached_property")
                     for item in node.body
                     for deco in getattr(item, "decorator_list", ()))
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            if ast.unparse(target) not in ("dataclass",
                                           "dataclasses.dataclass"):
                continue
            slotted = isinstance(deco, ast.Call) and any(
                k.arg == "slots" and ast.literal_eval(k.value) is True
                for k in deco.keywords)
            if not (slotted or cached):
                found.append(node.name)
    return found


@pytest.mark.parametrize("source, hits", [
    ("@dataclass(frozen=True)\nclass A:\n    x: int", 1),
    ("@dataclasses.dataclass\nclass A:\n    x: int", 1),
    ("@dataclass(frozen=True, slots=False)\nclass A:\n    x: int", 1),
    ("@dataclass(frozen=True, slots=True)\nclass A:\n    x: int", 0),
    ("@dataclass(frozen=True)\nclass A:\n    @functools.cached_property\n"
     "    def f(self): ...", 0),
    ("class A:\n    x: int", 0),
])
def test_unslotted_dataclass_finder(source, hits):
    assert len(_unslotted_dataclasses(source)) == hits


def test_every_package_dataclass_without_a_cache_is_slotted():
    found = []
    for path in sorted((REPO_ROOT / "src" / "cuspcobord").glob("*.py")):
        found += [f"{path.name}: {name}" for name in
                  _unslotted_dataclasses(path.read_text(encoding="utf-8"))]
    assert not found, found


@pytest.mark.parametrize("obj", [
    FoldArc("a0", 1), Cusp("c0", 0), mv.Move("create_cusp_pair", {}),
    BoundaryCriticalPoint("x0", 0, 1)], ids=lambda obj: type(obj).__name__)
def test_pattern_elements_moves_and_points_carry_no_instance_dict(obj):
    assert not hasattr(obj, "__dict__")


def _top_level_names(source: str) -> set[str]:
    """The names that source defines itself at module level: functions,
    classes and assignment targets, not imports."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign):
            names.add(node.target.id)
    return names


@pytest.mark.parametrize("source, names", [
    ("def f(): ...\nclass C: ...\nX = Y = 1\nZ: int = 2",
     {"f", "C", "X", "Y", "Z"}),
    ("from .moves import replay\nimport json as W", set()),
])
def test_top_level_name_finder(source, names):
    assert _top_level_names(source) == names


def test_the_package_root_binds_only_its_submodules():
    # one spelling per name: cuspcobord.moves.replay, not cuspcobord.replay
    root = REPO_ROOT / "src" / "cuspcobord"
    init = ast.parse((root / "__init__.py").read_text(encoding="utf-8"))
    assert not [node for node in init.body
                if isinstance(node, (ast.Import, ast.ImportFrom))]
    import cuspcobord
    submodules = {path.stem for path in root.glob("*.py")}
    for name in sorted(submodules - {"__init__"}):
        importlib.import_module(f"cuspcobord.{name}")
    public = {name for name in vars(cuspcobord) if not name.startswith("_")}
    assert public <= submodules, sorted(public - submodules)
    assert not hasattr(cuspcobord, "__version__")


def test_each_module_exports_only_what_it_defines():
    found = []
    for path in sorted((REPO_ROOT / "src" / "cuspcobord").glob("*.py")):
        if path.stem == "__init__":
            continue  # bound by the test above
        module = importlib.import_module(f"cuspcobord.{path.stem}")
        own = _top_level_names(path.read_text(encoding="utf-8"))
        found += [f"{path.name}: {name}"
                  for name in getattr(module, "__all__", ()) if name not in own]
    assert not found, found


def test_the_readme_library_table_lists_each_modules_all():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `cuspcobord\.(\w+)` \|[^|]*\| (.*) \|$", readme,
                      re.MULTILINE)
    listed = {module: re.findall(r"`(\w+)`", cell) for module, cell in rows}
    exported = {path.stem: importlib.import_module(
        f"cuspcobord.{path.stem}").__all__
        for path in (REPO_ROOT / "src" / "cuspcobord").glob("*.py")
        if path.stem != "__init__"}
    assert listed == exported


def _referenced_names(source: str) -> set[str]:
    """The names that source's code references: loaded names, attributes
    and imported names.  A string, as in ``__all__``, is no reference."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("source, names", [
    ("f(x.g)\nfrom .m import h\nimport k", {"f", "x", "g", "h", "k"}),
    ("def f(): ...\nv = 1\n__all__ = ['f', 'w']", set()),
])
def test_reference_finder(source, names):
    assert _referenced_names(source) == names


def _kept_table(readme: str) -> set[str]:
    """module.name of each name in the README's table of names kept with no
    caller; a bare name is of the module named before it in its cell."""
    table = readme.split("Names with no caller under `src/`")[1].split(
        "\n\n")[1]
    kept, module = set(), ""
    for cell in re.findall(r"^\| (`.*?) \|", table, re.MULTILINE):
        for name in re.findall(r"`([\w.]+)`", cell):
            if "." in name:
                module, name = name.split(".")
            kept.add(f"{module}.{name}")
    return kept


def test_a_public_name_without_a_caller_is_in_the_kept_table():
    # the README's keep rule: a public name stays when code under src/
    # references it, or when the kept table says what it states
    paths = sorted((REPO_ROOT / "src" / "cuspcobord").glob("*.py"))
    referenced = set().union(*(_referenced_names(
        path.read_text(encoding="utf-8")) for path in paths))
    unreferenced = {
        f"{path.stem}.{name}" for path in paths if path.stem != "__init__"
        for name in importlib.import_module(f"cuspcobord.{path.stem}").__all__
        if name not in referenced}
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert unreferenced == _kept_table(readme)
