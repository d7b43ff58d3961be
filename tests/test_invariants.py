"""The plus-signed count, the defect identity, and the complete invariant."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cuspcobord.errors import PreconditionError
from cuspcobord.invariants import (
    CobordismClass,
    SignAssignment,
    chi_plus,
    chi_plus_sigma,
    cobordism_invariant,
    signed_defect,
)
from cuspcobord.morse import (
    BoundaryCriticalPoint,
    MorseDescriptor,
    disjoint_union,
    euler_boundary_sum,
    reverse,
)
from cuspcobord.serialize import descriptor_from_json

from _enumeration import random_descriptor

REPO = Path(__file__).resolve().parent.parent


def load(name):
    with open(REPO / "corpus" / name, encoding="utf-8") as fh:
        return descriptor_from_json(json.load(fh))


def bp(pid, mu, sigma=1):
    return BoundaryCriticalPoint(pid, mu, sigma)


class TestChiPlus:
    # frozen oracle values: by definition chi_plus sums (-1)^mu over the
    # points whose sign is +1, so both cases below are two-line hand sums
    def test_two_points_opposite_signs(self):
        d = load("fig1.json")
        assert chi_plus(d) == 1

    def test_two_points_same_sign(self):
        d = load("fig2.json")
        assert chi_plus(d) == 0

    def test_empty_boundary(self):
        assert chi_plus(MorseDescriptor.empty(2)) == 0

    def test_explicit_assignment_overrides_stored_signs(self):
        pts = (bp("x0", 0, -1), bp("x1", 1, -1))
        sigma = SignAssignment({"x0": 1, "x1": 1})
        assert chi_plus_sigma(pts, sigma) == 0
        flipped = SignAssignment({"x0": 1, "x1": -1})
        assert chi_plus_sigma(pts, flipped) == 1

    def test_assignment_domain_must_match(self):
        pts = (bp("x0", 0), bp("x1", 1))
        with pytest.raises(PreconditionError):
            chi_plus_sigma(pts, SignAssignment({"x0": 1}))
        with pytest.raises(PreconditionError):
            chi_plus_sigma(pts, SignAssignment({"x0": 1, "x1": 1, "z": 1}))


class TestSignedDefect:
    def test_single_pair_all_assignments(self):
        pts = (bp("x0", 0), bp("x1", 1))
        chi_P = euler_boundary_sum(pts)
        for s0 in (1, -1):
            for s1 in (1, -1):
                sigma = SignAssignment({"x0": s0, "x1": s1})
                lhs, rhs = signed_defect(chi_P, pts, sigma)
                assert lhs == rhs

    def test_half_integer_values_occur(self):
        pts = (bp("x0", 0), bp("x1", 0))
        sigma = SignAssignment({"x0": 1, "x1": -1})
        lhs, rhs = signed_defect(2, pts, sigma)
        assert lhs == rhs == Fraction(0)
        sigma = SignAssignment({"x0": -1, "x1": -1})
        lhs, rhs = signed_defect(2, pts, sigma)
        assert lhs == rhs == Fraction(1)

    def test_mismatched_chi_rejected(self):
        pts = (bp("x0", 0), bp("x1", 0))
        with pytest.raises(PreconditionError):
            signed_defect(0, pts, SignAssignment({"x0": 1, "x1": 1}))

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                              st.sampled_from((1, -1))), max_size=6))
    def test_identity_holds_for_random_data(self, rows):
        pts = tuple(bp(f"x{k}", mu) for k, (mu, _) in enumerate(rows))
        sigma = SignAssignment(
            {f"x{k}": s for k, (_, s) in enumerate(rows)})
        lhs, rhs = signed_defect(euler_boundary_sum(pts), pts, sigma)
        assert lhs == rhs


class TestSignAssignment:
    def test_a_sign_other_than_plus_or_minus_one_is_refused(self):
        with pytest.raises(ValueError) as exc:
            SignAssignment({"x0": 2})
        assert str(exc.value) == "sign for 'x0' must be +1 or -1, got 2"


class TestCobordismClass:
    def test_even_dimension_reduces_mod_two(self):
        assert CobordismClass.of(2, 5).value == 1
        assert CobordismClass.of(2, -4).value == 0

    def test_odd_dimension_keeps_integers(self):
        assert CobordismClass.of(3, -7).value == -7

    def test_addition_and_negation(self):
        a = CobordismClass.of(3, 2)
        b = CobordismClass.of(3, -5)
        assert (a + b).value == -3
        assert (-a).value == -2
        assert (a - b).value == 7
        z2 = CobordismClass.of(2, 1)
        assert (z2 + z2).value == 0

    def test_even_dimension_refuses_an_unreduced_value(self):
        with pytest.raises(ValueError, match="^even-dimensional classes live "
                                             "in Z/2; got value 3$"):
            CobordismClass(2, 3)

    def test_adding_a_non_class_is_a_type_error(self):
        with pytest.raises(TypeError) as exc:
            CobordismClass.of(2, 1) + 1
        assert str(exc.value) == ("unsupported operand type(s) for +: "
                                  "'CobordismClass' and 'int'")

    def test_cross_dimension_addition_rejected(self):
        with pytest.raises(PreconditionError):
            CobordismClass.of(2, 1) + CobordismClass.of(3, 1)

    def test_group_names(self):
        assert CobordismClass.of(2, 0).group == "Z/2"
        assert CobordismClass.of(3, 0).group == "Z"


class TestInvariant:
    def test_corpus_values(self):
        # frozen: chi_M - chi_plus, reduced per dimension parity
        assert cobordism_invariant(load("fig1.json")).value == 0
        assert cobordism_invariant(load("fig2.json")).value == 1
        assert cobordism_invariant(load("empty.json")).value == 0
        assert cobordism_invariant(load("d3_generator.json")).value == -1

    def test_additive_under_disjoint_union(self):
        rng = random.Random(11)
        for n in (2, 3):
            for _ in range(50):
                d1 = random_descriptor(n, rng, prefix="a")
                d2 = random_descriptor(n, rng, prefix="b")
                u = disjoint_union(d1, d2)
                assert cobordism_invariant(u) == (
                    cobordism_invariant(d1) + cobordism_invariant(d2))

    def test_negated_under_reversal(self):
        rng = random.Random(12)
        for n in (2, 3):
            for _ in range(50):
                d = random_descriptor(n, rng)
                assert cobordism_invariant(reverse(d)) == (
                    -cobordism_invariant(d))

    def test_invalid_descriptor_rejected(self):
        d = MorseDescriptor(n=2, oriented=True, chi_M=0, chi_boundary=1,
                            boundary=(bp("x0", 0),))
        with pytest.raises(PreconditionError):
            cobordism_invariant(d)
