"""Descriptor model: validation laws, reversal, disjoint union."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cuspcobord import morse
from cuspcobord.cli import main
from cuspcobord.errors import PreconditionError
from cuspcobord.invariants import chi_plus, cobordism_invariant
from cuspcobord.morse import (
    BoundaryCriticalPoint,
    InteriorCriticalPoint,
    MorseDescriptor,
    disjoint_union,
    euler_boundary_sum,
    reverse,
    validate,
)

from _corpus import REPO_ROOT
from _enumeration import random_descriptor

import random


def bp(pid, mu, sigma=1, value=None):
    return BoundaryCriticalPoint(pid, mu, sigma, value)


def make(n=2, chi_M=1, boundary=(), interior=(), oriented=True):
    chi_b = euler_boundary_sum(tuple(boundary))
    return MorseDescriptor(n=n, oriented=oriented, chi_M=chi_M,
                           chi_boundary=chi_b, interior=tuple(interior),
                           boundary=tuple(boundary))


class TestValidation:
    def test_empty_descriptor_is_valid(self):
        assert validate(MorseDescriptor.empty(2)).ok
        assert validate(MorseDescriptor.empty(5)).ok

    def test_two_point_boundary_is_valid(self):
        d = make(boundary=[bp("x0", 0), bp("x1", 1, -1)])
        assert validate(d).ok

    def test_interior_index_out_of_range(self):
        d = make(interior=[InteriorCriticalPoint("p", 3)])
        assert "interior-index-range" in validate(d).codes()

    def test_boundary_index_out_of_range(self):
        d = make(boundary=[bp("x0", 2), bp("x1", 0)])
        assert "boundary-index-range" in validate(d).codes()

    def test_duplicate_ids_flagged(self):
        d = make(boundary=[bp("x0", 0), bp("x0", 1)])
        assert "duplicate-id" in validate(d).codes()

    def test_chi_boundary_must_match_alternating_count(self):
        d = MorseDescriptor(n=2, oriented=True, chi_M=0, chi_boundary=2,
                            boundary=(bp("x0", 0), bp("x1", 1)))
        assert "chi-boundary-sum" in validate(d).codes()

    def test_odd_boundary_count_flagged(self):
        d = MorseDescriptor(n=2, oriented=True, chi_M=0, chi_boundary=1,
                            boundary=(bp("x0", 0),))
        codes = validate(d).codes()
        assert "boundary-count-odd" in codes
        assert "chi-boundary-odd" in codes

    def test_odd_dimension_ties_chi_M_to_half_boundary(self):
        d = MorseDescriptor(n=3, oriented=True, chi_M=0, chi_boundary=2,
                            boundary=(bp("x0", 0), bp("x1", 2)))
        assert "odd-dimension-chi" in validate(d).codes()

    def test_even_dimension_has_boundary_euler_characteristic_zero(self):
        # two boundary minima: the count is consistent but not realizable,
        # since the boundary of an even-dimensional manifold is closed and
        # odd-dimensional
        d = make(n=2, boundary=[bp("x0", 0), bp("x1", 0)])
        assert d.chi_boundary == 2
        assert validate(d).codes() == ("even-dimension-chi-boundary",)
        assert validate(make(n=4, boundary=[bp("x0", 1), bp("x1", 2)])).ok
        assert validate(make(n=3, chi_M=1,
                             boundary=[bp("x0", 0), bp("x1", 2)])).ok

    def test_require_names_every_violation(self):
        d = make(n=2, boundary=[bp("x0", 0), bp("x0", 0)])
        with pytest.raises(PreconditionError,
                           match=r"^invalid descriptor: id 'x0' used twice; "
                                 r"n=2 is even"):
            validate(d).require("descriptor")
        validate(make()).require("descriptor")

    def test_dimension_below_two_rejected_at_construction(self):
        with pytest.raises(ValueError):
            MorseDescriptor(n=1, oriented=True, chi_M=0, chi_boundary=0)

    def test_sigma_must_be_unit(self):
        with pytest.raises(ValueError):
            BoundaryCriticalPoint("x", 0, 0)

    def test_a_boolean_sigma_is_refused(self):
        with pytest.raises(ValueError) as exc:
            BoundaryCriticalPoint("x0", 0, True)
        assert str(exc.value) == "sigma must be +1 or -1, got True"


class TestReverse:
    def test_reverse_flips_indices_and_signs(self):
        d = make(n=4, boundary=[bp("x0", 0, 1), bp("x1", 3, -1)],
                 interior=[InteriorCriticalPoint("p", 1)])
        r = reverse(d)
        assert [(p.mu, p.sigma) for p in r.boundary] == [(3, -1), (0, 1)]
        assert [p.index for p in r.interior] == [3]
        assert r.chi_M == d.chi_M and r.chi_boundary == d.chi_boundary
        # the orientation-reversed copy of an oriented manifold is oriented
        assert r.oriented == d.oriented

    def test_reverse_is_an_involution_up_to_orientation(self):
        rng = random.Random(7)
        for n in (2, 3, 4):
            for _ in range(25):
                d = random_descriptor(n, rng)
                rr = reverse(reverse(d))
                assert rr == d

    def test_reverse_negates_critical_values(self):
        d = make(boundary=[bp("x0", 0, 1, Fraction(1, 2)),
                           bp("x1", 1, 1, Fraction(-3))])
        r = reverse(d)
        assert [p.value for p in r.boundary] == [Fraction(-1, 2), Fraction(3)]

    def test_reverse_requires_valid_input(self):
        d = make(boundary=[bp("x0", 0), bp("x0", 1)])
        with pytest.raises(PreconditionError):
            reverse(d)


class TestDisjointUnion:
    def test_adds_euler_characteristics(self):
        d1 = make(chi_M=1, boundary=[bp("x0", 0), bp("x1", 1)])
        d2 = make(chi_M=2, boundary=[bp("y0", 0), bp("y1", 0)])
        u = disjoint_union(d1, d2)
        assert u.chi_M == 3
        assert u.chi_boundary == d1.chi_boundary + d2.chi_boundary
        assert len(u.boundary) == 4

    def test_relabels_colliding_ids(self):
        d1 = make(boundary=[bp("x0", 0), bp("x1", 1)])
        d2 = make(boundary=[bp("x0", 0), bp("x1", 1)])
        u = disjoint_union(d1, d2)
        ids = [p.id for p in u.boundary]
        assert len(set(ids)) == 4
        assert ids[:2] == ["x0", "x1"]
        assert validate(u).ok

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            disjoint_union(MorseDescriptor.empty(2), MorseDescriptor.empty(3))

    def test_empty_is_a_unit(self):
        d = make(boundary=[bp("x0", 0), bp("x1", 1, -1)])
        assert disjoint_union(d, MorseDescriptor.empty(2)) == d

    def test_oriented_only_if_both_are(self):
        d1 = make(oriented=True)
        d2 = make(oriented=False)
        assert not disjoint_union(d1, d2).oriented


@given(st.lists(st.integers(min_value=0, max_value=5), max_size=8))
def test_euler_boundary_sum_is_alternating_count(mus):
    pts = tuple(bp(f"x{k}", mu) for k, mu in enumerate(mus))
    even = sum(1 for mu in mus if mu % 2 == 0)
    odd = len(mus) - even
    assert euler_boundary_sum(pts) == even - odd


class TestReportPerObject:
    """The law check runs at most once per descriptor object; its report is
    kept on the object, and nothing is shared between objects."""

    @pytest.fixture()
    def runs(self, monkeypatch):
        seen = []
        check = morse._check_laws

        def counting(d):
            seen.append(d)
            return check(d)

        monkeypatch.setattr(morse, "_check_laws", counting)
        return seen

    def test_every_question_on_one_object_costs_one_run(self, runs):
        d = make(2, 1, (bp("x0", 0, 1), bp("x1", 1, -1)))
        assert chi_plus(d) == 1
        assert cobordism_invariant(d).value == 0
        assert validate(d) is validate(d)
        assert reverse(d) != d
        assert runs == [d]

    @pytest.mark.parametrize("argv, count", [
        (["invariant", "fig2.json"], 1),
        (["extendable", "d3_sigma_pm.json"], 1),
        (["cobordant", "fig2.json", "fig2_reverse.json"], 2),
    ])
    def test_cli_runs_the_laws_once_per_file(self, argv, count, runs,
                                             capsys):
        argv = [argv[0]] + [str(REPO_ROOT / "corpus" / a) for a in argv[1:]]
        assert main(argv) in (0, 1)
        capsys.readouterr()
        assert len(runs) == count

    def test_an_equal_but_distinct_object_gets_its_own_run(self, runs):
        d, e = make(), make()
        assert d == e and hash(d) == hash(e) and d is not e
        cobordism_invariant(d)
        cobordism_invariant(e)
        assert runs == [d, e] and runs[1] is e
        assert validate(d) == validate(e)

    def test_the_report_is_not_a_field(self):
        d = make()
        before = hash(d)
        assert validate(d).ok
        assert hash(d) == before and d == make()
        assert dataclasses.replace(d, chi_M=0).__dict__.get("_report") is None

    def test_an_invalid_descriptor_is_refused_by_every_question(self, runs):
        d = make(2, 1, (bp("x0", 0),))
        for question in (chi_plus, cobordism_invariant, reverse):
            with pytest.raises(PreconditionError, match="invalid descriptor"):
                question(d)
        assert runs == [d]
