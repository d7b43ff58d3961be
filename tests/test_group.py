"""Group structure: generators, cobordance decisions, sign-assignment solvers."""

import random
from itertools import product

import pytest

from cuspcobord.errors import PreconditionError
from cuspcobord.group import (
    NoSolution,
    generator,
    is_cobordant,
    solve_sigma_for_target,
)
from cuspcobord.invariants import (
    CobordismClass,
    SignAssignment,
    chi_plus_sigma,
    cobordism_invariant,
)
from cuspcobord.morse import (
    BoundaryCriticalPoint,
    MorseDescriptor,
    disjoint_union,
    reverse,
    validate,
)

from _enumeration import random_descriptor


class TestGenerator:
    def test_shape(self):
        d = generator(3)
        assert validate(d).ok
        assert d.chi_M == 1
        assert [(p.mu, p.sigma) for p in d.boundary] == [(0, 1), (2, 1)]

    def test_invariant_values(self):
        # frozen: 1 - (1 + (-1)^(n-1)) is 1 for even n and -1 for odd n
        for n in (2, 4, 6):
            assert cobordism_invariant(generator(n)) == CobordismClass.of(n, 1)
        for n in (3, 5, 7):
            assert cobordism_invariant(generator(n)) == CobordismClass.of(n, -1)

    def test_generates_even_group(self):
        g = generator(2)
        double = disjoint_union(g, g)
        assert is_cobordant(double, MorseDescriptor.empty(2))

    def test_generates_odd_group(self):
        g = generator(3)
        total = MorseDescriptor.empty(3)
        for k in range(1, 4):
            total = disjoint_union(total, g)
            assert cobordism_invariant(total).value == -k

    def test_reversal_gives_the_inverse_class(self):
        for n in (2, 3, 4, 5):
            g = generator(n)
            both = disjoint_union(g, reverse(g))
            assert is_cobordant(both, MorseDescriptor.empty(n))

    def test_dimension_below_two_rejected(self):
        with pytest.raises(PreconditionError):
            generator(1)


class TestIsCobordant:
    def test_equivalence_relation_on_samples(self):
        rng = random.Random(5)
        for n in (2, 3):
            ds = [random_descriptor(n, rng) for _ in range(8)]
            for a in ds:
                assert is_cobordant(a, a)
                for b in ds:
                    assert is_cobordant(a, b) == is_cobordant(b, a)
                    assert is_cobordant(a, b) == (
                        cobordism_invariant(a) == cobordism_invariant(b))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            is_cobordant(MorseDescriptor.empty(2), MorseDescriptor.empty(4))


class TestSolver:
    def test_finds_assignment_hitting_target(self):
        pts = (BoundaryCriticalPoint("x0", 0, 1),
               BoundaryCriticalPoint("x1", 1, 1),
               BoundaryCriticalPoint("x2", 2, 1),
               BoundaryCriticalPoint("x3", 1, 1))
        for value in (-2, -1, 0, 1, 2):
            target = CobordismClass.of(3, value)
            got = solve_sigma_for_target(pts, 3, 1, target)
            if isinstance(got, NoSolution):
                continue
            cp = chi_plus_sigma(pts, got)
            assert 1 - cp == value

    def test_exhaustive_matches_attainable_set(self):
        # every boundary of up to 5 points at n = 2..5, listed against id
        # order, under chi_M = -2..2, against the chi_plus of every sign
        # assignment
        for n in range(2, 6):
            for k in range(6):
                for mus in product(range(n), repeat=k):
                    pts = tuple(BoundaryCriticalPoint(f"x{j}", mu, 1) for
                                j, mu in reversed(list(enumerate(mus))))
                    cps = {sum((-1) ** mu for mu, s in zip(mus, signs)
                               if s == 1)
                           for signs in product((1, -1), repeat=k)}
                    for chi_M in range(-2, 3):
                        self._check_solver(pts, mus, n, chi_M, cps)

    @staticmethod
    def _check_solver(pts, mus, n, chi_M, cps):
        value_of = {cp: CobordismClass.of(n, chi_M - cp).value for cp in cps}
        attainable = set(value_of.values())
        for v in sorted(attainable) + [min(attainable) - 1,
                                       max(attainable) + 1]:
            target = CobordismClass.of(n, v)
            got = solve_sigma_for_target(pts, n, chi_M, target)
            if target.value not in attainable:
                assert got == NoSolution(target, tuple(sorted(attainable)))
                continue
            cp = chi_plus_sigma(pts, got)
            assert CobordismClass.of(n, chi_M - cp) == target
            assert cp == min(c for c in value_of
                             if value_of[c] == target.value)
            # +1 on the first |cp| points by id whose index parity moves
            # chi_plus towards cp
            parity = 0 if cp >= 0 else 1
            first = [f"x{j}" for j, mu in enumerate(mus)
                     if mu % 2 == parity][:abs(cp)]
            assert {p.id for p in pts if got.sign(p.id) == 1} == set(first)

    def test_no_solution_reports_attainable_values(self):
        got = solve_sigma_for_target((), 3, 1, CobordismClass.of(3, 5))
        assert isinstance(got, NoSolution)
        assert got.attainable == (1,)

    def test_large_boundary_uses_direct_construction(self):
        pts = tuple(BoundaryCriticalPoint(f"x{k}", k % 3, 1)
                    for k in range(24))
        target = CobordismClass.of(3, -4)
        got = solve_sigma_for_target(pts, 3, 1, target)
        assert isinstance(got, SignAssignment)
        assert 1 - chi_plus_sigma(pts, got) == -4

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            solve_sigma_for_target((), 2, 0, CobordismClass.of(3, 0))
