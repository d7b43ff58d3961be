"""Finite descriptors of Morse functions on compact manifolds with boundary.

A descriptor records the ambient dimension, the Euler characteristics of the
manifold and of its boundary, and the critical-point data of a function that
is Morse both in the interior and after restriction to the boundary.  Each
boundary critical point carries its Morse index ``mu`` (as a critical point
of the restriction) and a sign ``sigma``: +1 if the function increases into
the manifold at that point, -1 if it decreases.

Only this finite data enters the invariants computed elsewhere, so two
functions with the same descriptor are indistinguishable to this package.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .errors import PreconditionError

__all__ = [
    "BoundaryCriticalPoint",
    "InteriorCriticalPoint",
    "MorseDescriptor",
    "Violation",
    "ValidationReport",
    "validate",
    "disjoint_union",
    "reverse",
    "euler_boundary_sum",
]


@dataclass(frozen=True, slots=True)
class BoundaryCriticalPoint:
    """Critical point of the restriction to the boundary."""

    id: str
    mu: int
    sigma: int
    value: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if (isinstance(self.sigma, bool) or not isinstance(self.sigma, int)
                or self.sigma not in (1, -1)):
            raise ValueError(f"sigma must be +1 or -1, got {self.sigma!r}")


@dataclass(frozen=True, slots=True)
class InteriorCriticalPoint:
    """Interior critical point with its Morse index."""

    id: str
    index: int
    value: Optional[Fraction] = None


@dataclass(frozen=True)
class MorseDescriptor:
    """Combinatorial shadow of a Morse function on a compact n-manifold."""

    n: int
    oriented: bool
    chi_M: int
    chi_boundary: int
    interior: tuple[InteriorCriticalPoint, ...] = ()
    boundary: tuple[BoundaryCriticalPoint, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"ambient dimension must be >= 2, got {self.n}")

    @classmethod
    def empty(cls, n: int) -> "MorseDescriptor":
        """Descriptor of the empty manifold (unit for disjoint union)."""
        return cls(n=n, oriented=True, chi_M=0, chi_boundary=0)

    @functools.cached_property
    def _report(self) -> "ValidationReport":
        # kept on the object, outside the fields: equality and hashing
        # ignore it, and a descriptor built by replace() starts without one
        return _check_laws(self)


@dataclass(frozen=True, slots=True)
class Violation:
    code: str
    message: str


@dataclass(frozen=True, slots=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> tuple[str, ...]:
        return tuple(v.code for v in self.violations)

    def require(self, what: str) -> None:
        """Raise PreconditionError naming every violation, if there is one."""
        if self.violations:
            raise PreconditionError(
                f"invalid {what}: "
                + "; ".join(v.message for v in self.violations))


def euler_boundary_sum(boundary: tuple[BoundaryCriticalPoint, ...]) -> int:
    """Alternating count of boundary critical points, sum of (-1)^mu."""
    return sum((-1) ** p.mu for p in boundary)


def validate(d: MorseDescriptor) -> ValidationReport:
    """Check the internal consistency laws of a descriptor.

    Never raises: every violated law is reported with the offending
    quantity so callers can decide what to do.  The report is computed once
    per descriptor object and kept on it, so a caller asking several
    questions of one descriptor pays for one check.
    """
    return d._report


def _check_laws(d: MorseDescriptor) -> ValidationReport:
    out: list[Violation] = []

    for p in d.interior:
        if not 0 <= p.index <= d.n:
            out.append(Violation(
                "interior-index-range",
                f"interior point {p.id!r} has index {p.index}, "
                f"outside [0, {d.n}]"))
    for p in d.boundary:
        if not 0 <= p.mu <= d.n - 1:
            out.append(Violation(
                "boundary-index-range",
                f"boundary point {p.id!r} has mu={p.mu}, "
                f"outside [0, {d.n - 1}]"))

    ids = [p.id for p in d.interior] + [p.id for p in d.boundary]
    seen: set[str] = set()
    for pid in ids:
        if pid in seen:
            out.append(Violation("duplicate-id", f"id {pid!r} used twice"))
        seen.add(pid)

    total = euler_boundary_sum(d.boundary)
    if d.chi_boundary != total:
        out.append(Violation(
            "chi-boundary-sum",
            f"chi_boundary={d.chi_boundary} but the alternating count of "
            f"boundary critical points is {total}"))
    if d.chi_boundary % 2 != 0:
        out.append(Violation(
            "chi-boundary-odd",
            f"chi_boundary={d.chi_boundary} is odd; the boundary of a "
            f"compact manifold is closed and odd-dimensional or "
            f"even-dimensional with even Euler characteristic"))
    if len(d.boundary) % 2 != 0:
        out.append(Violation(
            "boundary-count-odd",
            f"{len(d.boundary)} boundary critical points; the count must "
            f"be even"))
    if d.n % 2 == 1 and 2 * d.chi_M != d.chi_boundary:
        out.append(Violation(
            "odd-dimension-chi",
            f"n={d.n} is odd so chi_M must equal chi_boundary/2, but "
            f"chi_M={d.chi_M} and chi_boundary={d.chi_boundary}"))
    if d.n % 2 == 0 and d.chi_boundary != 0:
        out.append(Violation(
            "even-dimension-chi-boundary",
            f"n={d.n} is even so the boundary is closed and odd-dimensional "
            f"with Euler characteristic 0, but chi_boundary={d.chi_boundary}"))

    return ValidationReport(tuple(out))


def disjoint_union(d1: MorseDescriptor, d2: MorseDescriptor) -> MorseDescriptor:
    """Descriptor of the disjoint union, relabeling colliding ids from d2."""
    if d1.n != d2.n:
        raise PreconditionError(
            f"dimension mismatch: {d1.n} vs {d2.n}")

    used = {p.id for p in d1.interior} | {p.id for p in d1.boundary}

    def relabel(pid: str) -> str:
        if pid not in used:
            used.add(pid)
            return pid
        k = 2
        while f"{pid}~{k}" in used:
            k += 1
        fresh = f"{pid}~{k}"
        used.add(fresh)
        return fresh

    interior = d1.interior + tuple(
        replace(p, id=relabel(p.id)) for p in d2.interior)
    boundary = d1.boundary + tuple(
        replace(p, id=relabel(p.id)) for p in d2.boundary)
    return MorseDescriptor(
        n=d1.n,
        oriented=d1.oriented and d2.oriented,
        chi_M=d1.chi_M + d2.chi_M,
        chi_boundary=d1.chi_boundary + d2.chi_boundary,
        interior=interior,
        boundary=boundary,
    )


def reverse(d: MorseDescriptor) -> MorseDescriptor:
    """Descriptor of the negated function on the orientation-reversed manifold.

    Interior indices flip i -> n - i, boundary data flips
    (mu, sigma) -> (n - 1 - mu, -sigma), and critical values are negated.
    chi_M is unchanged (same manifold); chi_boundary, being the alternating
    count of the boundary points, picks up the factor (-1)^(n-1) that the
    index flip applies to each summand.  On realizable data with even n the
    boundary is odd-dimensional, so chi_boundary is zero and the factor is
    invisible.
    """
    validate(d).require("descriptor")
    interior = tuple(
        InteriorCriticalPoint(p.id, d.n - p.index,
                              None if p.value is None else -p.value)
        for p in d.interior)
    boundary = tuple(
        BoundaryCriticalPoint(p.id, d.n - 1 - p.mu, -p.sigma,
                              None if p.value is None else -p.value)
        for p in d.boundary)
    return MorseDescriptor(
        n=d.n,
        oriented=d.oriented,
        chi_M=d.chi_M,
        chi_boundary=(-1) ** (d.n - 1) * d.chi_boundary,
        interior=interior,
        boundary=boundary,
    )
