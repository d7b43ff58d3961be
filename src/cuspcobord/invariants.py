"""Numerical invariants of Morse descriptors.

The central quantity is the positively-signed alternating count
``chi_plus``: the alternating sum, over boundary critical points where the
function increases inward (sigma = +1), of (-1)^mu.  The difference
``chi_M - chi_plus`` is a complete cobordism invariant; it lives in Z/2 for
even ambient dimension and in Z for odd.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import PreconditionError
from .morse import (
    BoundaryCriticalPoint,
    MorseDescriptor,
    euler_boundary_sum,
    validate,
)

__all__ = [
    "SignAssignment",
    "CobordismClass",
    "chi_plus",
    "chi_plus_sigma",
    "signed_defect",
    "cobordism_invariant",
]


@dataclass(frozen=True, slots=True)
class SignAssignment:
    """A choice of sign (+1/-1) for each boundary critical point, keyed by id."""

    entries: Mapping[str, int]

    def __post_init__(self) -> None:
        for pid, s in self.entries.items():
            if (isinstance(s, bool) or not isinstance(s, int)
                    or s not in (1, -1)):
                raise ValueError(f"sign for {pid!r} must be +1 or -1, got {s!r}")

    def sign(self, point_id: str) -> int:
        return self.entries[point_id]

    def domain(self) -> frozenset[str]:
        return frozenset(self.entries)


def _integer(value: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"value must be an integer, got {value!r}")
    return value


@dataclass(frozen=True, slots=True)
class CobordismClass:
    """Element of the cobordism group of Morse functions in dimension n.

    The group is Z/2 for even n (value normalized to {0, 1}) and Z for
    odd n.  Addition only makes sense at equal dimension.
    """

    n: int
    value: int

    def __post_init__(self) -> None:
        _integer(self.value)
        if self.n % 2 == 0 and self.value not in (0, 1):
            raise ValueError(
                f"even-dimensional classes live in Z/2; got value {self.value}")

    @classmethod
    def of(cls, n: int, value: int) -> "CobordismClass":
        """Build a class, reducing mod 2 in even dimension."""
        return cls(n, _integer(value) % 2 if n % 2 == 0 else value)

    @property
    def group(self) -> str:
        return "Z/2" if self.n % 2 == 0 else "Z"

    def __add__(self, other: "CobordismClass") -> "CobordismClass":
        if not isinstance(other, CobordismClass):
            return NotImplemented
        if self.n != other.n:
            raise PreconditionError(
                f"cannot add classes of dimension {self.n} and {other.n}")
        return CobordismClass.of(self.n, self.value + other.value)

    def __neg__(self) -> "CobordismClass":
        return CobordismClass.of(self.n, -self.value)

    def __sub__(self, other: "CobordismClass") -> "CobordismClass":
        return self + (-other)


def chi_plus(d: MorseDescriptor) -> int:
    """Alternating count of inward-increasing boundary critical points."""
    validate(d).require("descriptor")
    return sum((-1) ** p.mu for p in d.boundary if p.sigma == 1)


def _require_domain(boundary: tuple[BoundaryCriticalPoint, ...],
                    sigma: SignAssignment) -> None:
    """Raise unless the assignment covers exactly the given points."""
    ids = {p.id for p in boundary}
    if sigma.entries.keys() != ids:
        missing = sorted(ids - sigma.domain())
        extra = sorted(sigma.domain() - ids)
        raise PreconditionError(
            f"sign assignment domain mismatch: missing {missing}, extra {extra}")


def _chi_plus_sigma(boundary: tuple[BoundaryCriticalPoint, ...],
                    sigma: SignAssignment) -> int:
    return sum((-1) ** p.mu for p in boundary if sigma.sign(p.id) == 1)


def chi_plus_sigma(boundary: tuple[BoundaryCriticalPoint, ...],
                   sigma: SignAssignment) -> int:
    """``chi_plus`` recomputed with an explicit sign assignment.

    The assignment must cover exactly the given points.
    """
    _require_domain(boundary, sigma)
    return _chi_plus_sigma(boundary, sigma)


def signed_defect(chi_P: int,
                  boundary: tuple[BoundaryCriticalPoint, ...],
                  sigma: SignAssignment) -> tuple[Fraction, Fraction]:
    """Both sides of the half-integer defect identity.

    Left side: chi_P/2 - chi_plus(sigma).  Right side: -1/2 of the
    alternating-by-index sum of the signs.  The two agree for every sign
    assignment; returning both lets callers test that exactly.
    """
    if chi_P != euler_boundary_sum(boundary):
        raise PreconditionError(
            f"chi_P={chi_P} does not match the alternating count "
            f"{euler_boundary_sum(boundary)} of the given points")
    lhs = Fraction(chi_P, 2) - chi_plus_sigma(boundary, sigma)
    rhs = -Fraction(1, 2) * sum(
        (-1) ** p.mu * sigma.sign(p.id) for p in boundary)
    return lhs, rhs


def cobordism_invariant(d: MorseDescriptor) -> CobordismClass:
    """The complete cobordism invariant chi_M - chi_plus of a descriptor."""
    return CobordismClass.of(d.n, d.chi_M - chi_plus(d))
