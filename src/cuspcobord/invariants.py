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
from typing import Iterable, Mapping

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
    "morse_van_schaack",
    "euler_odd",
]


@dataclass(frozen=True)
class SignAssignment:
    """A choice of sign (+1/-1) for each boundary critical point, keyed by id."""

    entries: Mapping[str, int]

    def __post_init__(self) -> None:
        for pid, s in self.entries.items():
            if s not in (1, -1):
                raise ValueError(f"sign for {pid!r} must be +1 or -1, got {s!r}")

    @classmethod
    def from_points(cls, points: Iterable[BoundaryCriticalPoint]) -> "SignAssignment":
        """Assignment reading off the signs stored on the points themselves."""
        return cls({p.id: p.sigma for p in points})

    def sign(self, point_id: str) -> int:
        return self.entries[point_id]

    def domain(self) -> frozenset[str]:
        return frozenset(self.entries)


@dataclass(frozen=True)
class CobordismClass:
    """Element of the cobordism group of Morse functions in dimension n.

    The group is Z/2 for even n (value normalized to {0, 1}) and Z for
    odd n.  Addition only makes sense at equal dimension.
    """

    n: int
    value: int

    def __post_init__(self) -> None:
        if self.n % 2 == 0 and self.value not in (0, 1):
            raise ValueError(
                f"even-dimensional classes live in Z/2; got value {self.value}")

    @classmethod
    def of(cls, n: int, value: int) -> "CobordismClass":
        """Build a class, reducing mod 2 in even dimension."""
        return cls(n, value % 2 if n % 2 == 0 else value)

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


def _chi_plus(boundary: tuple[BoundaryCriticalPoint, ...]) -> int:
    return sum((-1) ** p.mu for p in boundary if p.sigma == 1)


def chi_plus(d: MorseDescriptor) -> int:
    """Alternating count of inward-increasing boundary critical points."""
    validate(d).require("descriptor")
    return _chi_plus(d.boundary)


def chi_plus_sigma(boundary: tuple[BoundaryCriticalPoint, ...],
                   sigma: SignAssignment) -> int:
    """``chi_plus`` recomputed with an explicit sign assignment.

    The assignment must cover exactly the given points.
    """
    ids = {p.id for p in boundary}
    if sigma.domain() != ids:
        missing = sorted(ids - sigma.domain())
        extra = sorted(sigma.domain() - ids)
        raise PreconditionError(
            f"sign assignment domain mismatch: missing {missing}, extra {extra}")
    return sum((-1) ** p.mu for p in boundary if sigma.sign(p.id) == 1)


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
    validate(d).require("descriptor")
    return CobordismClass.of(d.n, d.chi_M - _chi_plus(d.boundary))


def morse_van_schaack(n: int, chi_M: int,
                      boundary: tuple[BoundaryCriticalPoint, ...],
                      sigma: SignAssignment) -> bool:
    """Necessary condition for extending the boundary data over the interior
    without interior critical points: chi_plus must equal chi_M (odd n) or
    agree with it mod 2 (even n)."""
    cp = chi_plus_sigma(boundary, sigma)
    if n % 2 == 0:
        return (cp - chi_M) % 2 == 0
    return cp == chi_M


def euler_odd(chi_boundary: int) -> int:
    """Euler characteristic of an odd-dimensional manifold from its boundary."""
    if chi_boundary % 2 != 0:
        raise PreconditionError(
            f"chi_boundary={chi_boundary} is odd; no closed boundary has "
            f"odd Euler characteristic in even dimension")
    return chi_boundary // 2
