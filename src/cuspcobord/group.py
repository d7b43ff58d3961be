"""The cobordism group of Morse functions and solvers over it.

Descriptors are cobordant iff their invariants agree; the group of classes
is Z/2 in even dimension and Z in odd dimension, generated by the standard
function on the n-disk whose boundary restriction has exactly two critical
points.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError
from .invariants import CobordismClass, SignAssignment, cobordism_invariant
from .morse import BoundaryCriticalPoint, MorseDescriptor

__all__ = [
    "is_cobordant",
    "generator",
    "NoSolution",
    "solve_sigma_for_target",
]


def is_cobordant(d1: MorseDescriptor, d2: MorseDescriptor) -> bool:
    """True iff the two descriptors represent the same cobordism class."""
    if d1.n != d2.n:
        raise PreconditionError(f"dimension mismatch: {d1.n} vs {d2.n}")
    return cobordism_invariant(d1) == cobordism_invariant(d2)


def generator(n: int) -> MorseDescriptor:
    """Standard generator of the degree-n group: a disk with a two-point
    boundary restriction (minimum and maximum, both increasing inward)."""
    if n < 2:
        raise PreconditionError(f"ambient dimension must be >= 2, got {n}")
    boundary = (
        BoundaryCriticalPoint("x0", 0, 1),
        BoundaryCriticalPoint("x1", n - 1, 1),
    )
    return MorseDescriptor(
        n=n,
        oriented=True,
        chi_M=1,
        chi_boundary=1 + (-1) ** (n - 1),
        boundary=boundary,
    )


@dataclass(frozen=True, slots=True)
class NoSolution:
    """Certificate that no sign assignment hits the requested class."""

    target: CobordismClass
    attainable: tuple[int, ...]


def solve_sigma_for_target(boundary: tuple[BoundaryCriticalPoint, ...],
                           n: int,
                           chi_M: int,
                           target: CobordismClass):
    """Find a sign assignment whose invariant equals ``target``.

    Returns a SignAssignment, or a NoSolution carrying the set of values
    the invariant can attain on this boundary data.  The answer is
    constructed directly from the attainable range of chi_plus, which is
    the integer interval [-(odd-index count), +(even-index count)].
    """
    if target.n != n:
        raise PreconditionError(
            f"target dimension {target.n} does not match n={n}")
    pts = sorted(boundary, key=lambda p: p.id)
    ids = [p.id for p in pts]
    if len(set(ids)) != len(ids):
        raise PreconditionError("boundary ids must be distinct")

    # scanning chi_plus downwards leaves the smallest value realizing each
    # class
    n_even = sum(1 for p in pts if p.mu % 2 == 0)
    realized = {}
    for cp in range(n_even, n_even - len(pts) - 1, -1):
        realized[CobordismClass.of(n, chi_M - cp).value] = cp
    if target.value not in realized:
        return NoSolution(target=target, attainable=tuple(sorted(realized)))
    # assign +1 to just enough points: each even-index point raises
    # chi_plus by one, each odd-index point lowers it by one
    wanted = realized[target.value]
    parity, quota = (0, wanted) if wanted >= 0 else (1, -wanted)
    signs = {}
    for p in pts:
        take = quota > 0 and p.mu % 2 == parity
        signs[p.id] = 1 if take else -1
        quota -= take
    return SignAssignment(signs)
