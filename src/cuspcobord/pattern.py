"""Combinatorial patterns of fold/cusp singular sets over a 1-manifold.

A generic map of an n-manifold to the plane has a 1-dimensional singular
set: circles and intervals made of fold arcs separated by isolated cusps.
Each fold arc carries an absolute index tau with
ceil((n-1)/2) <= tau <= n-1; each cusp carries a normal index I with
0 <= I <= n-2 and derived absolute index tau = max(I, n-2-I).

Local rules constrain how indices meet:

* at a cusp p the two abutting arcs have indices {tau(p), tau(p)+1},
  except when n is even and tau(p) = n/2 - 1, in which case both abutting
  arcs have index n/2;
* an interval endpoint lying over a boundary critical point x forces the
  end arc to have index max(mu(x), n-1-mu(x)).

Patterns carry no embedding data: they remember only the cyclic/linear
words of arcs and cusps and which boundary critical points bound which
interval.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import PreconditionError
from .invariants import (
    SignAssignment,
    _chi_plus_sigma,
    _require_domain,
    signed_defect,
)
from .morse import (
    BoundaryCriticalPoint,
    ValidationReport,
    Violation,
    euler_boundary_sum,
)

__all__ = [
    "CIRCLE",
    "INTERVAL",
    "Cusp",
    "FoldArc",
    "Component",
    "SingularPattern",
    "cusp_tau",
    "endpoint_tau",
    "fold_tau_range",
    "validate_pattern",
    "vector_field_exists",
    "check_condition_even",
    "check_condition_odd",
    "cusp_parity_check",
    "aggregate_even",
    "aggregate_odd",
]

CIRCLE = "circle"
INTERVAL = "interval"


@dataclass(frozen=True, slots=True)
class Cusp:
    """Cusp point with its normal index I."""

    id: str
    normal_index: int


@dataclass(frozen=True, slots=True)
class FoldArc:
    """Maximal arc of fold points with constant absolute index."""

    id: str
    tau: int


Element = Union[FoldArc, Cusp]


def cusp_tau(normal_index: int, n: int) -> int:
    """Absolute index of a cusp from its normal index."""
    return max(normal_index, n - 2 - normal_index)


def endpoint_tau(mu: int, n: int) -> int:
    """Absolute index forced on an end arc by a boundary critical point."""
    return max(mu, n - 1 - mu)


def fold_tau_range(n: int) -> tuple[int, int]:
    """Admissible absolute indices for fold arcs in ambient dimension n."""
    return (n - 1 + 1) // 2, n - 1


@dataclass(frozen=True)
class Component:
    """One connected component of the singular set.

    ``sequence`` is the word of arcs and cusps along the component.  A
    circle alternates cyclically (so a nonempty cusp set means the word has
    even length, arc first, cusp last, wrapping around); an interval starts
    and ends with an arc.  ``endpoints`` names the two boundary critical
    points an interval ends on, in word order; circles have none.
    """

    kind: str
    sequence: tuple[Element, ...]
    endpoints: Optional[tuple[str, str]] = None

    def __post_init__(self) -> None:
        if self.kind not in (CIRCLE, INTERVAL):
            raise ValueError(f"unknown component kind {self.kind!r}")

    @functools.cached_property
    def cusp_count(self) -> int:
        # exact for any word, an invalid one included; kept on the object,
        # since the laws, the predicates and the parity law each ask for it
        return sum(1 for e in self.sequence if isinstance(e, Cusp))


@dataclass(frozen=True)
class SingularPattern:
    """A disjoint union of components plus the boundary critical points."""

    n: int
    components: tuple[Component, ...]
    boundary_points: tuple[BoundaryCriticalPoint, ...] = ()
    chi_ambient: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"ambient dimension must be >= 2, got {self.n}")

    def boundary_by_id(self) -> dict[str, BoundaryCriticalPoint]:
        return {p.id: p for p in self.boundary_points}

    @functools.cached_property
    def _report(self) -> ValidationReport:
        # kept on the object, outside the fields: equality and hashing
        # ignore it, and a pattern built by replace() or a move starts
        # without one
        return _check_laws(self)

    @property
    def total_cusps(self) -> int:
        return sum(c.cusp_count for c in self.components)


def _abutting_arcs(comp: Component, pos: int) -> tuple[FoldArc, FoldArc]:
    """Arcs immediately before and after the cusp at word position pos.

    A cusp is never last in an interval's word, so wrapping around only
    ever happens on a circle."""
    seq = comp.sequence
    left = seq[pos - 1]
    right = seq[(pos + 1) % len(seq)]
    assert isinstance(left, FoldArc) and isinstance(right, FoldArc)
    return left, right


def _transition_ok(cusp: Cusp, left: FoldArc, right: FoldArc, n: int) -> bool:
    tc = cusp_tau(cusp.normal_index, n)
    if n % 2 == 0 and tc == n // 2 - 1:
        return left.tau == n // 2 and right.tau == n // 2
    return {left.tau, right.tau} == {tc, tc + 1}


def _alternation_ok(comp: Component) -> bool:
    seq = comp.sequence
    if comp.kind == CIRCLE and len(seq) == 1:
        return isinstance(seq[0], FoldArc)
    # arc first; a circle's word ends on a cusp, an interval's on an arc
    if not seq or len(seq) % 2 != (comp.kind == INTERVAL):
        return False
    return all(isinstance(e, FoldArc if i % 2 == 0 else Cusp)
               for i, e in enumerate(seq))


def validate_pattern(p: SingularPattern) -> ValidationReport:
    """Check every structural law, reporting each violation with its location.

    The report is computed once per pattern object and kept on it, so a
    caller asking several questions of one pattern pays for one check.
    """
    return p._report


def _check_laws(p: SingularPattern) -> ValidationReport:
    out: list[Violation] = []
    lo, hi = fold_tau_range(p.n)
    by_id = p.boundary_by_id()
    if len(by_id) != len(p.boundary_points):
        out.append(Violation("duplicate-boundary-id",
                             "boundary point ids are not distinct"))
    seen_elt: set[str] = set()
    endpoint_use: dict[str, int] = {pid: 0 for pid in by_id}

    for ci, comp in enumerate(p.components):
        where = f"component {ci}"
        if not comp.sequence:
            out.append(Violation("empty-component", f"{where} has no elements"))
            continue
        if not _alternation_ok(comp):
            out.append(Violation(
                "alternation",
                f"{where} does not alternate arcs and cusps as a "
                f"{comp.kind} must"))
            continue
        # alternation puts the arcs at even and the cusps at odd positions
        seq = comp.sequence
        for e in seq:
            if e.id in seen_elt:
                out.append(Violation("duplicate-element-id",
                                     f"id {e.id!r} used twice"))
            seen_elt.add(e.id)
        for e in seq[::2]:
            if not lo <= e.tau <= hi:
                out.append(Violation(
                    "arc-index-range",
                    f"{where}: arc {e.id!r} has tau={e.tau}, outside "
                    f"[{lo}, {hi}]"))
        transitions: list[Violation] = []
        for pos in range(1, len(seq), 2):
            e = seq[pos]
            if not 0 <= e.normal_index <= p.n - 2:
                out.append(Violation(
                    "cusp-index-range",
                    f"{where}: cusp {e.id!r} has I={e.normal_index}, "
                    f"outside [0, {p.n - 2}]"))
                continue
            left, right = _abutting_arcs(comp, pos)
            if not _transition_ok(e, left, right, p.n):
                transitions.append(Violation(
                    "cusp-transition",
                    f"{where}: cusp {e.id!r} (I={e.normal_index}, "
                    f"tau={cusp_tau(e.normal_index, p.n)}) abuts arcs of "
                    f"indices {left.tau} and {right.tau}"))
        out += transitions  # after all of the component's range faults

        if comp.kind == CIRCLE:
            if comp.endpoints is not None:
                out.append(Violation(
                    "circle-endpoints",
                    f"{where} is a circle but names endpoints"))
            if p.n % 2 == 1 and comp.cusp_count % 2 == 1:
                out.append(Violation(
                    "odd-circle-cusps",
                    f"{where}: a circle carries {comp.cusp_count} cusps, "
                    f"impossible in odd ambient dimension"))
        else:
            if comp.endpoints is None:
                out.append(Violation(
                    "interval-endpoints-missing",
                    f"{where} is an interval but names no endpoints"))
                continue
            x0, x1 = comp.endpoints
            if x0 == x1:
                out.append(Violation(
                    "interval-endpoints-equal",
                    f"{where}: both ends claim boundary point {x0!r}"))
            for pid, arc in ((x0, seq[0]), (x1, seq[-1])):
                if pid not in by_id:
                    out.append(Violation(
                        "unknown-endpoint",
                        f"{where}: endpoint {pid!r} is not a listed "
                        f"boundary point"))
                    continue
                endpoint_use[pid] += 1
                want = endpoint_tau(by_id[pid].mu, p.n)
                assert isinstance(arc, FoldArc)
                if arc.tau != want:
                    out.append(Violation(
                        "endpoint-index",
                        f"{where}: end arc {arc.id!r} has tau={arc.tau} "
                        f"but boundary point {pid!r} (mu="
                        f"{by_id[pid].mu}) forces {want}"))

    for pid, count in endpoint_use.items():
        if count != 1:
            out.append(Violation(
                "endpoint-multiplicity",
                f"boundary point {pid!r} is an interval endpoint "
                f"{count} times, expected exactly once"))

    return ValidationReport(tuple(out))


def _require(p: SingularPattern, sigma: Optional[SignAssignment] = None,
             parity: Optional[int] = None,
             chi_V: Optional[int] = None) -> None:
    """The preconditions of a public pattern call, in this order: an ambient
    dimension of the given parity (0 even, 1 odd), a valid pattern, a sign
    assignment on exactly its boundary points, the cusp-parity law."""
    if parity is not None and p.n % 2 != parity:
        raise PreconditionError(
            f"needs {('even', 'odd')[parity]} ambient dimension, got n={p.n}")
    validate_pattern(p).require("pattern")
    if sigma is not None:
        _require_domain(p.boundary_points, sigma)
    if chi_V is not None and not _parity_ok(p, chi_V):
        raise PreconditionError(
            f"cusp-parity law fails: {p.total_cusps} cusps vs chi_V={chi_V} "
            f"and {len(p.boundary_points)} boundary points")


def vector_field_exists(p: SingularPattern, sigma: SignAssignment) -> bool:
    """Whether a nowhere-zero normal field compatible with the signs exists.

    Componentwise: every circle must carry an even number of cusps, and an
    interval carries an even number iff its two endpoint signs differ.
    """
    _require(p, sigma)
    return all(_even_ok(comp, sigma) for comp in p.components)


def _half_sign_sum(comp: Component, sigma: SignAssignment) -> int:
    if comp.kind == CIRCLE:
        return 0
    x0, x1 = comp.endpoints
    return (sigma.sign(x0) + sigma.sign(x1)) // 2


def _even_ok(comp: Component, sigma: SignAssignment) -> bool:
    return (comp.cusp_count + _half_sign_sum(comp, sigma)) % 2 == 0


def _odd_ok(comp: Component, by_id: dict[str, BoundaryCriticalPoint],
            sigma: SignAssignment) -> bool:
    return comp.kind == CIRCLE or sum(
        (-1) ** by_id[x].mu * sigma.sign(x) for x in comp.endpoints) == 0


def check_condition_even(p: SingularPattern,
                         sigma: SignAssignment) -> list[bool]:
    """Per-component congruence for even n: cusp count plus half the
    endpoint sign sum must vanish mod 2."""
    _require(p, sigma, parity=0)
    return [_even_ok(comp, sigma) for comp in p.components]


def check_condition_odd(p: SingularPattern,
                        sigma: SignAssignment) -> list[bool]:
    """Per-component equation for odd n: the (-1)^mu-weighted endpoint sign
    sum must vanish.  Circles pass vacuously."""
    _require(p, sigma, parity=1)
    by_id = p.boundary_by_id()
    return [_odd_ok(comp, by_id, sigma) for comp in p.components]


def _parity_ok(p: SingularPattern, chi_V: int) -> bool:
    # a valid pattern ends one interval on each boundary point: an even count
    return (p.total_cusps - chi_V - len(p.boundary_points) // 2) % 2 == 0


def cusp_parity_check(p: SingularPattern, chi_V: int) -> bool:
    """Global parity law: total cusps == chi_V + #boundary/2 (mod 2)."""
    _require(p)
    return _parity_ok(p, chi_V)


def aggregate_even(p: SingularPattern, sigma: SignAssignment,
                   chi_V: int) -> tuple[int, int]:
    """Both sides, as mod-2 residues, of the even-dimensional aggregate
    congruence: chi_V - chi_plus versus the sum of componentwise defects."""
    _require(p, sigma, parity=0, chi_V=chi_V)
    lhs = (chi_V - _chi_plus_sigma(p.boundary_points, sigma)) % 2
    rhs = sum(not _even_ok(comp, sigma) for comp in p.components) % 2
    return lhs, rhs


def aggregate_odd(p: SingularPattern,
                  sigma: SignAssignment) -> tuple[Fraction, Fraction]:
    """Both sides of the odd-dimensional aggregate identity:
    chi(boundary)/2 - chi_plus versus -1/2 of the total weighted sign sum.

    Every boundary point ends exactly one interval, so the sum over interval
    ends is the sum over boundary points that ``signed_defect`` takes; it
    also checks the domain of ``sigma``."""
    _require(p, parity=1)
    bp = p.boundary_points
    return signed_defect(euler_boundary_sum(bp), bp, sigma)
