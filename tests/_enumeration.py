"""Exhaustive generators of small singular patterns and random descriptors.

The shape generators re-derive everything from the local index rules
(arc index window, cusp transition rule, endpoint forcing), written
independently of the library's validator so the two can be played against
each other.  Shapes are plain tuples, hashable for multiset enumeration:

    ("circle", taus, iis)
    ("interval", taus, iis, mu0, mu1)

where ``taus`` is the tuple of fold-arc indices in word order, ``iis`` the
tuple of cusp normal indices, and ``mu0``/``mu1`` the boundary indices of
the two interval endpoints.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement, product
from typing import Iterator

from cuspcobord.invariants import SignAssignment
from cuspcobord.morse import (
    BoundaryCriticalPoint,
    InteriorCriticalPoint,
    MorseDescriptor,
)
from cuspcobord.pattern import (
    CIRCLE,
    INTERVAL,
    Component,
    Cusp,
    FoldArc,
    SingularPattern,
)


def arc_index_window(n: int) -> tuple[int, int]:
    # ceil((n-1)/2) == n // 2 for every n >= 2
    return n // 2, n - 1


def cusp_abut_pairs(i: int, n: int) -> tuple[tuple[int, int], ...]:
    """(left, right) arc-index pairs a cusp of normal index i tolerates."""
    tc = max(i, n - 2 - i)
    if n % 2 == 0 and tc == n // 2 - 1:
        return ((n // 2, n // 2),)
    return ((tc, tc + 1), (tc + 1, tc))


def _tau_chain(tau0: int, iis: tuple[int, ...], n: int) -> list[int] | None:
    """Arc indices forced by starting at tau0 and crossing each cusp."""
    lo, hi = arc_index_window(n)
    taus = [tau0]
    for i in iis:
        nxt = [r for (left, r) in cusp_abut_pairs(i, n) if left == taus[-1]]
        if not nxt:
            return None
        taus.append(nxt[0])
    if any(not lo <= t <= hi for t in taus):
        return None
    return taus


def circle_shapes(n: int, max_cusps: int) -> Iterator[tuple]:
    lo, hi = arc_index_window(n)
    for tau in range(lo, hi + 1):
        yield ("circle", (tau,), ())
    for c in range(1, max_cusps + 1):
        if n % 2 == 1 and c % 2 == 1:
            continue
        for iis in product(range(n - 1), repeat=c):
            for tau0 in range(lo, hi + 1):
                taus = _tau_chain(tau0, iis[:-1], n)
                if taus is None:
                    continue
                if (taus[-1], taus[0]) not in cusp_abut_pairs(iis[-1], n):
                    continue
                yield ("circle", tuple(taus), iis)


def interval_shapes(n: int, max_cusps: int) -> Iterator[tuple]:
    for c in range(0, max_cusps + 1):
        for iis in product(range(n - 1), repeat=c):
            lo, hi = arc_index_window(n)
            for tau0 in range(lo, hi + 1):
                taus = _tau_chain(tau0, iis, n)
                if taus is None:
                    continue
                mu0s = [m for m in range(n) if max(m, n - 1 - m) == taus[0]]
                mu1s = [m for m in range(n) if max(m, n - 1 - m) == taus[-1]]
                for mu0, mu1 in product(mu0s, mu1s):
                    yield ("interval", tuple(taus), iis, mu0, mu1)


def single_shapes(n: int, max_cusps: int) -> list[tuple]:
    return list(circle_shapes(n, max_cusps)) + list(interval_shapes(n, max_cusps))


def build_pattern(n: int, shapes: tuple[tuple, ...],
                  chi_ambient: int | None = None) -> SingularPattern:
    """Assemble a pattern from shape tuples, inventing distinct ids."""
    arc_no = cusp_no = pt_no = 0
    components = []
    boundary = []
    for shape in shapes:
        kind = shape[0]
        taus, iis = shape[1], shape[2]
        word = []
        for k, tau in enumerate(taus):
            word.append(FoldArc(f"a{arc_no}", tau))
            arc_no += 1
            if k < len(iis):
                word.append(Cusp(f"c{cusp_no}", iis[k]))
                cusp_no += 1
        if kind == "circle":
            components.append(Component(CIRCLE, tuple(word)))
        else:
            mu0, mu1 = shape[3], shape[4]
            p0 = BoundaryCriticalPoint(f"x{pt_no}", mu0, 1)
            p1 = BoundaryCriticalPoint(f"x{pt_no + 1}", mu1, 1)
            pt_no += 2
            boundary.extend([p0, p1])
            components.append(
                Component(INTERVAL, tuple(word), (p0.id, p1.id)))
    return SingularPattern(n, tuple(components), tuple(boundary),
                           chi_ambient)


def patterns_up_to(n: int, max_components: int, max_cusps: int,
                   rng: random.Random | None = None,
                   triple_samples: int = 0) -> Iterator[SingularPattern]:
    """All patterns with 1 or 2 components, exhaustively; 3-component
    multisets are sampled (the componentwise predicates factor, so pairs
    already exercise every interaction)."""
    shapes = single_shapes(n, max_cusps)
    for size in (1, 2):
        if size > max_components:
            return
        for combo in combinations_with_replacement(shapes, size):
            yield build_pattern(n, combo)
    if max_components >= 3 and triple_samples and rng is not None:
        for _ in range(triple_samples):
            combo = tuple(rng.choice(shapes) for _ in range(3))
            yield build_pattern(n, combo)


def sign_assignments(p: SingularPattern) -> Iterator[SignAssignment]:
    ids = [bp.id for bp in p.boundary_points]
    for bits in product((1, -1), repeat=len(ids)):
        yield SignAssignment(dict(zip(ids, bits)))


def random_descriptor(n: int, rng: random.Random,
                      prefix: str = "p") -> MorseDescriptor:
    """Random valid descriptor: even boundary count, consistent chi fields."""
    k = 2 * rng.randint(0, 3)
    points: list[BoundaryCriticalPoint] = []
    for j in range(k):
        if n % 2 == 0 and j % 2 == 1:
            # for even n the boundary is closed and odd-dimensional, so its
            # Euler characteristic is 0: pair each index with one of the
            # other parity
            mu = rng.choice([m for m in range(n)
                             if (m - points[-1].mu) % 2 == 1])
        else:
            mu = rng.randrange(n)
        points.append(BoundaryCriticalPoint(f"{prefix}{j}", mu,
                                            rng.choice((1, -1))))
    boundary = tuple(points)
    chi_boundary = sum((-1) ** p.mu for p in boundary)
    if n % 2 == 1:
        chi_M = chi_boundary // 2
    else:
        chi_M = rng.randint(-3, 3)
    interior = tuple(
        # ids deliberately overlap between descriptors ("q0", "q1", ...)
        # so disjoint-union relabeling gets exercised
        InteriorCriticalPoint(f"q{j}", rng.randint(0, n))
        for j in range(rng.randint(0, 2)))
    return MorseDescriptor(n=n, oriented=bool(rng.getrandbits(1)),
                           chi_M=chi_M, chi_boundary=chi_boundary,
                           interior=interior, boundary=boundary)
