"""Random legal move sequences over patterns, used to test move invariants."""

from __future__ import annotations

import random

from cuspcobord.moves import (
    create_cusp_pair,
    eliminate_matching_pair,
    legal_reconnections,
)
from cuspcobord.pattern import (
    SingularPattern,
    cusp_parity_check,
    validate_pattern,
)


def legal_creates(p: SingularPattern) -> list[tuple]:
    out = []
    for comp in p.components:
        for arc in comp.sequence[::2]:
            for i in range(p.n - 1):
                if max(i, p.n - 1 - i) == arc.tau:
                    for flip in (False, True):
                        out.append(("create", arc.id, i, flip))
    return out


def legal_eliminations(p: SingularPattern) -> list[tuple]:
    out = []
    cusps = [e for comp in p.components for e in comp.sequence[1::2]]
    for k, e1 in enumerate(cusps):
        for e2 in cusps[k + 1:]:
            if e1.normal_index + e2.normal_index != p.n - 2:
                continue
            for recon in legal_reconnections(p, e1.id, e2.id):
                out.append(("eliminate", e1.id, e2.id, recon))
    return out


def apply_random_move(p: SingularPattern, rng: random.Random):
    """Pick and apply one random legal move; returns (pattern, delta) or
    None when the pattern admits no move at all."""
    options = legal_creates(p) + legal_eliminations(p)
    if not options:
        return None
    move = rng.choice(options)
    if move[0] == "create":
        _, arc_id, i, flip = move
        return create_cusp_pair(p, arc_id, i, flip), +2
    _, c1, c2, recon = move
    return eliminate_matching_pair(p, c1, c2, recon,
                                   assume_removable=(p.n == 2)), -2


def walk(p: SingularPattern, rng: random.Random, steps: int,
         check_each: bool = True) -> SingularPattern:
    """Apply up to ``steps`` random moves, asserting the standing invariants
    after each: structural validity, cusp-count jump of exactly 2, and the
    global parity law for a fixed ambient characteristic."""
    k = len(p.boundary_points)
    chi_fixed = (p.total_cusps - k // 2) % 2
    assert cusp_parity_check(p, chi_fixed)
    cur = p
    for _ in range(steps):
        step = apply_random_move(cur, rng)
        if step is None:
            break
        nxt, delta = step
        if check_each:
            assert abs(nxt.total_cusps - cur.total_cusps) == 2
            assert nxt.total_cusps - cur.total_cusps == delta
            assert validate_pattern(nxt).ok
            assert cusp_parity_check(nxt, chi_fixed)
        cur = nxt
    return cur
