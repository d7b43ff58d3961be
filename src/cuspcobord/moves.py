"""Rewriting moves on singular patterns.

Two atomic moves generate everything: creating a pair of cusps on a fold
arc (the arc of index max(i, n-1-i) sprouts two cusps with an inner arc of
index max(i+1, n-2-i) between them) and eliminating a matching pair of
cusps whose normal indices sum to n-2.

Elimination rewires the four fold-arc ends abutting the two cusps in
matched pairs of equal absolute index.  The pairing is forced by the
indices except when n is even and both cusps sit at the exceptional index
n/2 - 1 (all four abutting arcs then have index n/2); the ``reconnection``
argument names the chosen pairing.  For two cusps on one component, STAY
keeps it connected and SPLIT detaches a circle; across two components
either choice merges circles, while two intervals always re-pair their four
boundary endpoints two-and-two.

Composite moves (parity toggle, component merge) and the two normalization
drivers are built from the atomic moves; a trace records only atomic moves,
so it replays move by move.

Each public move, driver and ``replay`` validates its (initial) pattern once
and raises ``PreconditionError`` for an invalid one.  Both moves are local,
so a valid pattern stays valid when a move's own preconditions hold; inside,
each move checks only what it touches: the transitions at created cusps,
equal indices on fused arcs and the re-paired interval ends.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from .errors import PreconditionError
from .invariants import SignAssignment, _chi_plus_sigma
from .pattern import (
    CIRCLE,
    INTERVAL,
    Component,
    Cusp,
    FoldArc,
    SingularPattern,
    validate_pattern,
)
from .pattern import (
    _abutting_arcs,
    _even_ok,
    _fresh_names,
    _odd_ok,
    _require,
    _transition_ok,
)

__all__ = [
    "STAY",
    "SPLIT",
    "Move",
    "MoveTrace",
    "Obstruction",
    "create_cusp_pair",
    "eliminate_matching_pair",
    "legal_reconnections",
    "toggle_parity",
    "merge_components",
    "normalize_even",
    "normalize_odd",
    "apply_move",
    "replay",
]

STAY = "stay"
SPLIT = "split"


@dataclass(frozen=True)
class Move:
    """One rewriting step, replayable from its parameters alone."""

    kind: str
    params: dict


@dataclass(frozen=True)
class MoveTrace:
    """A rewrite certificate: replaying ``moves`` from ``initial`` must
    reproduce ``final`` exactly."""

    initial: SingularPattern
    moves: tuple[Move, ...]
    final: SingularPattern


@dataclass(frozen=True)
class Obstruction:
    """Witness that no move sequence can reach the requested normal form."""

    kind: str
    witness: dict


def _locate(p: SingularPattern, elem_id: str,
            kind: type) -> tuple[int, int]:
    """(component, word position) of the arc or cusp with this id."""
    for ci, comp in enumerate(p.components):
        for pos, e in enumerate(comp.sequence):
            if isinstance(e, kind) and e.id == elem_id:
                return ci, pos
    what = "fold arc" if kind is FoldArc else "cusp"
    raise PreconditionError(f"no {what} with id {elem_id!r}")


def _create(p: SingularPattern, arc_id: str, i: int,
            flip: bool = False) -> tuple[SingularPattern, dict]:
    n = p.n
    if not 0 <= i <= n - 2:
        raise PreconditionError(f"cusp index i={i} outside [0, {n - 2}]")
    ci, pos = _locate(p, arc_id, FoldArc)
    comp = p.components[ci]
    arc = comp.sequence[pos]
    want = max(i, n - 1 - i)
    if arc.tau != want:
        raise PreconditionError(
            f"arc {arc_id!r} has tau={arc.tau}; creating a pair with i={i} "
            f"needs tau={want}")
    inner_tau = max(i + 1, n - 2 - i)
    used = {e.id for c in p.components for e in c.sequence}
    cusp_names = _fresh_names(used, "c")
    arc_names = _fresh_names(used, "a")
    i_first, i_second = (n - 2 - i, i) if flip else (i, n - 2 - i)
    c1 = Cusp(next(cusp_names), i_first)
    c2 = Cusp(next(cusp_names), i_second)
    inner = FoldArc(next(arc_names), inner_tau)

    if comp.kind == CIRCLE and len(comp.sequence) == 1:
        # the remainder of a bare circle is a single arc, so no split
        right = arc
        seq = (arc, c1, inner, c2)
    else:
        right = FoldArc(next(arc_names), arc.tau)
        seq = (comp.sequence[:pos]
               + (arc, c1, inner, c2, right)
               + comp.sequence[pos + 1:])
    # the rest of the word is untouched, so these are the only new laws
    assert (_transition_ok(c1, arc, inner, n)
            and _transition_ok(c2, inner, right, n)), \
        "internal: created cusps break the transition rule"
    new_comp = replace(comp, sequence=seq)
    comps = p.components[:ci] + (new_comp,) + p.components[ci + 1:]
    out = replace(p, components=comps)
    info = {
        "component": ci,
        "cusp1": c1.id,
        "cusp2": c2.id,
        "inner_arc": inner.id,
        "left_arc": arc.id,
        "right_arc": None if right is arc else right.id,
    }
    return out, info


def create_cusp_pair(p: SingularPattern, arc_id: str, i: int,
                     flip: bool = False) -> SingularPattern:
    """Create a matching pair of cusps (normal indices i and n-2-i) on an arc.

    ``flip`` reverses the order in which the two cusps appear along the
    word, which matters when a later elimination must route specific arc
    ends together.
    """
    _require(p)
    return _create(p, arc_id, i, flip)[0]


@dataclass
class _Path:
    """Open run of elements between cut points and/or boundary endpoints."""

    elements: list
    left: tuple
    right: tuple

    def reversed_(self) -> "_Path":
        return _Path(list(reversed(self.elements)), self.right, self.left)


def _cut_component(comp: Component, cusp_ids: list[str]) -> list[_Path]:
    """Remove the named cusps from one component, returning open paths.

    Path ends are labeled ("cut", cusp_id, "L"/"R") at a removed cusp (the
    side names which neighbor of the cusp the end arc was) or
    ("bd", point_id) at an interval endpoint.
    """
    seq = comp.sequence
    positions = sorted(pos for pos, e in enumerate(seq)
                       if isinstance(e, Cusp) and e.id in cusp_ids)
    if comp.kind == CIRCLE:
        if len(positions) == 1:
            q = positions[0]
            c = seq[q]
            elems = list(seq[q + 1:]) + list(seq[:q])
            return [_Path(elems, ("cut", c.id, "R"), ("cut", c.id, "L"))]
        q1, q2 = positions
        ca, cb = seq[q1], seq[q2]
        return [
            _Path(list(seq[q1 + 1:q2]),
                  ("cut", ca.id, "R"), ("cut", cb.id, "L")),
            _Path(list(seq[q2 + 1:]) + list(seq[:q1]),
                  ("cut", cb.id, "R"), ("cut", ca.id, "L")),
        ]
    # interval
    paths: list[_Path] = []
    prev = 0
    prev_label = ("bd", comp.endpoints[0])
    for q in positions:
        c = seq[q]
        paths.append(_Path(list(seq[prev:q]), prev_label, ("cut", c.id, "L")))
        prev = q + 1
        prev_label = ("cut", c.id, "R")
    paths.append(_Path(list(seq[prev:]), prev_label,
                       ("bd", comp.endpoints[1])))
    return paths


def _fuse_arcs(a: FoldArc, b: FoldArc) -> FoldArc:
    if a.tau != b.tau:
        raise AssertionError(
            f"internal: fusing arcs {a.id!r} (tau={a.tau}) and {b.id!r} "
            f"(tau={b.tau}) of unequal index")
    return FoldArc(min(a.id, b.id), a.tau)


def _glue(paths: list[_Path],
          fusions: list[tuple[tuple, tuple]]) -> tuple[list[Component], list[Component]]:
    """Apply end fusions; return (open intervals, closed circles)."""
    circles: list[Component] = []

    def find(label: tuple) -> _Path:
        for path in paths:
            if path.left == label or path.right == label:
                return path
        raise AssertionError(f"internal: no path end labeled {label}")

    for la, lb in fusions:
        pa = find(la)
        pb = find(lb)
        if pa is pb:
            elems = pa.elements
            if len(elems) == 1:
                word = tuple(elems)
            else:
                word = (_fuse_arcs(elems[0], elems[-1]),) + tuple(elems[1:-1])
            circles.append(Component(CIRCLE, word))
            paths.remove(pa)
            continue
        if pa.right != la:
            pa = pa.reversed_()
        if pb.left != lb:
            pb = pb.reversed_()
        fused = _fuse_arcs(pa.elements[-1], pb.elements[0])
        merged = _Path(pa.elements[:-1] + [fused] + pb.elements[1:],
                       pa.left, pb.right)
        idx = next(k for k, q in enumerate(paths)
                   if q.left == pa.left or q.right == pa.left)
        paths[idx] = merged
        paths.remove(next(q for q in paths
                          if q is not merged and
                          (q.left == pb.right or q.right == pb.right)))

    intervals: list[Component] = []
    for path in paths:
        if path.left[0] != "bd" or path.right[0] != "bd":
            raise AssertionError("internal: unfused cut end left over")
        intervals.append(Component(INTERVAL, tuple(path.elements),
                                   (path.left[1], path.right[1])))
    return intervals, circles


def _fusion_plan(p: SingularPattern, c1_id: str, c2_id: str,
                 reconnection: str):
    """Arc pairs and end-label pairs an elimination would fuse."""
    ci1, pos1 = _locate(p, c1_id, Cusp)
    ci2, pos2 = _locate(p, c2_id, Cusp)
    l1, r1 = _abutting_arcs(p.components[ci1], pos1)
    l2, r2 = _abutting_arcs(p.components[ci2], pos2)
    if reconnection == STAY:
        arc_pairs = ((l1, l2), (r1, r2))
        label_pairs = [(("cut", c1_id, "L"), ("cut", c2_id, "L")),
                       (("cut", c1_id, "R"), ("cut", c2_id, "R"))]
    elif reconnection == SPLIT:
        arc_pairs = ((l1, r2), (r1, l2))
        label_pairs = [(("cut", c1_id, "L"), ("cut", c2_id, "R")),
                       (("cut", c1_id, "R"), ("cut", c2_id, "L"))]
    else:
        raise PreconditionError(f"unknown reconnection {reconnection!r}")
    return (ci1, ci2), arc_pairs, label_pairs


def legal_reconnections(p: SingularPattern, c1_id: str,
                        c2_id: str) -> tuple[str, ...]:
    """Reconnection choices that fuse arcs of equal absolute index only."""
    out = []
    for recon in (STAY, SPLIT):
        _, arc_pairs, _ = _fusion_plan(p, c1_id, c2_id, recon)
        if all(a.tau == b.tau for a, b in arc_pairs):
            out.append(recon)
    return tuple(out)


def _eliminate(p: SingularPattern, c1_id: str, c2_id: str,
               reconnection: str, assume_removable: bool) -> SingularPattern:
    if c1_id == c2_id:
        raise PreconditionError("need two distinct cusps")
    n = p.n
    ci1, pos1 = _locate(p, c1_id, Cusp)
    ci2, pos2 = _locate(p, c2_id, Cusp)
    cusp1 = p.components[ci1].sequence[pos1]
    cusp2 = p.components[ci2].sequence[pos2]
    if cusp1.normal_index + cusp2.normal_index != n - 2:
        raise PreconditionError(
            f"cusps {c1_id!r} (I={cusp1.normal_index}) and {c2_id!r} "
            f"(I={cusp2.normal_index}) are not a matching pair for n={n}")
    if n == 2 and not assume_removable:
        raise PreconditionError(
            "eliminations in ambient dimension 2 need assume_removable=True")
    _, arc_pairs, label_pairs = _fusion_plan(p, c1_id, c2_id, reconnection)
    for a, b in arc_pairs:
        if a.tau != b.tau:
            raise PreconditionError(
                f"reconnection {reconnection!r} would fuse arcs "
                f"{a.id!r} (tau={a.tau}) and {b.id!r} (tau={b.tau}) of "
                f"unequal index")

    affected = sorted({ci1, ci2})
    paths: list[_Path] = []
    for ci in affected:
        paths.extend(_cut_component(p.components[ci], [c1_id, c2_id]))
    intervals, circles = _glue(paths, label_pairs)
    results = tuple(intervals) + tuple(circles)
    keep = [c for k, c in enumerate(p.components) if k not in affected]
    at = affected[0]
    comps = tuple(keep[:at]) + results + tuple(keep[at:])
    return replace(p, components=comps)


def eliminate_matching_pair(p: SingularPattern, c1_id: str, c2_id: str,
                            reconnection: str = STAY,
                            assume_removable: bool = False) -> SingularPattern:
    """Eliminate a matching pair of cusps (normal indices summing to n-2).

    In ambient dimension 2 removability depends on data the pattern does
    not carry and must be vouched for via ``assume_removable``; from
    dimension 3 on it is automatic.
    """
    _require(p)
    return _eliminate(p, c1_id, c2_id, reconnection, assume_removable)


# The drivers below apply every atomic move through these two helpers, which
# record it in ``moves`` from the same arguments.


def _do_create(p: SingularPattern, moves: list[Move], arc_id: str, i: int,
               flip: bool = False) -> tuple[SingularPattern, dict]:
    moves.append(Move("create_cusp_pair",
                      {"arc": arc_id, "i": i, "flip": flip}))
    return _create(p, arc_id, i, flip)


def _do_eliminate(p: SingularPattern, moves: list[Move], c1_id: str,
                  c2_id: str, reconnection: str) -> SingularPattern:
    # the drivers authorize their own eliminations in dimension 2
    assume_removable = p.n == 2
    moves.append(Move("eliminate_matching_pair",
                      {"cusp1": c1_id, "cusp2": c2_id,
                       "reconnection": reconnection,
                       "assume_removable": assume_removable}))
    return _eliminate(p, c1_id, c2_id, reconnection, assume_removable)


def _ladder_to(p: SingularPattern, comp_idx: int, target_tau: int,
               moves: list[Move]) -> SingularPattern:
    """Create pairs on a component until it carries an arc of the target
    index.  Each step works on its lowest-index arc, pushing one lower."""
    cur = p
    n = p.n
    while True:
        comp = cur.components[comp_idx]
        arcs = comp.arcs()
        if any(a.tau == target_tau for a in arcs):
            return cur
        tmin = min(a.tau for a in arcs)
        if tmin <= target_tau:
            raise AssertionError("internal: ladder overshot the target index")
        arc = next(a for a in arcs if a.tau == tmin)
        cur, _ = _do_create(cur, moves, arc.id, n - 1 - tmin)


def _toggle_parity(p: SingularPattern, comp_idx: int,
                   moves: list[Move]) -> SingularPattern:
    n = p.n
    if not 0 <= comp_idx < len(p.components):
        raise PreconditionError(f"no component {comp_idx}")
    if p.components[comp_idx].kind != INTERVAL:
        raise PreconditionError("parity toggle acts on interval components")
    target = n // 2
    cur = _ladder_to(p, comp_idx, target, moves)

    comp = cur.components[comp_idx]
    arc_a = next(a for a in comp.arcs() if a.tau == target)
    cur, info1 = _do_create(cur, moves, arc_a.id, target - 1)
    right = info1["right_arc"]
    assert right is not None
    cur, info2 = _do_create(cur, moves, right, target - 1)
    # both created pairs sit at the exceptional index, so SPLIT is legal;
    # it detaches the circle carrying the middle cusp, leaving one extra
    # cusp on the interval
    return _do_eliminate(cur, moves, info1["cusp1"], info2["cusp1"], SPLIT)


def toggle_parity(p: SingularPattern, comp_idx: int) -> SingularPattern:
    """Flip the cusp-count parity of an interval component (even n only).

    The interval gains one cusp net and a one-cusp circle appears next to
    it; total cusp count changes by +2.
    """
    _require(p, parity=0)
    return _toggle_parity(p, comp_idx, [])


def _endpoint_home(p: SingularPattern, point_id: str) -> int:
    for ci, comp in enumerate(p.components):
        if comp.kind == INTERVAL and point_id in comp.endpoints:
            return ci
    raise PreconditionError(
        f"boundary point {point_id!r} is not an interval endpoint")


def _merge(p: SingularPattern, idx_a: int, idx_b: int, moves: list[Move],
           endpoint_a: Optional[str] = None,
           endpoint_b: Optional[str] = None) -> SingularPattern:
    n = p.n
    if idx_a == idx_b:
        raise PreconditionError("need two distinct components")
    ends = []  # which end of its interval each designated endpoint is
    for idx, point_id in ((idx_a, endpoint_a), (idx_b, endpoint_b)):
        if not 0 <= idx < len(p.components):
            raise PreconditionError(f"no component {idx}")
        points = p.components[idx].endpoints or ()
        if point_id is not None and point_id not in points:
            raise PreconditionError(
                f"{point_id!r} is not an endpoint of component {idx}")
        ends.append(0 if point_id is None else points.index(point_id))
    # The elimination cuts A and B at one created cusp each.  Unflipped, the
    # only legal pairing is SPLIT, which joins opposite ends of A and B;
    # flipping B's pair makes it STAY, which joins equal ends.  With a circle
    # any outcome is the merge.
    flip = (p.components[idx_a].kind == p.components[idx_b].kind == INTERVAL
            and ends[0] == ends[1])
    t = (n - 1) // 2
    cur = _ladder_to(p, idx_a, t, moves)
    cur = _ladder_to(cur, idx_b, t, moves)

    arc_a = next(a for a in cur.components[idx_a].arcs() if a.tau == t)
    cur, info_a = _do_create(cur, moves, arc_a.id, t)
    arc_b = next(a for a in cur.components[idx_b].arcs() if a.tau == t)
    cur, info_b = _do_create(cur, moves, arc_b.id, t, flip)

    # cross pair with indices summing to n-2: the (t-1)-cusp from a with
    # the t-cusp from b
    ca = info_a["cusp2"]
    cb = info_b["cusp2"] if flip else info_b["cusp1"]
    return _do_eliminate(cur, moves, ca, cb, STAY if flip else SPLIT)


def merge_components(p: SingularPattern, idx_a: int, idx_b: int,
                     endpoint_a: Optional[str] = None,
                     endpoint_b: Optional[str] = None) -> SingularPattern:
    """Merge the singular material of two components (odd n only).

    Two circles, or a circle and an interval, become one component.  Two
    intervals re-pair their boundary ends: the designated endpoints (the
    first endpoint of each, unless named explicitly) finish on a common
    interval.  Net cusp change is +2 plus whatever index laddering needed.
    """
    _require(p, parity=1)
    return _merge(p, idx_a, idx_b, [], endpoint_a, endpoint_b)


def _first_exceptional_cusp(comp: Component, n: int) -> Cusp:
    want = (n - 2) // 2
    for c in comp.cusps():
        if c.normal_index == want:
            return c
    raise AssertionError(
        "internal: an odd-cusp circle must carry an exceptional-index cusp")


def normalize_even(p: SingularPattern, sigma: SignAssignment,
                   chi_V: int) -> Union[MoveTrace, Obstruction]:
    """Rewrite an even-n pattern until every component admits the normal
    field, or report why none can.

    Requires the global cusp-parity law to hold for chi_V.  Succeeds iff
    chi_V and chi_plus agree mod 2; otherwise returns a parity-mismatch
    obstruction.  On success the trace toggles each failing interval and
    then fuses odd circles pairwise (in dimension 2 the fused circles are
    stripped of all cusps).
    """
    n = p.n
    _require(p, sigma, parity=0, chi_V=chi_V)
    cp = _chi_plus_sigma(p.boundary_points, sigma)
    if (chi_V - cp) % 2 != 0:
        return Obstruction("parity_mismatch", {
            "chi_V": chi_V,
            "chi_plus": cp,
            "lhs_mod2": chi_V % 2,
            "rhs_mod2": cp % 2,
        })

    cur = p
    moves: list[Move] = []
    while True:
        bad = next((k for k, comp in enumerate(cur.components)
                    if comp.kind == INTERVAL and not _even_ok(comp, sigma)),
                   None)
        if bad is None:
            break
        cur = _toggle_parity(cur, bad, moves)

    while True:
        odd = [k for k, comp in enumerate(cur.components)
               if comp.kind == CIRCLE and comp.cusp_count % 2 == 1]
        if not odd:
            break
        assert len(odd) >= 2, "parity bookkeeping leaves odd circles in pairs"
        i1, i2 = odd[0], odd[1]
        c1 = _first_exceptional_cusp(cur.components[i1], n)
        c2 = _first_exceptional_cusp(cur.components[i2], n)
        # exceptional cusps abut only arcs of index n/2, so STAY is legal
        cur = _do_eliminate(cur, moves, c1.id, c2.id, STAY)
        if n == 2:
            # dimension 2 admits a stronger rewrite: the fused circle can
            # be made cusp-free outright, two cusps at a time
            at = min(i1, i2)
            while cur.components[at].cusp_count:
                cusps = cur.components[at].cusps()
                ca, cb = cusps[0], cusps[1]
                cur = _do_eliminate(cur, moves, ca.id, cb.id, STAY)

    assert all(_even_ok(comp, sigma) for comp in cur.components)
    return MoveTrace(p, tuple(moves), cur)


def normalize_odd(p: SingularPattern,
                  sigma: SignAssignment) -> Union[MoveTrace, Obstruction]:
    """Rewrite an odd-n pattern until every interval's weighted endpoint
    signs cancel, or report why none can.

    Succeeds iff the total weighted sign sum vanishes; otherwise returns a
    sign-sum obstruction.  Endpoints of opposite weight are paired greedily
    by id and their intervals merged so each pair bounds one interval.
    """
    _require(p, sigma, parity=1)
    by_id = p.boundary_by_id()
    eps = {pid: (-1) ** pt.mu * sigma.sign(pid)
           for pid, pt in by_id.items()}
    total = sum(eps.values())
    if total != 0:
        return Obstruction("sign_sum_nonzero", {
            "sum": total,
            "expected": 0,
        })

    plus = sorted(pid for pid, e in eps.items() if e == 1)
    minus = sorted(pid for pid, e in eps.items() if e == -1)
    cur = p
    moves: list[Move] = []
    for x, y in zip(plus, minus):
        ix = _endpoint_home(cur, x)
        iy = _endpoint_home(cur, y)
        if ix == iy:
            continue
        cur = _merge(cur, ix, iy, moves, x, y)

    assert all(_odd_ok(comp, by_id, sigma) for comp in cur.components)
    return MoveTrace(p, tuple(moves), cur)


def _apply(p: SingularPattern, move: Move) -> SingularPattern:
    k, params = move.kind, move.params
    if k == "create_cusp_pair":
        return _create(p, params["arc"], params["i"],
                       params.get("flip", False))[0]
    if k == "eliminate_matching_pair":
        return _eliminate(p, params["cusp1"], params["cusp2"],
                          params.get("reconnection", STAY),
                          params.get("assume_removable", False))
    raise PreconditionError(f"unknown move kind {k!r}")


def apply_move(p: SingularPattern, move: Move) -> SingularPattern:
    """Replay a single recorded move."""
    _require(p)
    return _apply(p, move)


def replay(trace: MoveTrace) -> SingularPattern:
    """Re-run a trace from its initial pattern; callers compare to final."""
    validate_pattern(trace.initial).require("initial pattern")
    cur = trace.initial
    for move in trace.moves:
        cur = _apply(cur, move)
    return cur
