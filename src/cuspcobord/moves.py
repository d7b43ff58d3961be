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
and raises ``PreconditionError`` for an invalid one.  It then builds one
working state (``_State``) and runs every move of the call on it.  Both
moves are local, so a valid pattern stays valid when a move's own
preconditions hold; inside, each move checks only what it touches: the
transitions at created cusps, equal indices on fused arcs and the re-paired
interval ends.  The state indexes every element and names new ones from a
pool, so a move costs what it touches, not the size of the pattern.  One
run does at most ``MAX_MOVES`` moves.
"""

from __future__ import annotations

import heapq
import itertools
import re
from collections.abc import Container
from dataclasses import dataclass, replace
from typing import Optional, Union

from .errors import PreconditionError
from .invariants import SignAssignment, _chi_plus_sigma
from .pattern import (
    CIRCLE,
    INTERVAL,
    Component,
    Cusp,
    Element,
    FoldArc,
    SingularPattern,
    validate_pattern,
)
from .pattern import (
    _abutting_arcs,
    _even_ok,
    _odd_ok,
    _require,
    _transition_ok,
)

__all__ = [
    "STAY",
    "SPLIT",
    "MAX_MOVES",
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
MAX_MOVES = 10 ** 5  # move budget of one run: a driver call or a replay


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


# A generated name is prefix<k> with k in ASCII digits and no leading zero;
# no other id can equal one.  A pool never reaches 10**18, so longer digit
# strings are left unread (int() refuses those of over 4300 digits).
_NUMBERED = re.compile(r"([ac])(0|[1-9][0-9]{0,17})")


class _NamePool:
    """The names prefix0, prefix1, ... that no live element holds, handed
    out smallest first: exactly what a rescan of the live ids would give.

    ``live`` holds the live ids (a run's element index).  Names from
    ``top`` up are tested against it; ``free`` is a heap of the numbers
    below ``top`` whose names were released since.
    """

    def __init__(self, prefix: str, live: Container[str]):
        self.prefix = prefix
        self.live = live
        self.free: list[int] = []
        self.top = 0

    def take(self) -> str:
        if self.free:
            k = heapq.heappop(self.free)
        else:
            k = self.top
            while f"{self.prefix}{k}" in self.live:
                k += 1
            self.top = k + 1
        return f"{self.prefix}{k}"

    def release(self, k: int) -> None:
        if k < self.top:
            heapq.heappush(self.free, k)


class _State:
    """One run's working copy of a validated pattern, rewritten in place.

    The components sit in ``order`` under stable keys.  ``ids[key]`` lists
    a component's element ids in word order, so a position is one
    ``list.index``; ``home`` maps each element id, and ``ends`` each
    interval endpoint, to its component's key; ``names`` holds the cusp
    ("c") and arc ("a") name pools.  ``moves`` records every move applied
    so far.
    """

    def __init__(self, p: SingularPattern):
        self.p = p
        self.n = p.n
        self.comps: dict[int, Component] = {}
        self.ids: dict[int, list[str]] = {}
        self.home: dict[str, int] = {}
        self.ends: dict[str, int] = {}
        self.names = {prefix: _NamePool(prefix, self.home)
                      for prefix in ("c", "a")}
        self.moves: list[Move] = []
        self._keys = itertools.count()
        self.order = [self._add(comp) for comp in p.components]

    def _add(self, comp: Component) -> int:
        key = next(self._keys)
        self.comps[key] = comp
        ids = self.ids[key] = [e.id for e in comp.sequence]
        self.home.update(dict.fromkeys(ids, key))
        for x in comp.endpoints or ():
            self.ends[x] = key
        return key

    def key_at(self, idx: int) -> int:
        if not 0 <= idx < len(self.order):
            raise PreconditionError(f"no component {idx}")
        return self.order[idx]

    def find(self, eid: str, kind: type) -> tuple[int, int, Element]:
        """(component key, word position, element) of the arc or cusp with
        this id."""
        key = self.home.get(eid)
        if key is not None:
            pos = self.ids[key].index(eid)
            e = self.comps[key].sequence[pos]
            if isinstance(e, kind):
                return key, pos, e
        what = "fold arc" if kind is FoldArc else "cusp"
        raise PreconditionError(f"no {what} with id {eid!r}")

    def splice(self, key: int, pos: int, new: tuple[Element, ...]) -> None:
        """Insert freshly named elements after word position pos."""
        comp = self.comps[key]
        seq = comp.sequence
        self.comps[key] = Component(
            comp.kind, seq[:pos + 1] + new + seq[pos + 1:], comp.endpoints)
        ids = [e.id for e in new]
        self.ids[key][pos + 1:pos + 1] = ids
        self.home.update(dict.fromkeys(ids, key))

    def rewire(self, keys: list[int], comps: list[Component],
               freed: list[str]) -> list[int]:
        """Replace the components under ``keys`` (in order) by ``comps``,
        placed where the first of them stood, which hold every element of
        the old ones but the ``freed``; their names return to the pools.
        Returns the new keys."""
        at = self.order.index(keys[0])
        for key in keys:
            self.order.remove(key)
            del self.comps[key], self.ids[key]
        new = [self._add(comp) for comp in comps]
        self.order[at:at] = new
        for eid in freed:
            del self.home[eid]
            m = _NUMBERED.fullmatch(eid)
            if m:
                self.names[m[1]].release(int(m[2]))
        return new

    def pattern(self) -> SingularPattern:
        # with no move made the pattern is the validated input itself, so
        # questions asked of it reuse its report
        if not self.moves:
            return self.p
        return replace(self.p, components=tuple(
            self.comps[key] for key in self.order))


def _budget_error() -> PreconditionError:
    return PreconditionError(
        f"the rewrite needs more than {MAX_MOVES} moves, the budget of one "
        f"run")


def _record(s: _State, kind: str, params: dict) -> None:
    """Record one atomic move of the run.  Both moves record themselves
    here, so here the run's budget is kept."""
    if len(s.moves) >= MAX_MOVES:
        raise _budget_error()
    s.moves.append(Move(kind, params))


def _create(s: _State, arc_id: str, i: int,
            flip: bool = False) -> tuple[str, str, str, Optional[str]]:
    """Create the pair; returns the ids of the two cusps, the inner arc and
    the new right arc (None on a bare circle, whose arc is not split)."""
    _record(s, "create_cusp_pair", {"arc": arc_id, "i": i, "flip": flip})
    n = s.n
    if not 0 <= i <= n - 2:
        raise PreconditionError(f"cusp index i={i} outside [0, {n - 2}]")
    key, pos, arc = s.find(arc_id, FoldArc)
    want = max(i, n - 1 - i)
    if arc.tau != want:
        raise PreconditionError(
            f"arc {arc_id!r} has tau={arc.tau}; creating a pair with i={i} "
            f"needs tau={want}")
    inner_tau = max(i + 1, n - 2 - i)
    i_first, i_second = (n - 2 - i, i) if flip else (i, n - 2 - i)
    names = s.names
    c1 = Cusp(names["c"].take(), i_first)
    c2 = Cusp(names["c"].take(), i_second)
    inner = FoldArc(names["a"].take(), inner_tau)

    if s.comps[key].kind == CIRCLE and len(s.ids[key]) == 1:
        # the remainder of a bare circle is a single arc, so no split
        right = arc
        new = (c1, inner, c2)
    else:
        right = FoldArc(names["a"].take(), arc.tau)
        new = (c1, inner, c2, right)
    # the rest of the word is untouched, so these are the only new laws
    assert (_transition_ok(c1, arc, inner, n)
            and _transition_ok(c2, inner, right, n)), \
        "internal: created cusps break the transition rule"
    s.splice(key, pos, new)
    return c1.id, c2.id, inner.id, None if right is arc else right.id


def create_cusp_pair(p: SingularPattern, arc_id: str, i: int,
                     flip: bool = False) -> SingularPattern:
    """Create a matching pair of cusps (normal indices i and n-2-i) on an arc.

    ``flip`` reverses the order in which the two cusps appear along the
    word, which matters when a later elimination must route specific arc
    ends together.
    """
    _require(p)
    s = _State(p)
    _create(s, arc_id, i, flip)
    return s.pattern()


@dataclass
class _Path:
    """Open run of elements between cut points and/or boundary endpoints."""

    elements: list
    left: tuple
    right: tuple

    def reversed_(self) -> "_Path":
        return _Path(list(reversed(self.elements)), self.right, self.left)


def _cut_component(comp: Component, positions: list[int]) -> list[_Path]:
    """Remove the cusps at the given (ascending) word positions from one
    component, returning open paths.

    Path ends are labeled ("cut", cusp_id, "L"/"R") at a removed cusp (the
    side names which neighbor of the cusp the end arc was) or
    ("bd", point_id) at an interval endpoint.
    """
    seq = comp.sequence
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


def _glue(paths: list[_Path], fusions: list[tuple[tuple, tuple]]
          ) -> tuple[list[Component], list[Component], list[str]]:
    """Apply end fusions; return (open intervals, closed circles, ids of
    the arcs fused away)."""
    circles: list[Component] = []
    dropped: list[str] = []

    def fuse(a: FoldArc, b: FoldArc) -> FoldArc:
        # two distinct arcs become one, under the smaller id
        if a.tau != b.tau:
            raise AssertionError(
                f"internal: fusing arcs {a.id!r} (tau={a.tau}) and "
                f"{b.id!r} (tau={b.tau}) of unequal index")
        keep, drop = sorted((a.id, b.id))
        dropped.append(drop)
        return FoldArc(keep, a.tau)

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
                word = (fuse(elems[0], elems[-1]),) + tuple(elems[1:-1])
            circles.append(Component(CIRCLE, word))
            paths.remove(pa)
            continue
        if pa.right != la:
            pa = pa.reversed_()
        if pb.left != lb:
            pb = pb.reversed_()
        fused = fuse(pa.elements[-1], pb.elements[0])
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
    return intervals, circles, dropped


def _fused_ends(s: _State, at1: tuple, at2: tuple, reconnection: str):
    """The two end pairs an elimination fuses, each as ((side, arc) at the
    first cusp, (side, arc) at the second); ``at1``/``at2`` give each
    cusp's (component key, word position)."""
    l1, r1 = _abutting_arcs(s.comps[at1[0]], at1[1])
    l2, r2 = _abutting_arcs(s.comps[at2[0]], at2[1])
    if reconnection == STAY:
        return ((("L", l1), ("L", l2)), (("R", r1), ("R", r2)))
    if reconnection == SPLIT:
        return ((("L", l1), ("R", r2)), (("R", r1), ("L", l2)))
    raise PreconditionError(f"unknown reconnection {reconnection!r}")


def legal_reconnections(p: SingularPattern, c1_id: str,
                        c2_id: str) -> tuple[str, ...]:
    """Reconnection choices that fuse arcs of equal absolute index only."""
    _require(p)
    s = _State(p)
    at1 = s.find(c1_id, Cusp)[:2]
    at2 = s.find(c2_id, Cusp)[:2]
    return tuple(recon for recon in (STAY, SPLIT)
                 if all(a.tau == b.tau for (_, a), (_, b)
                        in _fused_ends(s, at1, at2, recon)))


def _eliminate(s: _State, c1_id: str, c2_id: str, reconnection: str,
               assume_removable: bool) -> list[int]:
    """Eliminate the pair; returns the keys of the components it leaves in
    place of the ones it cut (intervals first, then circles).  The drivers
    vouch for removability in dimension 2 themselves (``s.n == 2``)."""
    _record(s, "eliminate_matching_pair",
            {"cusp1": c1_id, "cusp2": c2_id, "reconnection": reconnection,
             "assume_removable": assume_removable})
    if c1_id == c2_id:
        raise PreconditionError("need two distinct cusps")
    n = s.n
    k1, pos1, cusp1 = s.find(c1_id, Cusp)
    k2, pos2, cusp2 = s.find(c2_id, Cusp)
    if cusp1.normal_index + cusp2.normal_index != n - 2:
        raise PreconditionError(
            f"cusps {c1_id!r} (I={cusp1.normal_index}) and {c2_id!r} "
            f"(I={cusp2.normal_index}) are not a matching pair for n={n}")
    if n == 2 and not assume_removable:
        raise PreconditionError(
            "eliminations in ambient dimension 2 need assume_removable=True")
    fused = _fused_ends(s, (k1, pos1), (k2, pos2), reconnection)
    for (_, a), (_, b) in fused:
        if a.tau != b.tau:
            raise PreconditionError(
                f"reconnection {reconnection!r} would fuse arcs "
                f"{a.id!r} (tau={a.tau}) and {b.id!r} (tau={b.tau}) of "
                f"unequal index")

    if k1 == k2:
        cuts = [(k1, sorted((pos1, pos2)))]
    else:
        cuts = sorted([(k1, [pos1]), (k2, [pos2])],
                      key=lambda cut: s.order.index(cut[0]))
    paths: list[_Path] = []
    for key, positions in cuts:
        paths.extend(_cut_component(s.comps[key], positions))
    intervals, circles, dropped = _glue(
        paths, [(("cut", c1_id, side1), ("cut", c2_id, side2))
                for (side1, _), (side2, _) in fused])
    return s.rewire([key for key, _ in cuts], intervals + circles,
                    [c1_id, c2_id] + dropped)


def eliminate_matching_pair(p: SingularPattern, c1_id: str, c2_id: str,
                            reconnection: str = STAY,
                            assume_removable: bool = False) -> SingularPattern:
    """Eliminate a matching pair of cusps (normal indices summing to n-2).

    In ambient dimension 2 removability depends on data the pattern does
    not carry and must be vouched for via ``assume_removable``; from
    dimension 3 on it is automatic.
    """
    _require(p)
    s = _State(p)
    _eliminate(s, c1_id, c2_id, reconnection, assume_removable)
    return s.pattern()


def _apply(s: _State, move: Move):
    """Replay one recorded move on the run's state."""
    k, params = move.kind, move.params
    if k == "create_cusp_pair":
        return _create(s, params["arc"], params["i"],
                       params.get("flip", False))
    if k == "eliminate_matching_pair":
        return _eliminate(s, params["cusp1"], params["cusp2"],
                          params.get("reconnection", STAY),
                          params.get("assume_removable", False))
    raise PreconditionError(f"unknown move kind {k!r}")


def _ladder_to(s: _State, key: int, target_tau: int) -> str:
    """Create pairs on a component until it carries an arc of the target
    index, and return the id of the first such arc.

    Each step creates on the lowest-index arc, whose inner arc is then the
    only arc one index lower; so the ladder follows the inner arcs, and
    needs exactly (lowest index - target) steps, refused up front when they
    would overrun the move budget."""
    arcs = s.comps[key].arcs()
    hit = next((a for a in arcs if a.tau == target_tau), None)
    if hit is not None:
        return hit.id
    tmin = min(a.tau for a in arcs)
    if tmin <= target_tau:
        raise AssertionError("internal: ladder overshot the target index")
    if len(s.moves) + tmin - target_tau > MAX_MOVES:
        raise _budget_error()
    arc_id = next(a for a in arcs if a.tau == tmin).id
    for tau in range(tmin, target_tau, -1):
        arc_id = _create(s, arc_id, s.n - 1 - tau)[2]
    return arc_id


def _toggle_parity(s: _State, key: int) -> None:
    target = s.n // 2
    arc = _ladder_to(s, key, target)
    c1, _, _, right = _create(s, arc, target - 1)
    assert right is not None
    d1 = _create(s, right, target - 1)[0]
    # both created pairs sit at the exceptional index, so SPLIT is legal;
    # it detaches the circle carrying the middle cusp, leaving one extra
    # cusp on the interval
    _eliminate(s, c1, d1, SPLIT, s.n == 2)


def toggle_parity(p: SingularPattern, comp_idx: int) -> SingularPattern:
    """Flip the cusp-count parity of an interval component (even n only).

    The interval gains one cusp net and a one-cusp circle appears next to
    it; total cusp count changes by +2.
    """
    _require(p, parity=0)
    s = _State(p)
    key = s.key_at(comp_idx)
    if s.comps[key].kind != INTERVAL:
        raise PreconditionError("parity toggle acts on interval components")
    _toggle_parity(s, key)
    return s.pattern()


def _merge(s: _State, key_a: int, key_b: int,
           endpoint_a: Optional[str] = None,
           endpoint_b: Optional[str] = None) -> None:
    comp_a, comp_b = s.comps[key_a], s.comps[key_b]
    # which end of its interval each designated endpoint is
    ends = [0 if x is None else comp.endpoints.index(x)
            for comp, x in ((comp_a, endpoint_a), (comp_b, endpoint_b))]
    # The elimination cuts A and B at one created cusp each.  Unflipped, the
    # only legal pairing is SPLIT, which joins opposite ends of A and B;
    # flipping B's pair makes it STAY, which joins equal ends.  With a circle
    # any outcome is the merge.
    flip = (comp_a.kind == comp_b.kind == INTERVAL and ends[0] == ends[1])
    t = (s.n - 1) // 2
    arc_a = _ladder_to(s, key_a, t)
    arc_b = _ladder_to(s, key_b, t)
    ca = _create(s, arc_a, t)[1]
    b1, b2, _, _ = _create(s, arc_b, t, flip)
    # cross pair with indices summing to n-2: the (t-1)-cusp from a with
    # the t-cusp from b
    _eliminate(s, ca, b2 if flip else b1, STAY if flip else SPLIT, s.n == 2)


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
    if idx_a == idx_b:
        raise PreconditionError("need two distinct components")
    s = _State(p)
    keys = []
    for idx, point_id in ((idx_a, endpoint_a), (idx_b, endpoint_b)):
        keys.append(s.key_at(idx))
        if point_id is not None and point_id not in (
                s.comps[keys[-1]].endpoints or ()):
            raise PreconditionError(
                f"{point_id!r} is not an endpoint of component {idx}")
    _merge(s, keys[0], keys[1], endpoint_a, endpoint_b)
    return s.pattern()


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

    s = _State(p)
    # a toggle fixes its interval and touches no other, so the failing
    # intervals are toggled in order, each once
    for key in [key for key in s.order
                if s.comps[key].kind == INTERVAL
                and not _even_ok(s.comps[key], sigma)]:
        _toggle_parity(s, key)

    # fusing two odd circles leaves one even circle in place of the first,
    # so the odd circles are fused in order, two by two
    odd = [key for key in s.order if s.comps[key].kind == CIRCLE
           and s.comps[key].cusp_count % 2 == 1]
    assert len(odd) % 2 == 0, "parity bookkeeping leaves odd circles in pairs"
    for k1, k2 in zip(odd[::2], odd[1::2]):
        c1 = _first_exceptional_cusp(s.comps[k1], n)
        c2 = _first_exceptional_cusp(s.comps[k2], n)
        # exceptional cusps abut only arcs of index n/2, so STAY is legal
        [fused] = _eliminate(s, c1.id, c2.id, STAY, s.n == 2)
        if n == 2:
            # dimension 2 admits a stronger rewrite: the fused circle can
            # be made cusp-free outright, two cusps at a time
            while s.comps[fused].cusp_count:
                ca, cb = s.comps[fused].cusps()[:2]
                [fused] = _eliminate(s, ca.id, cb.id, STAY, s.n == 2)

    final = s.pattern()
    assert all(_even_ok(comp, sigma) for comp in final.components)
    return MoveTrace(p, tuple(s.moves), final)


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
    s = _State(p)
    for x, y in zip(plus, minus):
        # a valid pattern ends exactly one interval on each boundary point
        kx, ky = s.ends[x], s.ends[y]
        if kx != ky:
            _merge(s, kx, ky, x, y)

    final = s.pattern()
    assert all(_odd_ok(comp, by_id, sigma) for comp in final.components)
    return MoveTrace(p, tuple(s.moves), final)


def apply_move(p: SingularPattern, move: Move) -> SingularPattern:
    """Replay a single recorded move."""
    _require(p)
    s = _State(p)
    _apply(s, move)
    return s.pattern()


def replay(trace: MoveTrace) -> SingularPattern:
    """Re-run a trace from its initial pattern; callers compare to final."""
    validate_pattern(trace.initial).require("initial pattern")
    s = _State(trace.initial)
    for move in trace.moves:
        _apply(s, move)
    return s.pattern()
