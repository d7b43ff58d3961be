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

Each public move, driver and ``replay`` validates its (initial) pattern
once and raises ``PreconditionError`` for an invalid one.  Unless it needs
no move, it then builds one working state (``_State``) and runs every move
of the call on it.  Both moves are local, so a valid pattern stays valid
when a move's own preconditions hold; inside, each move checks only what it
touches: the transitions at created cusps, equal indices on fused arcs and
the re-paired interval ends.  One run does at most ``MAX_MOVES`` moves.

The state holds each component as a mutable word (``_Word``): one list of
its elements, indexed by element id and interval endpoint.  Two pools hand
out fresh names, and ``Component`` tuples are built for every word when
the run ends.  A word alternates arc, cusp, arc, ..., so it carries
``len // 2`` cusps and its arcs are the slice ``[::2]``.  A creation
inserts three or four elements after its arc and leaves a position hint at
the inner arc, which a ladder (or its replay) names next; only the insert
(a memmove of the list's tail) grows with the word.  An elimination cuts
its one or two words at the two cusps into plain lists whose ends carry
small-integer labels, glues them through a dict from label to path, and
indexes the words it made: time linear in the words it cuts.
"""

from __future__ import annotations

import heapq
import re
from collections.abc import Container
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
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
    "replay",
]

STAY = "stay"
SPLIT = "split"
MAX_MOVES = 10 ** 5  # move budget of one run: a driver call or a replay


@dataclass(frozen=True, slots=True)
class Move:
    """One rewriting step, replayable from its parameters alone."""

    kind: str
    params: dict


@dataclass(frozen=True, slots=True)
class MoveTrace:
    """A rewrite certificate: replaying ``moves`` from ``initial`` must
    reproduce ``final`` exactly."""

    initial: SingularPattern
    moves: tuple[Move, ...]
    final: SingularPattern


@dataclass(frozen=True, slots=True)
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
    below ``top`` whose names were released since.  Every name handed out
    matches ``_NUMBERED``, which reads its number back when it is freed.
    """

    def __init__(self, prefix: str, live: Container[str]):
        self.prefix = prefix
        self.live = live
        self.free: list[int] = []
        self.top = 0

    def take(self) -> str:
        if self.free:
            return f"{self.prefix}{heapq.heappop(self.free)}"
        k = self.top
        name = f"{self.prefix}{k}"
        while name in self.live:
            k += 1
            name = f"{self.prefix}{k}"
        self.top = k + 1
        return name

    def release(self, k: int) -> None:
        if k < self.top:
            heapq.heappush(self.free, k)


class _Word:
    """One component inside a run, held in one list: ``sequence`` lists its
    arcs and cusps as a ``Component``'s does, and ``hint`` is the position
    to try first when looking up an id.  Like a ``Component`` it answers
    ``kind``, ``endpoints`` and ``cusp_count``, so the pattern's
    per-component laws apply to it; ``_State.pattern`` builds the
    ``Component`` of every word when the run ends."""

    __slots__ = ("kind", "sequence", "endpoints", "hint")

    def __init__(self, kind: str, sequence: list, endpoints):
        self.kind = kind
        self.sequence = sequence
        self.endpoints = endpoints
        self.hint = 0

    @property
    def cusp_count(self) -> int:
        return len(self.sequence) // 2


class _State:
    """One run's working copy of a validated pattern, rewritten in place.

    ``order`` lists the components' words.  ``home`` maps each element id
    to its word; ``names`` holds the cusp ("c") and arc ("a") name pools.
    ``moves`` records every move applied so far.
    """

    def __init__(self, p: SingularPattern):
        self.p = p
        self.n = p.n
        self.order = [_Word(comp.kind, list(comp.sequence), comp.endpoints)
                      for comp in p.components]
        self.home: dict[str, _Word] = {}
        self._index(self.order)
        self.names = {"c": _NamePool("c", self.home),
                      "a": _NamePool("a", self.home)}
        self.moves: list[Move] = []

    def _index(self, words: list[_Word]) -> None:
        home = self.home
        for w in words:
            for e in w.sequence:
                home[e.id] = w

    def word_at(self, idx: int) -> _Word:
        if not 0 <= idx < len(self.order):
            raise PreconditionError(f"no component {idx}")
        return self.order[idx]

    def find(self, eid: str, kind: type) -> tuple[_Word, int, Element]:
        """(word, position, element) of the arc or cusp with this id."""
        w = self.home.get(eid)
        if w is not None:
            seq, pos = w.sequence, w.hint
            if pos >= len(seq) or seq[pos].id != eid:
                pos = list(map(attrgetter("id"), seq)).index(eid)
            e = seq[pos]
            if isinstance(e, kind):
                return w, pos, e
        raise _missing(eid, kind)

    def splice(self, w: _Word, pos: int, new: tuple[Element, ...]) -> None:
        """Insert freshly named elements (cusp, inner arc, ...) after word
        position pos, and hint at the inner arc."""
        w.sequence[pos + 1:pos + 1] = new
        w.hint = pos + 2
        for e in new:
            self.home[e.id] = w

    def rewire(self, old: list[_Word], new: list[tuple],
               freed: list[str]) -> list[_Word]:
        """Replace the words ``old`` by new words (kind, elements,
        endpoints) where the first old one stood, and return them.  They
        hold every old element but the ``freed``, whose names return to
        the pools."""
        order = self.order
        at = order.index(old[0])
        for w in old:
            order.remove(w)
        words = [_Word(*spec) for spec in new]
        order[at:at] = words
        self._index(words)
        for eid in freed:
            del self.home[eid]
            if m := _NUMBERED.fullmatch(eid):
                self.names[m[1]].release(int(m[2]))
        return words

    def pattern(self) -> SingularPattern:
        p = self.p
        return SingularPattern(p.n, tuple(
            Component(w.kind, tuple(w.sequence), w.endpoints)
            for w in self.order), p.boundary_points, p.chi_ambient)


def _missing(eid: str, kind: type) -> PreconditionError:
    what = "fold arc" if kind is FoldArc else "cusp"
    return PreconditionError(f"no {what} with id {eid!r}")


def _scan(components: tuple[Component, ...], eid: str,
          kind: type) -> tuple[Component, int, Element]:
    """``_State.find`` on a pattern's own components, for a caller that
    moves nothing: a scan up to the id, which copies and indexes no word."""
    for comp in components:
        for pos, e in enumerate(comp.sequence):
            if e.id == eid and isinstance(e, kind):
                return comp, pos, e
    raise _missing(eid, kind)


def _budget_error() -> PreconditionError:
    return PreconditionError(
        f"the rewrite needs more than {MAX_MOVES} moves, the budget of one "
        f"run")


def _record(s: _State, move: Move) -> None:
    """Record one atomic move of the run, replayed or not.  Both moves
    record themselves here, so here the run's budget is kept."""
    if len(s.moves) >= MAX_MOVES:
        raise _budget_error()
    s.moves.append(move)


def _create(s: _State, arc: str, i: int, flip: bool = False
            ) -> tuple[str, str, str, Optional[str]]:
    """Create the pair; returns the ids of the two cusps, the inner arc and
    the new right arc (None on a bare circle, whose arc is not split)."""
    _record(s, Move("create_cusp_pair", {"arc": arc, "i": i, "flip": flip}))
    n = s.n
    if not 0 <= i <= n - 2:
        raise PreconditionError(f"cusp index i={i} outside [0, {n - 2}]")
    w, pos, host = s.find(arc, FoldArc)
    want = max(i, n - 1 - i)
    if host.tau != want:
        raise PreconditionError(
            f"arc {arc!r} has tau={host.tau}; creating a pair with i={i} "
            f"needs tau={want}")
    cusps, arcs = s.names["c"], s.names["a"]
    c1 = Cusp(cusps.take(), n - 2 - i if flip else i)
    c2 = Cusp(cusps.take(), i if flip else n - 2 - i)
    inner = FoldArc(arcs.take(), max(i + 1, n - 2 - i))
    if w.kind == CIRCLE and len(w.sequence) == 1:
        # the remainder of a bare circle is a single arc, so no split
        right = host
        new = (c1, inner, c2)
    else:
        right = FoldArc(arcs.take(), want)
        new = (c1, inner, c2, right)
    s.splice(w, pos, new)
    return c1.id, c2.id, inner.id, None if right is host else right.id


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


def _cut(w: _Word, cuts: list[tuple[int, int]]) -> list[list]:
    """Remove cusps, given as (position, label) by ascending position, from
    one word; return open paths [elements, left end, right end].  The ends
    left and right of a removed cusp are labeled label and label + 1, an
    interval's own ends by their boundary point ids."""
    elems = w.sequence
    if w.kind == CIRCLE:
        if len(cuts) == 1:
            (q, k), = cuts
            return [[elems[q + 1:] + elems[:q], k + 1, k]]
        (q1, k1), (q2, k2) = cuts
        return [[elems[q1 + 1:q2], k1 + 1, k2],
                [elems[q2 + 1:] + elems[:q1], k2 + 1, k1]]
    paths = []
    prev, left = 0, w.endpoints[0]
    for q, k in cuts:
        paths.append([elems[prev:q], left, k])
        prev, left = q + 1, k + 1
    paths.append([elems[prev:], left, w.endpoints[1]])
    return paths


def _fuse(a: FoldArc, b: FoldArc, dropped: list[str]) -> FoldArc:
    """Two distinct arcs of equal index become one, under the smaller id;
    the other id joins ``dropped``."""
    if a.tau != b.tau:
        raise AssertionError(f"internal: fusing unequal arcs {a}, {b}")
    keep, drop = (a, b) if a.id < b.id else (b, a)
    dropped.append(drop.id)
    return keep


def _glue(paths: list[list], fusions: list[tuple[int, int]]
          ) -> tuple[list[tuple], list[tuple], list[str]]:
    """Apply end fusions (pairs of ``_cut`` labels); return the open
    intervals and the closed circles as (kind, elements, endpoints), and
    the ids of the arcs fused away.  A merged path takes the place of its
    first part among the paths."""
    dropped: list[str] = []
    at_end = {}
    for path in paths:
        at_end[path[1]] = at_end[path[2]] = path
    circles: list[tuple] = []
    for la, lb in fusions:
        pa, pb = at_end.pop(la), at_end.pop(lb)
        elems = pa[0]
        if pa is pb:
            if len(elems) > 1:
                elems = [_fuse(elems[0], elems[-1], dropped)] + elems[1:-1]
            circles.append((CIRCLE, elems, None))
            pa[0] = None
            continue
        # orient pa to end at la and pb to start at lb
        left = pa[1] if pa[2] == la else pa[2]
        if pa[2] != la:
            elems = elems[::-1]
        right, tail = (pb[2], pb[0]) if pb[1] == lb else (pb[1], pb[0][::-1])
        elems[-1] = _fuse(elems[-1], tail[0], dropped)
        elems.extend(tail[1:])
        pa[:] = [elems, left, right]
        at_end[right] = pa
        pb[0] = None
    intervals = []
    for elems, left, right in paths:
        if elems is None:
            continue
        if type(left) is int or type(right) is int:
            raise AssertionError("internal: unfused cut end left over")
        intervals.append((INTERVAL, elems, (left, right)))
    return intervals, circles, dropped


def _fused_ends(at1: tuple, at2: tuple, reconnection: str):
    """The two end pairs an elimination fuses, each as ((label, arc) at the
    first cusp, (label, arc) at the second); ``at1``/``at2`` give each
    cusp's (word, position).  The ends left and right of the first cusp
    are labeled 0 and 1, of the second 2 and 3, as ``_cut`` labels them."""
    l1, r1 = _abutting_arcs(*at1)
    l2, r2 = _abutting_arcs(*at2)
    if reconnection == STAY:
        return (((0, l1), (2, l2)), ((1, r1), (3, r2)))
    if reconnection == SPLIT:
        return (((0, l1), (3, r2)), ((1, r1), (2, l2)))
    raise PreconditionError(f"unknown reconnection {reconnection!r}")


def _matching_pair(n: int, find, c1_id: str, c2_id: str) -> tuple:
    """Each cusp's (word, position), once the two ids name two distinct
    cusps whose normal indices sum to n-2; ``find`` looks an id up as
    ``_State.find`` does."""
    if c1_id == c2_id:
        raise PreconditionError("need two distinct cusps")
    w1, pos1, cusp1 = find(c1_id, Cusp)
    w2, pos2, cusp2 = find(c2_id, Cusp)
    if cusp1.normal_index + cusp2.normal_index != n - 2:
        raise PreconditionError(
            f"cusps {c1_id!r} (I={cusp1.normal_index}) and {c2_id!r} "
            f"(I={cusp2.normal_index}) are not a matching pair for n={n}")
    return (w1, pos1), (w2, pos2)


def legal_reconnections(p: SingularPattern, c1_id: str,
                        c2_id: str) -> tuple[str, ...]:
    """The reconnections ``eliminate_matching_pair(p, c1_id, c2_id, recon,
    assume_removable=True)`` accepts: those fusing arcs of equal index only.
    For an invalid pattern or a repeated, missing or non-matching cusp it
    raises the elimination's own ``PreconditionError``."""
    _require(p)
    at1, at2 = _matching_pair(p.n, partial(_scan, p.components), c1_id,
                              c2_id)
    return tuple(recon for recon in (STAY, SPLIT)
                 if all(a.tau == b.tau for (_, a), (_, b)
                        in _fused_ends(at1, at2, recon)))


def _eliminate(s: _State, cusp1: str, cusp2: str, reconnection: str = STAY,
               assume_removable: bool = False) -> list[_Word]:
    """Eliminate the pair; returns the words it leaves in place of the ones
    it cut (intervals first, then circles).  The drivers vouch for
    removability in dimension 2 themselves (``s.n == 2``)."""
    _record(s, Move("eliminate_matching_pair", {
        "cusp1": cusp1, "cusp2": cusp2, "reconnection": reconnection,
        "assume_removable": assume_removable}))
    at1, at2 = _matching_pair(s.n, s.find, cusp1, cusp2)
    if s.n == 2 and not assume_removable:
        raise PreconditionError(
            "eliminations in ambient dimension 2 need assume_removable=True")
    fusions = []
    for (end1, a), (end2, b) in _fused_ends(at1, at2, reconnection):
        if a.tau != b.tau:
            raise PreconditionError(
                f"reconnection {reconnection!r} would fuse arcs "
                f"{a.id!r} (tau={a.tau}) and {b.id!r} (tau={b.tau}) of "
                f"unequal index")
        fusions.append((end1, end2))

    (w1, pos1), (w2, pos2) = at1, at2
    if w1 is w2:
        cuts = [(w1, sorted([(pos1, 0), (pos2, 2)]))]
    elif s.order.index(w1) < s.order.index(w2):
        cuts = [(w1, [(pos1, 0)]), (w2, [(pos2, 2)])]
    else:
        cuts = [(w2, [(pos2, 2)]), (w1, [(pos1, 0)])]
    paths = [path for w, at in cuts for path in _cut(w, at)]
    intervals, circles, dropped = _glue(paths, fusions)
    return s.rewire([w for w, _ in cuts], intervals + circles,
                    [cusp1, cusp2] + dropped)


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


# each atomic move by kind; a move's params are its keyword arguments
_MOVES = {"create_cusp_pair": _create, "eliminate_matching_pair": _eliminate}


def _apply(s: _State, move: Move):
    """Replay one recorded move on the run's state."""
    if move.kind not in _MOVES:
        raise PreconditionError(f"unknown move kind {move.kind!r}")
    return _MOVES[move.kind](s, **move.params)


def _ladder_to(s: _State, w: _Word, target_tau: int) -> str:
    """Create pairs on a component until it carries an arc of the target
    index, and return the id of the first such arc.

    Each step creates on the lowest-index arc, whose inner arc is then the
    only arc one index lower; so the ladder follows the inner arcs, and
    needs exactly (lowest index - target) steps, refused up front when they
    would overrun the move budget."""
    arcs = w.sequence[::2]
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


def _toggle_parity(s: _State, w: _Word) -> None:
    target = s.n // 2
    arc = _ladder_to(s, w, target)
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
    w = s.word_at(comp_idx)
    if w.kind != INTERVAL:
        raise PreconditionError("parity toggle acts on interval components")
    _toggle_parity(s, w)
    return s.pattern()


def _merge(s: _State, wa: _Word, wb: _Word,
           endpoint_a: Optional[str] = None,
           endpoint_b: Optional[str] = None) -> None:
    # which end of its interval each designated endpoint is
    ends = [0 if x is None else w.endpoints.index(x)
            for w, x in ((wa, endpoint_a), (wb, endpoint_b))]
    # The elimination cuts A and B at one created cusp each.  Unflipped, the
    # only legal pairing is SPLIT, which joins opposite ends of A and B;
    # flipping B's pair makes it STAY, which joins equal ends.  With a circle
    # any outcome is the merge.
    flip = wa.kind == wb.kind == INTERVAL and ends[0] == ends[1]
    t = (s.n - 1) // 2
    arc_a = _ladder_to(s, wa, t)
    arc_b = _ladder_to(s, wb, t)
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
    words = []
    for idx, point_id in ((idx_a, endpoint_a), (idx_b, endpoint_b)):
        words.append(s.word_at(idx))
        if point_id is not None and point_id not in (
                words[-1].endpoints or ()):
            raise PreconditionError(
                f"{point_id!r} is not an endpoint of component {idx}")
    _merge(s, *words, endpoint_a, endpoint_b)
    return s.pattern()


def _first_exceptional_cusp(w: _Word, n: int) -> str:
    want = (n - 2) // 2
    for c in w.sequence[1::2]:
        if c.normal_index == want:
            return c.id
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
    if all(_even_ok(comp, sigma) for comp in p.components):
        return MoveTrace(p, (), p)

    s = _State(p)
    # a toggle fixes its interval and touches no other, so the failing
    # intervals are toggled in order, each once
    for w in [w for w in s.order
              if w.kind == INTERVAL and not _even_ok(w, sigma)]:
        _toggle_parity(s, w)

    # fusing two odd circles leaves one even circle in place of the first,
    # so the odd circles are fused in order, two by two
    odd = [w for w in s.order if w.kind == CIRCLE and w.cusp_count % 2 == 1]
    assert len(odd) % 2 == 0, "parity bookkeeping leaves odd circles in pairs"
    for w1, w2 in zip(odd[::2], odd[1::2]):
        c1 = _first_exceptional_cusp(w1, n)
        c2 = _first_exceptional_cusp(w2, n)
        # exceptional cusps abut only arcs of index n/2, so STAY is legal
        [fused] = _eliminate(s, c1, c2, STAY, s.n == 2)
        if n == 2:
            # dimension 2 admits a stronger rewrite: the fused circle can
            # be made cusp-free outright, two cusps at a time
            while fused.cusp_count:
                ca, cb = fused.sequence[1].id, fused.sequence[3].id
                [fused] = _eliminate(s, ca, cb, STAY, s.n == 2)

    assert all(_even_ok(w, sigma) for w in s.order)
    return MoveTrace(p, tuple(s.moves), s.pattern())


def normalize_odd(p: SingularPattern,
                  sigma: SignAssignment) -> Union[MoveTrace, Obstruction]:
    """Rewrite an odd-n pattern until every interval's weighted endpoint
    signs cancel, or report why none can.

    Succeeds iff the total weighted sign sum vanishes; otherwise returns a
    sign-sum obstruction.  On success the trace merges the failing
    intervals, those whose two ends weigh alike, in order: each one whose
    ends weigh +1 with one whose ends weigh -1.
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
    if all(_odd_ok(comp, by_id, sigma) for comp in p.components):
        return MoveTrace(p, (), p)

    s = _State(p)
    # a merge joins the first ends of its two intervals, and their second
    # ends, and touches no other component; so each pair of opposite
    # weights leaves two passing intervals
    bad = [w for w in s.order if not _odd_ok(w, by_id, sigma)]
    plus = [w for w in bad if eps[w.endpoints[0]] == 1]
    minus = [w for w in bad if eps[w.endpoints[0]] == -1]
    for wa, wb in zip(plus, minus):
        _merge(s, wa, wb)

    assert all(_odd_ok(w, by_id, sigma) for w in s.order)
    return MoveTrace(p, tuple(s.moves), s.pattern())


def replay(trace: MoveTrace) -> SingularPattern:
    """Re-run a trace from its initial pattern; callers compare to final."""
    validate_pattern(trace.initial).require("initial pattern")
    if not trace.moves:
        return trace.initial
    s = _State(trace.initial)
    for move in trace.moves:
        _apply(s, move)
    return s.pattern()
