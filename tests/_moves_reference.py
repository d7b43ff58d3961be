"""Reference oracle for the move engine: one pattern rebuilt per move.

This is the per-move algorithm the indexed engine in ``moves`` must
reproduce exactly: every move locates its elements by scanning the whole
pattern, collects the set of all live ids to name what it creates, and
returns a new frozen pattern; the drivers rescan every component after each
step.  It shares only the data types and the pattern laws with the
package, so the traces, finals and obstructions of both can be compared
byte for byte; ``_fresh_names`` is also the oracle for the package's pool
of free names.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from cuspcobord.errors import PreconditionError
from cuspcobord.invariants import SignAssignment, _chi_plus_sigma
from cuspcobord.moves import SPLIT, STAY, Move, MoveTrace, Obstruction
from cuspcobord.pattern import (
    CIRCLE,
    INTERVAL,
    Component,
    Cusp,
    FoldArc,
    SingularPattern,
    validate_pattern,
)
from cuspcobord.pattern import (
    _abutting_arcs,
    _even_ok,
    _odd_ok,
    _require,
    _transition_ok,
)


def _fresh_names(used: set[str], prefix: str):
    """Names prefix0, prefix1, ... not in ``used``, smallest first; each name
    handed out is added to ``used``."""
    k = 0
    while True:
        cand = f"{prefix}{k}"
        k += 1
        if cand not in used:
            used.add(cand)
            yield cand


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
        right = arc
        seq = (arc, c1, inner, c2)
    else:
        right = FoldArc(next(arc_names), arc.tau)
        seq = (comp.sequence[:pos]
               + (arc, c1, inner, c2, right)
               + comp.sequence[pos + 1:])
    assert (_transition_ok(c1, arc, inner, n)
            and _transition_ok(c2, inner, right, n))
    new_comp = replace(comp, sequence=seq)
    comps = p.components[:ci] + (new_comp,) + p.components[ci + 1:]
    info = {"cusp1": c1.id, "cusp2": c2.id, "inner_arc": inner.id,
            "right_arc": None if right is arc else right.id}
    return replace(p, components=comps), info


def create_cusp_pair(p: SingularPattern, arc_id: str, i: int,
                     flip: bool = False) -> SingularPattern:
    _require(p)
    return _create(p, arc_id, i, flip)[0]


@dataclass
class _Path:
    elements: list
    left: tuple
    right: tuple

    def reversed_(self) -> "_Path":
        return _Path(list(reversed(self.elements)), self.right, self.left)


def _cut_component(comp: Component, cusp_ids: list[str]) -> list[_Path]:
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
    assert a.tau == b.tau
    return FoldArc(min(a.id, b.id), a.tau)


def _glue(paths: list[_Path], fusions):
    circles: list[Component] = []

    def find(label: tuple) -> _Path:
        for path in paths:
            if path.left == label or path.right == label:
                return path
        raise AssertionError(f"no path end labeled {label}")

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
        assert path.left[0] == "bd" and path.right[0] == "bd"
        intervals.append(Component(INTERVAL, tuple(path.elements),
                                   (path.left[1], path.right[1])))
    return intervals, circles


def _fusion_plan(p: SingularPattern, c1_id: str, c2_id: str,
                 reconnection: str):
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


def _matching_pair(p: SingularPattern, c1_id: str, c2_id: str) -> None:
    if c1_id == c2_id:
        raise PreconditionError("need two distinct cusps")
    ci1, pos1 = _locate(p, c1_id, Cusp)
    ci2, pos2 = _locate(p, c2_id, Cusp)
    cusp1 = p.components[ci1].sequence[pos1]
    cusp2 = p.components[ci2].sequence[pos2]
    if cusp1.normal_index + cusp2.normal_index != p.n - 2:
        raise PreconditionError(
            f"cusps {c1_id!r} (I={cusp1.normal_index}) and {c2_id!r} "
            f"(I={cusp2.normal_index}) are not a matching pair for n={p.n}")


def legal_reconnections(p: SingularPattern, c1_id: str,
                        c2_id: str) -> tuple[str, ...]:
    _matching_pair(p, c1_id, c2_id)
    out = []
    for recon in (STAY, SPLIT):
        _, arc_pairs, _ = _fusion_plan(p, c1_id, c2_id, recon)
        if all(a.tau == b.tau for a, b in arc_pairs):
            out.append(recon)
    return tuple(out)


def _eliminate(p: SingularPattern, c1_id: str, c2_id: str,
               reconnection: str, assume_removable: bool) -> SingularPattern:
    _matching_pair(p, c1_id, c2_id)
    if p.n == 2 and not assume_removable:
        raise PreconditionError(
            "eliminations in ambient dimension 2 need assume_removable=True")
    (ci1, ci2), arc_pairs, label_pairs = _fusion_plan(p, c1_id, c2_id,
                                                      reconnection)
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
    _require(p)
    return _eliminate(p, c1_id, c2_id, reconnection, assume_removable)


def _do_create(p, moves, arc_id, i, flip=False):
    moves.append(Move("create_cusp_pair",
                      {"arc": arc_id, "i": i, "flip": flip}))
    return _create(p, arc_id, i, flip)


def _do_eliminate(p, moves, c1_id, c2_id, reconnection):
    assume_removable = p.n == 2
    moves.append(Move("eliminate_matching_pair",
                      {"cusp1": c1_id, "cusp2": c2_id,
                       "reconnection": reconnection,
                       "assume_removable": assume_removable}))
    return _eliminate(p, c1_id, c2_id, reconnection, assume_removable)


def _ladder_to(p, comp_idx, target_tau, moves):
    cur = p
    n = p.n
    while True:
        comp = cur.components[comp_idx]
        arcs = comp.sequence[::2]
        if any(a.tau == target_tau for a in arcs):
            return cur
        tmin = min(a.tau for a in arcs)
        assert tmin > target_tau
        arc = next(a for a in arcs if a.tau == tmin)
        cur, _ = _do_create(cur, moves, arc.id, n - 1 - tmin)


def _toggle_parity(p, comp_idx, moves):
    target = p.n // 2
    cur = _ladder_to(p, comp_idx, target, moves)
    comp = cur.components[comp_idx]
    arc_a = next(a for a in comp.sequence[::2] if a.tau == target)
    cur, info1 = _do_create(cur, moves, arc_a.id, target - 1)
    cur, info2 = _do_create(cur, moves, info1["right_arc"], target - 1)
    return _do_eliminate(cur, moves, info1["cusp1"], info2["cusp1"], SPLIT)


def _endpoint_home(p: SingularPattern, point_id: str) -> int:
    for ci, comp in enumerate(p.components):
        if comp.kind == INTERVAL and point_id in comp.endpoints:
            return ci
    raise AssertionError(f"{point_id!r} is not an interval endpoint")


def _merge(p, idx_a, idx_b, moves, endpoint_a=None, endpoint_b=None):
    n = p.n
    ends = []
    for idx, point_id in ((idx_a, endpoint_a), (idx_b, endpoint_b)):
        points = p.components[idx].endpoints or ()
        ends.append(0 if point_id is None else points.index(point_id))
    flip = (p.components[idx_a].kind == p.components[idx_b].kind == INTERVAL
            and ends[0] == ends[1])
    t = (n - 1) // 2
    cur = _ladder_to(p, idx_a, t, moves)
    cur = _ladder_to(cur, idx_b, t, moves)
    arc_a = next(a for a in cur.components[idx_a].sequence[::2] if a.tau == t)
    cur, info_a = _do_create(cur, moves, arc_a.id, t)
    arc_b = next(a for a in cur.components[idx_b].sequence[::2] if a.tau == t)
    cur, info_b = _do_create(cur, moves, arc_b.id, t, flip)
    ca = info_a["cusp2"]
    cb = info_b["cusp2"] if flip else info_b["cusp1"]
    return _do_eliminate(cur, moves, ca, cb, STAY if flip else SPLIT)


def _first_exceptional_cusp(comp: Component, n: int) -> Cusp:
    want = (n - 2) // 2
    return next(c for c in comp.sequence[1::2] if c.normal_index == want)


def normalize_even(p: SingularPattern, sigma: SignAssignment,
                   chi_V: int) -> Union[MoveTrace, Obstruction]:
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
        assert len(odd) >= 2
        i1, i2 = odd[0], odd[1]
        c1 = _first_exceptional_cusp(cur.components[i1], n)
        c2 = _first_exceptional_cusp(cur.components[i2], n)
        cur = _do_eliminate(cur, moves, c1.id, c2.id, STAY)
        if n == 2:
            at = min(i1, i2)
            while cur.components[at].cusp_count:
                cusps = cur.components[at].sequence[1::2]
                cur = _do_eliminate(cur, moves, cusps[0].id, cusps[1].id,
                                    STAY)

    assert all(_even_ok(comp, sigma) for comp in cur.components)
    return MoveTrace(p, tuple(moves), cur)


def normalize_odd(p: SingularPattern,
                  sigma: SignAssignment) -> Union[MoveTrace, Obstruction]:
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

    bad = [comp.endpoints[0] for comp in p.components
           if not _odd_ok(comp, by_id, sigma)]
    plus = [x for x in bad if eps[x] == 1]
    minus = [x for x in bad if eps[x] == -1]
    cur = p
    moves: list[Move] = []
    for x, y in zip(plus, minus):
        ix = _endpoint_home(cur, x)
        iy = _endpoint_home(cur, y)
        cur = _merge(cur, ix, iy, moves, x, y)

    assert all(_odd_ok(comp, by_id, sigma) for comp in cur.components)
    return MoveTrace(p, tuple(moves), cur)


def normalize(p: SingularPattern, sigma: SignAssignment,
              chi_V: Optional[int] = None) -> Union[MoveTrace, Obstruction]:
    """The driver of the pattern's dimension parity."""
    if p.n % 2 == 0:
        return normalize_even(p, sigma, chi_V)
    return normalize_odd(p, sigma)


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


def replay(trace: MoveTrace) -> SingularPattern:
    validate_pattern(trace.initial).require("initial pattern")
    cur = trace.initial
    for move in trace.moves:
        cur = _apply(cur, move)
    return cur
