"""Move engine: creation, elimination, composite drivers, normalization."""

import json
import random
import time
from dataclasses import replace

import pytest

from cuspcobord import moves as mv
from cuspcobord import pattern as pat
from cuspcobord.errors import PreconditionError
from cuspcobord.invariants import SignAssignment, chi_plus_sigma
from cuspcobord.moves import (
    SPLIT,
    STAY,
    Move,
    MoveTrace,
    Obstruction,
    create_cusp_pair,
    eliminate_matching_pair,
    legal_reconnections,
    merge_components,
    normalize_even,
    normalize_odd,
    replay,
    toggle_parity,
)
from cuspcobord.pattern import (
    CIRCLE,
    INTERVAL,
    FoldArc,
    aggregate_even,
    aggregate_odd,
    check_condition_even,
    check_condition_odd,
    validate_pattern,
    vector_field_exists,
)
from cuspcobord.serialize import trace_from_json

from _corpus import REPO_ROOT
from _enumeration import build_pattern, patterns_up_to, sign_assignments
from _walk import walk


def cusp_ids(p, comp_idx=None):
    comps = p.components if comp_idx is None else (p.components[comp_idx],)
    return [c.id for comp in comps for c in comp.sequence[1::2]]


class TestCreate:
    def test_on_bare_circle(self):
        p = build_pattern(2, (("circle", (1,), ()),))
        q = create_cusp_pair(p, "a0", 0)
        comp = q.components[0]
        assert comp.kind == CIRCLE
        assert len(comp.sequence) == 4
        assert comp.cusp_count == 2
        assert all(a.tau == 1 for a in comp.sequence[::2])
        assert [c.normal_index for c in comp.sequence[1::2]] == [0, 0]
        assert validate_pattern(q).ok

    def test_on_interval_splits_the_arc(self):
        p = build_pattern(3, (("interval", (2,), (), 0, 0),))
        q = create_cusp_pair(p, "a0", 0)
        comp = q.components[0]
        assert comp.kind == INTERVAL
        assert [a.tau for a in comp.sequence[::2]] == [2, 1, 2]
        assert [c.normal_index for c in comp.sequence[1::2]] == [0, 1]
        assert validate_pattern(q).ok

    def test_flip_reverses_cusp_order(self):
        p = build_pattern(3, (("interval", (2,), (), 0, 0),))
        q = create_cusp_pair(p, "a0", 0, flip=True)
        cusps = q.components[0].sequence[1::2]
        assert [c.normal_index for c in cusps] == [1, 0]

    def test_arc_index_must_match(self):
        p = build_pattern(3, (("interval", (1,), (), 1, 1),))
        with pytest.raises(PreconditionError):
            create_cusp_pair(p, "a0", 0)  # i=0 needs tau=2, arc has 1

    def test_cusp_index_range_checked(self):
        p = build_pattern(2, (("circle", (1,), ()),))
        with pytest.raises(PreconditionError):
            create_cusp_pair(p, "a0", 1)

    def test_unknown_arc_rejected(self):
        p = build_pattern(2, (("circle", (1,), ()),))
        with pytest.raises(PreconditionError):
            create_cusp_pair(p, "zz", 0)

    def test_created_cusps_keep_the_transition_law(self):
        # on a bare circle and on an interval, whose arc is split in two
        for n in range(2, 40):
            for i in range(n - 1):
                tau = max(i, n - 1 - i)
                for shape in (("circle", (tau,), ()),
                              ("interval", (tau,), (), i, i)):
                    p = build_pattern(n, (shape,))
                    for flip in (False, True):
                        q = create_cusp_pair(p, "a0", i, flip)
                        assert validate_pattern(q).ok, (n, i, shape, flip)


class TestEliminate:
    def test_inverts_creation_in_the_symmetric_case(self):
        # in dimension 2 a created pair sits at the symmetric cusp index,
        # where keeping both strands on their side is legal and undoes the
        # creation exactly, ids included
        p = build_pattern(2, (("circle", (1,), ()),))
        q = create_cusp_pair(p, "a0", 0)
        c1, c2 = cusp_ids(q)
        back = eliminate_matching_pair(q, c1, c2, STAY, assume_removable=True)
        assert back == p

    def test_two_one_cusp_circles_fuse(self):
        p = build_pattern(2, (("circle", (1,), (0,)), ("circle", (1,), (0,))))
        c1, c2 = cusp_ids(p)
        q = eliminate_matching_pair(p, c1, c2, STAY, assume_removable=True)
        assert len(q.components) == 1
        assert q.components[0].kind == CIRCLE
        assert q.components[0].cusp_count == 0

    def test_split_detaches_a_circle(self):
        # one circle with two matching cusps: the crossing reconnection is
        # the only legal one and splits it into two untouched circles
        p = build_pattern(3, (("circle", (1, 2), (1, 0)),))
        c1, c2 = cusp_ids(p)
        assert legal_reconnections(p, c1, c2) == (SPLIT,)
        with pytest.raises(PreconditionError):
            eliminate_matching_pair(p, c1, c2, STAY)
        q = eliminate_matching_pair(p, c1, c2, SPLIT)
        assert sorted(len(c.sequence) for c in q.components) == [1, 1]
        assert sorted(c.sequence[0].tau for c in q.components) == [1, 2]

    def test_create_then_split_leaves_an_extra_circle(self):
        # away from the symmetric index the elimination cannot retrace the
        # creation: the inner arc closes up into its own circle
        p = build_pattern(3, (("circle", (2,), ()),))
        q = create_cusp_pair(p, "a0", 0)
        c1, c2 = cusp_ids(q)
        assert legal_reconnections(q, c1, c2) == (SPLIT,)
        r = eliminate_matching_pair(q, c1, c2, SPLIT)
        assert len(r.components) == 2
        taus = sorted(c.sequence[0].tau for c in r.components)
        assert taus == [1, 2]
        assert any(c == p.components[0] for c in r.components)

    def test_non_matching_pair_rejected(self):
        # two I=0 cusps sum to 0, not n - 2 = 2
        q = build_pattern(4, (("circle", (2, 3), (0, 0)),))
        d1, d2 = cusp_ids(q)
        with pytest.raises(PreconditionError):
            eliminate_matching_pair(q, d1, d2, SPLIT)

    def test_same_cusp_twice_rejected(self):
        p = build_pattern(2, (("circle", (1, 1), (0, 0)),))
        c1, _ = cusp_ids(p)
        with pytest.raises(PreconditionError):
            eliminate_matching_pair(p, c1, c1, STAY, assume_removable=True)

    def test_dimension_two_needs_explicit_consent(self):
        p = build_pattern(2, (("circle", (1, 1), (0, 0)),))
        c1, c2 = cusp_ids(p)
        with pytest.raises(PreconditionError):
            eliminate_matching_pair(p, c1, c2, STAY)
        q = eliminate_matching_pair(p, c1, c2, STAY, assume_removable=True)
        assert q.components[0].cusp_count == 0

    def test_interval_internal_pair(self):
        p = build_pattern(2, (("interval", (1, 1, 1), (0, 0), 0, 0),))
        c1, c2 = cusp_ids(p)
        q = eliminate_matching_pair(p, c1, c2, STAY, assume_removable=True)
        assert len(q.components) == 1
        assert q.components[0].kind == INTERVAL
        assert q.components[0].cusp_count == 0
        assert q.components[0].endpoints == p.components[0].endpoints

    @staticmethod
    def _verdicts(p, c1, c2):
        """What ``legal_reconnections`` answers for the pair, and what
        elimination does: the reconnections it accepts, or the message when
        it refuses both for one reason."""
        try:
            legal = legal_reconnections(p, c1, c2)
        except PreconditionError as exc:
            legal = str(exc)
        accepted, refusals = [], set()
        for recon in (STAY, SPLIT):
            try:
                eliminate_matching_pair(p, c1, c2, recon,
                                        assume_removable=True)
                accepted.append(recon)
            except PreconditionError as exc:
                refusals.add(str(exc))
        if not accepted and len(refusals) == 1:
            return legal, refusals.pop()
        return legal, tuple(accepted)

    def test_legal_reconnections_answer_as_elimination_does(self):
        # every ordered pair of cusps, each with itself included
        seen = set()
        for n in range(2, 6):
            for p in patterns_up_to(n, 2, 2):
                ids = cusp_ids(p)
                for c1 in ids:
                    for c2 in ids:
                        legal, want = self._verdicts(p, c1, c2)
                        assert legal == want, (p, c1, c2)
                        seen.add(type(want))
        assert seen == {str, tuple}

    def test_legal_reconnections_refuse_a_missing_cusp_alike(self):
        p = build_pattern(3, (("interval", (2, 1, 2), (0, 1), 0, 0),))
        for c1, c2 in (("zz", "c0"), ("c0", "zz"), ("a0", "c1")):
            legal, want = self._verdicts(p, c1, c2)
            assert legal == want and isinstance(want, str)


class TestToggleParity:
    def test_dimension_two(self):
        p = build_pattern(2, (("interval", (1,), (), 0, 0),))
        q = toggle_parity(p, 0)
        kinds = sorted((c.kind, c.cusp_count) for c in q.components)
        assert kinds == [(CIRCLE, 1), (INTERVAL, 1)]
        assert validate_pattern(q).ok
        assert q.total_cusps == p.total_cusps + 2

    def test_twice_restores_interval_parity(self):
        p = build_pattern(2, (("interval", (1,), (), 0, 0),))
        q = toggle_parity(p, 0)
        interval_idx = next(k for k, c in enumerate(q.components)
                            if c.kind == INTERVAL)
        r = toggle_parity(q, interval_idx)
        interval = next(c for c in r.components if c.kind == INTERVAL)
        assert interval.cusp_count % 2 == 0

    def test_dimension_four_ladders_down(self):
        p = build_pattern(4, (("interval", (3,), (), 0, 0),))
        q = toggle_parity(p, 0)
        interval = next(c for c in q.components if c.kind == INTERVAL)
        assert interval.cusp_count % 2 == 1
        assert validate_pattern(q).ok

    def test_odd_dimension_rejected(self):
        p = build_pattern(3, (("interval", (1,), (), 1, 1),))
        with pytest.raises(PreconditionError):
            toggle_parity(p, 0)

    def test_circles_rejected(self):
        p = build_pattern(2, (("circle", (1,), ()),))
        with pytest.raises(PreconditionError):
            toggle_parity(p, 0)


class TestMergeComponents:
    def test_two_intervals_routes_designated_endpoints_together(self):
        p = build_pattern(3, (("interval", (1,), (), 1, 1),
                              ("interval", (1,), (), 1, 1)))
        # endpoints: x0, x1 on the first, x2, x3 on the second
        q = merge_components(p, 0, 1, "x0", "x2")
        homes = {}
        for k, comp in enumerate(q.components):
            for e in comp.endpoints or ():
                homes[e] = k
        assert homes["x0"] == homes["x2"]
        assert homes["x1"] == homes["x3"]
        assert q.total_cusps == p.total_cusps + 2
        assert validate_pattern(q).ok

    def test_default_designates_first_endpoints(self):
        p = build_pattern(3, (("interval", (1,), (), 1, 1),
                              ("interval", (1,), (), 1, 1)))
        q = merge_components(p, 0, 1)
        homes = {}
        for k, comp in enumerate(q.components):
            for e in comp.endpoints or ():
                homes[e] = k
        assert homes["x0"] == homes["x2"]

    def test_interval_and_circle(self):
        p = build_pattern(3, (("interval", (1,), (), 1, 1),
                              ("circle", (1,), ())))
        q = merge_components(p, 0, 1)
        assert len(q.components) == 1
        assert q.components[0].kind == INTERVAL
        assert validate_pattern(q).ok

    def test_two_circles(self):
        p = build_pattern(3, (("circle", (2,), ()), ("circle", (1,), ())))
        q = merge_components(p, 0, 1)
        assert len(q.components) == 1
        assert q.components[0].kind == CIRCLE
        assert validate_pattern(q).ok

    def test_even_dimension_rejected(self):
        p = build_pattern(2, (("circle", (1,), ()), ("circle", (1,), ())))
        with pytest.raises(PreconditionError):
            merge_components(p, 0, 1)

    def test_same_component_rejected(self):
        p = build_pattern(3, (("circle", (1,), ()),))
        with pytest.raises(PreconditionError):
            merge_components(p, 0, 0)


class TestApplyAndReplay:
    def test_unknown_kind_rejected(self):
        p = build_pattern(2, (("circle", (1,), ()),))
        with pytest.raises(PreconditionError):
            replay(MoveTrace(p, (Move("teleport", {}),), p))

    def test_composite_moves_are_not_move_kinds(self):
        # traces record only the atomic moves the composites are built from
        p = build_pattern(2, (("interval", (1,), (), 0, 0),))
        with pytest.raises(PreconditionError):
            replay(MoveTrace(p, (Move("toggle_parity", {"component": 0}),),
                             p))
        r = build_pattern(3, (("circle", (1,), ()), ("circle", (1,), ())))
        with pytest.raises(PreconditionError):
            replay(MoveTrace(r, (Move("merge_components",
                                      {"component_a": 0, "component_b": 1}),),
                             r))

    def test_trace_replays_to_final(self):
        p = build_pattern(2, (("circle", (1,), ()),))
        q = create_cusp_pair(p, "a0", 0)
        trace = MoveTrace(p, (Move("create_cusp_pair",
                                   {"arc": "a0", "i": 0, "flip": False}),), q)
        assert replay(trace) == q


class TestNormalizeEven:
    def test_success_on_two_plus_plus_intervals(self):
        p = build_pattern(2, (("interval", (1,), (), 0, 0),
                              ("interval", (1,), (), 0, 0)))
        sigma = SignAssignment({k: 1 for k in ("x0", "x1", "x2", "x3")})
        out = normalize_even(p, sigma, 0)
        assert isinstance(out, MoveTrace)
        assert replay(out) == out.final
        assert all(check_condition_even(out.final, sigma))
        assert out.initial == p

    def test_obstruction_when_parities_disagree(self):
        p = build_pattern(2, (("interval", (1,), (), 0, 0),))
        sigma = SignAssignment({"x0": 1, "x1": 1})
        out = normalize_even(p, sigma, 1)
        assert isinstance(out, Obstruction)
        assert out.kind == "parity_mismatch"
        assert out.witness["chi_V"] == 1
        assert out.witness["chi_plus"] == 2
        assert out.witness["lhs_mod2"] != out.witness["rhs_mod2"]

    def test_chi_of_wrong_parity_is_a_precondition_error(self):
        p = build_pattern(2, (("interval", (1,), (), 0, 0),))
        sigma = SignAssignment({"x0": 1, "x1": 1})
        with pytest.raises(PreconditionError):
            normalize_even(p, sigma, 0)

    def test_noop_when_conditions_already_hold(self):
        p = build_pattern(2, (("circle", (1, 1), (0, 0)),))
        out = normalize_even(p, SignAssignment({}), 0)
        assert isinstance(out, MoveTrace)
        assert out.moves == ()
        assert out.final == p

    def test_odd_dimension_rejected(self):
        p = build_pattern(3, (("circle", (1,), ()),))
        with pytest.raises(PreconditionError):
            normalize_even(p, SignAssignment({}), 1)


class TestNormalizeOdd:
    def test_success_merges_mismatched_intervals(self):
        p = build_pattern(3, (("interval", (2,), (), 0, 0),
                              ("interval", (1,), (), 1, 1)))
        sigma = SignAssignment({k: 1 for k in ("x0", "x1", "x2", "x3")})
        out = normalize_odd(p, sigma)
        assert isinstance(out, MoveTrace)
        assert replay(out) == out.final
        assert all(check_condition_odd(out.final, sigma))

    def test_obstruction_when_signs_cannot_cancel(self):
        p = build_pattern(3, (("interval", (2,), (), 0, 0),
                              ("interval", (2,), (), 0, 0)))
        sigma = SignAssignment({k: 1 for k in ("x0", "x1", "x2", "x3")})
        out = normalize_odd(p, sigma)
        assert isinstance(out, Obstruction)
        assert out.kind == "sign_sum_nonzero"
        assert out.witness["sum"] == 4
        assert out.witness["expected"] == 0

    def test_noop_when_conditions_already_hold(self):
        p = build_pattern(3, (("interval", (1,), (), 1, 1),))
        sigma = SignAssignment({"x0": 1, "x1": -1})
        out = normalize_odd(p, sigma)
        assert isinstance(out, MoveTrace)
        assert out.moves == ()

    def test_even_dimension_rejected(self):
        p = build_pattern(2, (("circle", (1,), ()),))
        with pytest.raises(PreconditionError):
            normalize_odd(p, SignAssignment({}))

    def test_a_long_ladder_stays_within_its_time_bound(self):
        # two intervals of one top-index arc: the merge ladders each down to
        # (n - 1) / 2, growing one word to 2n elements in 12,803 moves; when
        # every step searched and rebuilt its word this took about 9 s
        n = 12801
        p = build_pattern(n, (("interval", (n - 1,), (), 0, 0),
                              ("interval", (n - 1,), (), 0, 0)))
        sigma = SignAssignment({"x0": 1, "x1": 1, "x2": -1, "x3": -1})
        t0 = time.perf_counter()
        trace = normalize_odd(p, sigma)
        assert replay(trace) == trace.final
        elapsed = time.perf_counter() - t0
        assert len(trace.moves) == n + 2
        assert elapsed < 3.0, f"took {elapsed:.2f}s"


class TestNormalizeCompletenessSmall:
    """Desk-scale soundness + completeness; the acceptance suite scales
    this up.  Success must coincide exactly with the aggregate condition."""

    def test_even(self):
        for n in (2,):
            for p in patterns_up_to(n, 2, 2):
                chi_V = (p.total_cusps - len(p.boundary_points) // 2) % 2
                for sigma in sign_assignments(p):
                    out = normalize_even(p, sigma, chi_V)
                    expect_ok = (chi_V - chi_plus_sigma(
                        p.boundary_points, sigma)) % 2 == 0
                    if expect_ok:
                        assert isinstance(out, MoveTrace)
                        assert replay(out) == out.final
                        assert all(check_condition_even(out.final, sigma))
                    else:
                        assert isinstance(out, Obstruction)

    def test_odd(self):
        for p in patterns_up_to(3, 2, 1):
            by_id = p.boundary_by_id()
            for sigma in sign_assignments(p):
                out = normalize_odd(p, sigma)
                total = sum((-1) ** pt.mu * sigma.sign(pid)
                            for pid, pt in by_id.items())
                if total == 0:
                    assert isinstance(out, MoveTrace)
                    assert replay(out) == out.final
                    assert all(check_condition_odd(out.final, sigma))
                else:
                    assert isinstance(out, Obstruction)
                    assert out.witness["sum"] == total


class TestRandomWalks:
    def test_invariants_hold_along_random_sequences(self, rng):
        starts = [
            build_pattern(2, (("interval", (1,), (), 0, 0),
                              ("circle", (1,), ()))),
            build_pattern(3, (("circle", (1,), ()),
                              ("interval", (2, 1), (0,), 0, 1))),
            build_pattern(4, (("circle", (2,), ()),)),
        ]
        for p in starts:
            for _ in range(40):
                walk(p, rng, steps=5)


def _duplicate_first_arc_id(p):
    """p with the first arc of its last component renamed to a0, an id the
    first component already uses: invalid only by duplicate-element-id."""
    last = p.components[-1]
    seq = (FoldArc("a0", last.sequence[0].tau),) + last.sequence[1:]
    comps = p.components[:-1] + (replace(last, sequence=seq),)
    return replace(p, components=comps)


# n = 3: an interval carrying a matching cusp pair, and a bare interval
BAD_ODD = _duplicate_first_arc_id(build_pattern(
    3, (("interval", (2, 1, 2), (0, 1), 0, 0), ("interval", (1,), (), 1, 1))))
# n = 4: a bare interval and a bare circle
BAD_EVEN = _duplicate_first_arc_id(build_pattern(
    4, (("interval", (3,), (), 0, 0), ("circle", (3,), ()))))
SIGMA_ODD = SignAssignment({"x0": 1, "x1": 1, "x2": 1, "x3": -1})
SIGMA_EVEN = SignAssignment({"x0": 1, "x1": 1})
CREATE_A1 = Move("create_cusp_pair", {"arc": "a1", "i": 1, "flip": False})

PUBLIC_ENTRY_POINTS = {
    "create_cusp_pair": lambda: create_cusp_pair(BAD_ODD, "a1", 1),
    "eliminate_matching_pair":
        lambda: eliminate_matching_pair(BAD_ODD, "c0", "c1", SPLIT),
    "legal_reconnections": lambda: legal_reconnections(BAD_ODD, "c0", "c1"),
    "toggle_parity": lambda: toggle_parity(BAD_EVEN, 0),
    "merge_components": lambda: merge_components(BAD_ODD, 0, 1),
    "replay": lambda: replay(MoveTrace(BAD_ODD, (CREATE_A1,), BAD_ODD)),
    "normalize_odd": lambda: normalize_odd(BAD_ODD, SIGMA_ODD),
    "normalize_even": lambda: normalize_even(BAD_EVEN, SIGMA_EVEN, 0),
    "vector_field_exists": lambda: vector_field_exists(BAD_ODD, SIGMA_ODD),
    "check_condition_even":
        lambda: check_condition_even(BAD_EVEN, SIGMA_EVEN),
    "check_condition_odd": lambda: check_condition_odd(BAD_ODD, SIGMA_ODD),
    "aggregate_even": lambda: aggregate_even(BAD_EVEN, SIGMA_EVEN, 0),
    "aggregate_odd": lambda: aggregate_odd(BAD_ODD, SIGMA_ODD),
}


class TestValidationContract:
    """Public calls validate their pattern once; moves trust it."""

    @pytest.mark.parametrize("name", sorted(PUBLIC_ENTRY_POINTS))
    def test_public_entry_points_refuse_invalid_patterns(self, name):
        assert validate_pattern(BAD_ODD).codes() == ("duplicate-element-id",)
        assert validate_pattern(BAD_EVEN).codes() == ("duplicate-element-id",)
        with pytest.raises(PreconditionError,
                           match=r"invalid .*pattern: id 'a0' used twice"):
            PUBLIC_ENTRY_POINTS[name]()

    @staticmethod
    def _replay_checking_each_move(trace):
        cur = trace.initial
        for move in trace.moves:
            cur = replay(MoveTrace(cur, (move,), cur))
            assert validate_pattern(cur).ok, move
        assert cur == trace.final

    @pytest.mark.parametrize("name", ["trace_odd.json", "trace_even.json"])
    def test_golden_traces_stay_valid_move_by_move(self, name):
        with open(REPO_ROOT / "golden" / name, encoding="utf-8") as fh:
            trace = trace_from_json(json.load(fh))
        assert trace.moves
        self._replay_checking_each_move(trace)

    def test_sampled_normalizations_stay_valid_move_by_move(self):
        # about 2,000 configurations from the space the acceptance gate's
        # criterion 6 enumerates (n = 2, 3, 4; up to 3 cusps and 3
        # components), each normalized and then replayed with a full
        # validation after every move
        rng = random.Random(6)
        sampled = moves = traces = 0
        for n, triples, share in ((2, 200, 0.004), (3, 200, 0.004),
                                  (4, 120, 0.005)):
            for p in patterns_up_to(n, 3, 3, random.Random(20260815 + n),
                                    triple_samples=triples):
                for sigma in sign_assignments(p):
                    if rng.random() >= share:
                        continue
                    sampled += 1
                    chi_v = (p.total_cusps - len(p.boundary_points) // 2) % 2
                    out = (normalize_even(p, sigma, chi_v) if n % 2 == 0
                           else normalize_odd(p, sigma))
                    if isinstance(out, MoveTrace):
                        self._replay_checking_each_move(out)
                        moves += len(out.moves)
                        traces += 1
        assert 1500 < sampled < 2500, sampled
        assert traces > 500 and moves > 2000, (traces, moves)

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("end_a", [0, 1])
    @pytest.mark.parametrize("end_b", [0, 1])
    def test_merge_orientation_is_chosen_up_front(self, n, end_a, end_b):
        # a top-index interval (laddered down first) and one already at the
        # merge index (n - 1) / 2
        p = build_pattern(n, (("interval", (n - 1,), (), 0, n - 1),
                              ("interval", ((n - 1) // 2,), (),
                               (n - 1) // 2, (n - 1) // 2)))
        x = p.components[0].endpoints[end_a]
        y = p.components[1].endpoints[end_b]
        state = mv._State(p)
        mv._merge(state, *state.order, x, y)
        q, recorded = state.pattern(), state.moves
        assert validate_pattern(q).ok
        homes = {e: k for k, comp in enumerate(q.components)
                 for e in comp.endpoints or ()}
        assert homes[x] == homes[y]
        creates = [m for m in recorded if m.kind == "create_cusp_pair"]
        assert creates[-1].params["flip"] == (end_a == end_b)
        assert sum(m.kind == "eliminate_matching_pair"
                   for m in recorded) == 1
        assert q == merge_components(p, 0, 1, x, y)

    def test_merge_refuses_an_endpoint_of_another_component(self):
        p = build_pattern(3, (("interval", (1,), (), 1, 1),
                              ("interval", (1,), (), 1, 1),
                              ("circle", (1,), ())))
        for args in ((0, 1, "x2", "x3"), (0, 1, None, "x0"),
                     (0, 2, "x0", "x1"), (0, 1, "nope", None)):
            with pytest.raises(PreconditionError,
                               match="is not an endpoint of component"):
                merge_components(p, *args)

    @pytest.mark.parametrize("call", [
        lambda: normalize_odd(build_pattern(
            3, (("interval", (2,), (), 0, 0), ("interval", (1,), (), 1, 1),
                ("interval", (2, 1), (0,), 0, 1))),
            SignAssignment({f"x{k}": 1 for k in range(6)})),
        lambda: normalize_even(build_pattern(
            4, (("interval", (3,), (), 0, 0), ("interval", (2,), (), 1, 2),
                ("circle", (2, 2), (1, 1)))),
            SignAssignment({"x0": 1, "x1": 1, "x2": 1, "x3": 1}), 0),
    ], ids=["normalize_odd", "normalize_even"])
    def test_one_validation_per_call(self, call, monkeypatch):
        calls = []

        def counting(p):
            calls.append(p)
            return validate_pattern(p)

        monkeypatch.setattr(pat, "validate_pattern", counting)
        monkeypatch.setattr(mv, "validate_pattern", counting)
        out = call()
        assert isinstance(out, MoveTrace) and len(out.moves) > 3
        assert len(calls) == 1 and calls[0] is out.initial
        calls.clear()
        assert replay(out) == out.final
        assert len(calls) == 1 and calls[0] is out.initial


class TestRunsWithoutMoves:
    @pytest.fixture
    def states(self, monkeypatch):
        built = []
        state = mv._State

        def counting(p):
            built.append(p)
            return state(p)

        monkeypatch.setattr(mv, "_State", counting)
        return built

    @pytest.mark.parametrize("p, sigma, chi_v", [
        # an even circle and an interval with endpoint signs +, -
        (build_pattern(2, (("circle", (1, 1), (0, 0)),
                           ("interval", (1,), (), 0, 0))),
         SignAssignment({"x0": 1, "x1": -1}), 1),
        # two intervals whose endpoints already pair up greedily
        (build_pattern(3, (("interval", (1,), (), 1, 1),
                           ("interval", (2,), (), 0, 0))),
         SignAssignment({"x0": 1, "x1": -1, "x2": 1, "x3": -1}), None),
    ], ids=["normalize_even", "normalize_odd"])
    def test_a_run_that_makes_no_move_builds_no_state(self, states, p,
                                                      sigma, chi_v):
        out = (normalize_even(p, sigma, chi_v) if p.n % 2 == 0
               else normalize_odd(p, sigma))
        assert isinstance(out, MoveTrace) and out.moves == ()
        assert out.initial is p and out.final is p
        assert replay(out) is p
        assert states == []

    def test_a_run_that_moves_builds_one_state(self, states):
        p = build_pattern(3, (("interval", (2,), (), 0, 0),
                              ("interval", (2,), (), 0, 0)))
        sigma = SignAssignment({"x0": 1, "x1": 1, "x2": -1, "x3": -1})
        out = normalize_odd(p, sigma)
        assert out.moves and states == [p]
        assert replay(out) == out.final and states == [p, p]
