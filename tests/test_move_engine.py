"""The indexed move engine against the per-move reference oracle, its pool
of free names, and its move budget."""

import importlib.util
import json
import random
import time

import pytest

from cuspcobord import moves as mv
from cuspcobord.cli import main
from cuspcobord.errors import PreconditionError
from cuspcobord.invariants import SignAssignment
from cuspcobord.morse import BoundaryCriticalPoint
from cuspcobord.pattern import (
    CIRCLE,
    INTERVAL,
    Component,
    Cusp,
    FoldArc,
    SingularPattern,
    validate_pattern,
)
from cuspcobord.serialize import (
    obstruction_to_json,
    pattern_from_json,
    pattern_to_json,
    sigma_from_json,
    trace_from_json,
    trace_to_json,
)

import _moves_reference as ref
from _moves_reference import _fresh_names
from _corpus import REPO_ROOT
from _enumeration import build_pattern, patterns_up_to, sign_assignments
from _walk import legal_creates, legal_eliminations


def _load_bench_gen():
    # the benchmark's seeded pattern generator, loaded under its own name
    spec = importlib.util.spec_from_file_location(
        "_bench_gen", REPO_ROOT / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gen = _load_bench_gen()


def doc(out) -> str:
    """The sorted-key JSON of a trace or an obstruction."""
    if isinstance(out, mv.MoveTrace):
        return json.dumps(trace_to_json(out), sort_keys=True)
    return json.dumps(obstruction_to_json(out), sort_keys=True)


def both_normalize(p, sigma, chi_v):
    """The engine's and the oracle's normalization of one configuration;
    the engine's trace also replays, on the engine and on the oracle."""
    if p.n % 2 == 0:
        got = mv.normalize_even(p, sigma, chi_v)
    else:
        got = mv.normalize_odd(p, sigma)
    want = ref.normalize(p, sigma, chi_v)
    if isinstance(got, mv.MoveTrace):
        assert mv.replay(got) == got.final == ref.replay(got)
    return got, want


def _read_json(*parts):
    with open(REPO_ROOT.joinpath(*parts), encoding="utf-8") as fh:
        return json.load(fh)


class TestAgainstReference:
    @pytest.mark.parametrize("name, args", [
        ("trace_even.json", ("two_intervals_n2.json", "sigma_pp_pp.json", 0)),
        ("trace_odd.json", ("two_intervals_n3.json", "sigma_pp_pp.json",
                            None)),
    ])
    def test_golden_traces(self, name, args):
        golden = _read_json("golden", name)
        trace = trace_from_json(golden)
        assert trace.moves
        assert mv.replay(trace) == ref.replay(trace) == trace.final
        pattern_file, sigma_file, chi_v = args
        p = pattern_from_json(_read_json("corpus", pattern_file))
        sigma = sigma_from_json(_read_json("corpus", sigma_file))
        got, want = both_normalize(p, sigma, chi_v)
        assert doc(got) == doc(want) == json.dumps(golden, sort_keys=True)

    def test_sampled_criterion_6_configurations(self):
        # a share of the space the acceptance gate's criterion 6 enumerates
        rng = random.Random(9)
        traces = moves = 0
        for n, triples in ((2, 200), (3, 200), (4, 120)):
            for p in patterns_up_to(n, 3, 3, random.Random(20260815 + n),
                                    triple_samples=triples):
                chi_v = (p.total_cusps - len(p.boundary_points) // 2) % 2
                for sigma in sign_assignments(p):
                    if rng.random() >= 0.004:
                        continue
                    got, want = both_normalize(p, sigma, chi_v)
                    assert doc(got) == doc(want)
                    if isinstance(got, mv.MoveTrace):
                        traces += 1
                        moves += len(got.moves)
        assert traces > 500 and moves > 2000, (traces, moves)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("k", [50, 100, 200, 400])
    def test_seeded_large_patterns(self, n, k):
        for solvable in (True, False):
            rng = random.Random(1000 * k + n)
            g = gen.large_pattern(rng, n, k)
            chi_v = gen.chi_v_for(g) if n % 2 == 0 else None
            sigma = SignAssignment(gen.sigma_for(rng, g, solvable, chi_v))
            got, want = both_normalize(pattern_from_json(g.to_json()), sigma,
                                       chi_v)
            assert isinstance(got, mv.MoveTrace) == solvable
            assert doc(got) == doc(want)

    def test_walk_sequences(self, rng):
        starts = [
            build_pattern(2, (("interval", (1,), (), 0, 0),
                              ("circle", (1,), ()))),
            build_pattern(3, (("circle", (1,), ()),
                              ("interval", (2, 1), (0,), 0, 1))),
            build_pattern(4, (("circle", (2,), ()),
                              ("interval", (3,), (), 0, 0))),
            build_pattern(5, (("interval", (4,), (), 0, 4),
                              ("circle", (3, 4), (0, 3)))),
        ]
        steps = 0
        for p in starts:
            for _ in range(25):
                cur = p
                for _ in range(6):
                    for _, c1, c2, _ in legal_eliminations(cur):
                        assert (mv.legal_reconnections(cur, c1, c2)
                                == ref.legal_reconnections(cur, c1, c2))
                    options = legal_creates(cur) + legal_eliminations(cur)
                    kind, *args = rng.choice(options)
                    if kind == "create":
                        got = mv.create_cusp_pair(cur, *args)
                        want = ref.create_cusp_pair(cur, *args)
                    else:
                        got = mv.eliminate_matching_pair(
                            cur, *args, assume_removable=cur.n == 2)
                        want = ref.eliminate_matching_pair(
                            cur, *args, assume_removable=cur.n == 2)
                    assert pattern_to_json(got) == pattern_to_json(want)
                    cur = got
                    steps += 1
                self._composites_agree(cur)
        assert steps == 4 * 25 * 6

    @staticmethod
    def _composites_agree(p):
        comps = p.components
        if p.n % 2 == 0:
            for k, comp in enumerate(comps):
                if comp.kind == INTERVAL:
                    assert mv.toggle_parity(p, k) == ref._toggle_parity(
                        p, k, [])
        else:
            for a in range(len(comps)):
                for b in range(len(comps)):
                    if a != b:
                        assert mv.merge_components(p, a, b) == ref._merge(
                            p, a, b, [])

    def test_single_moves_refuse_alike(self):
        p = build_pattern(3, (("interval", (2, 1, 2), (0, 1), 0, 0),
                              ("circle", (1,), ())))
        calls = [
            ("create_cusp_pair", ("c0", 0)),
            ("create_cusp_pair", ("a0", 2)),
            ("create_cusp_pair", ("a1", 0)),
            ("create_cusp_pair", ("zz", 0)),
            ("eliminate_matching_pair", ("c0", "c0")),
            ("eliminate_matching_pair", ("a0", "c1")),
            ("eliminate_matching_pair", ("c0", "c1", "sideways")),
            ("eliminate_matching_pair", ("c0", "c1", mv.STAY)),
        ]
        for name, args in calls:
            with pytest.raises(PreconditionError) as got:
                getattr(mv, name)(p, *args)
            with pytest.raises(PreconditionError) as want:
                getattr(ref, name)(p, *args)
            assert str(got.value) == str(want.value)


def _pattern(n, components, points=()):
    return SingularPattern(n, tuple(components), tuple(
        BoundaryCriticalPoint(pid, mu, 1) for pid, mu in points))


# n = 3: two circles of two cusps, a bare circle and a bare interval, named
# with ids that look like generated names but are not (a leading zero, no
# digits, non-ASCII digits, a number too long for int()), plus one gap
ODD_NAMES = _pattern(3, [
    Component(CIRCLE, (FoldArc("a", 1), Cusp("c01", 1), FoldArc("a2", 2),
                       Cusp("c²", 0))),
    Component(CIRCLE, (FoldArc("x3", 2),)),
    Component(CIRCLE, (FoldArc("c", 2), Cusp("c٣", 0),
                       FoldArc("a0", 1), Cusp("c" + "9" * 40, 1))),
    Component(INTERVAL, (FoldArc("a" + "1" * 5000, 2),), ("x0", "x1")),
], [("x0", 0), ("x1", 0)])


class TestNamePool:
    def test_odd_ids_hold_no_generated_name(self):
        assert validate_pattern(ODD_NAMES).ok
        q = mv.create_cusp_pair(ODD_NAMES, "x3", 0)
        created = q.components[1].sequence
        assert [e.id for e in created] == ["x3", "c0", "a1", "c1"]
        live = {e.id for comp in ODD_NAMES.components for e in comp.sequence}
        cusps, arcs = _fresh_names(set(live), "c"), _fresh_names(live, "a")
        assert [next(cusps), next(cusps), next(arcs)] == ["c0", "c1", "a1"]
        assert q == ref.create_cusp_pair(ODD_NAMES, "x3", 0)

    def test_pool_hands_out_what_fresh_names_gives(self):
        # random takes and releases against a rescan of the live names
        rng = random.Random(3)
        for _ in range(200):
            live = dict.fromkeys(
                [f"c{k}" for k in rng.sample(range(12), rng.randint(0, 8))]
                + ["c01", "c", "c٣", "x1"], 0)
            pool = mv._NamePool("c", live)
            for _ in range(12):
                if live and rng.random() < 0.4:
                    eid = rng.choice(sorted(live))
                    del live[eid]
                    m = mv._NUMBERED.fullmatch(eid)
                    if m:
                        pool.release(int(m[2]))
                else:
                    name = pool.take()
                    assert name == next(_fresh_names(set(live), "c"))
                    live[name] = 0

    def test_a_freed_name_is_the_next_one_handed_out(self):
        # in dimension 2 an elimination of a created pair undoes it, ids
        # included, so the third move hands out the freed names again
        p = build_pattern(2, (("interval", (1,), (), 0, 0),
                              ("circle", (1,), ())))
        create = mv.Move("create_cusp_pair", {"arc": "a0", "i": 0,
                                              "flip": False})
        eliminate = mv.Move("eliminate_matching_pair", {
            "cusp1": "c0", "cusp2": "c1", "reconnection": mv.STAY,
            "assume_removable": True})
        trace = mv.MoveTrace(p, (create, eliminate, create), None)
        final = mv.replay(trace)
        assert [e.id for e in final.components[0].sequence] == [
            "a0", "c0", "a2", "c1", "a3"]
        assert final == ref.replay(trace)


class TestMoveBudget:
    @staticmethod
    def _ladder_pattern(n):
        # two intervals, each one arc of the top index: merging them ladders
        # both down to (n - 1) / 2, n + 2 moves in all
        return build_pattern(n, (("interval", (n - 1,), (), 0, 0),
                                 ("interval", (n - 1,), (), 0, 0)))

    SIGMA = SignAssignment({"x0": 1, "x1": 1, "x2": -1, "x3": -1})

    def test_budget_is_checked_before_a_ladder(self, monkeypatch):
        created = []
        create = mv._create

        def counting(*args):
            created.append(args)
            return create(*args)

        monkeypatch.setattr(mv, "_create", counting)
        p = self._ladder_pattern(11)
        assert len(mv.normalize_odd(p, self.SIGMA).moves) == 13
        created.clear()
        monkeypatch.setattr(mv, "MAX_MOVES", 9)
        with pytest.raises(PreconditionError, match="more than 9 moves"):
            mv.normalize_odd(p, self.SIGMA)
        # the first ladder (5 moves) fits; the second would end at 10
        assert len(created) == 5

    def test_budget_counts_every_move(self, monkeypatch):
        p = self._ladder_pattern(11)
        monkeypatch.setattr(mv, "MAX_MOVES", 13)
        trace = mv.normalize_odd(p, self.SIGMA)
        monkeypatch.setattr(mv, "MAX_MOVES", 12)
        # both ladders fit; the elimination is the 13th move
        with pytest.raises(PreconditionError, match="more than 12 moves"):
            mv.normalize_odd(p, self.SIGMA)
        with pytest.raises(PreconditionError, match="more than 12 moves"):
            mv.replay(trace)

    def test_huge_dimension_is_refused_at_once(self):
        p = self._ladder_pattern(10 ** 9 + 1)
        t0 = time.perf_counter()
        with pytest.raises(PreconditionError, match="more than 100000 moves"):
            mv.normalize_odd(p, self.SIGMA)
        assert time.perf_counter() - t0 < 0.5

    def test_cli_exits_2_with_one_line(self, tmp_path, capsys):
        p = self._ladder_pattern(10 ** 9 + 1)
        pattern_file = tmp_path / "p.json"
        sigma_file = tmp_path / "s.json"
        pattern_file.write_text(json.dumps(pattern_to_json(p)))
        sigma_file.write_text(json.dumps(
            {"x0": 1, "x1": 1, "x2": -1, "x3": -1}))
        code = main(["pattern", "normalize", str(pattern_file),
                     "--sigma", str(sigma_file)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == ("error: the rewrite needs more than 100000 moves, "
                       "the budget of one run\n")

    def test_a_long_ladder_costs_what_it_touches(self):
        # n = 1601 takes 1,603 moves on components of up to 1,600 arcs;
        # rescanning the pattern on every move took about 6 s
        p = self._ladder_pattern(1601)
        t0 = time.perf_counter()
        trace = mv.normalize_odd(p, self.SIGMA)
        assert mv.replay(trace) == trace.final
        assert len(trace.moves) == 1603
        assert time.perf_counter() - t0 < 5.0
