"""JSON wire formats: round trips, strict key checking, fraction values."""

import ast
import json
import random
from copy import deepcopy
from dataclasses import replace
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cuspcobord.cli import _write_json_file
from cuspcobord.errors import SchemaError
from cuspcobord.group import generator
from cuspcobord.invariants import SignAssignment
from cuspcobord.morse import BoundaryCriticalPoint, MorseDescriptor, reverse
from cuspcobord.moves import Move, MoveTrace, normalize_even, normalize_odd
from cuspcobord.pattern import CIRCLE, INTERVAL
from cuspcobord.serialize import (
    descriptor_from_json,
    descriptor_to_json,
    obstruction_to_json,
    pattern_from_json,
    pattern_to_json,
    sigma_from_json,
    sigma_to_json,
    trace_from_json,
    trace_to_json,
)

from _corpus import REPO_ROOT, json_nodes
from _enumeration import (build_pattern, patterns_up_to, random_descriptor,
                          single_shapes)


class TestDescriptor:
    def test_round_trip(self):
        rng = random.Random(3)
        for n in (2, 3, 4):
            for _ in range(20):
                d = random_descriptor(n, rng)
                assert descriptor_from_json(descriptor_to_json(d)) == d

    def test_fraction_values_as_strings(self):
        obj = {"n": 2, "oriented": True, "chi_M": 1, "chi_boundary": 0,
               "interior": [],
               "boundary": [
                   {"id": "x0", "mu": 0, "sigma": 1, "value": "1/3"},
                   {"id": "x1", "mu": 1, "sigma": 1, "value": 2}]}
        d = descriptor_from_json(obj)
        assert d.boundary[0].value == Fraction(1, 3)
        assert d.boundary[1].value == Fraction(2)
        out = descriptor_to_json(d)
        assert out["boundary"][0]["value"] == "1/3"

    def test_float_values_rejected(self):
        obj = {"n": 2, "oriented": True, "chi_M": 1, "chi_boundary": 0,
               "interior": [],
               "boundary": [{"id": "x0", "mu": 0, "sigma": 1, "value": 0.5},
                            {"id": "x1", "mu": 1, "sigma": 1}]}
        with pytest.raises(SchemaError):
            descriptor_from_json(obj)

    @staticmethod
    def _with_value(value):
        return {"n": 2, "oriented": True, "chi_M": 1, "chi_boundary": 0,
                "interior": [{"id": "p0", "index": 2, "value": value}],
                "boundary": []}

    @pytest.mark.parametrize("text, value", [
        ("-3/4", Fraction(-3, 4)), ("7", Fraction(7)), ("-0", Fraction(0)),
        ("4/6", Fraction(2, 3))])
    def test_written_rational_form_is_read(self, text, value):
        d = descriptor_from_json(self._with_value(text))
        assert d.interior[0].value == value

    @pytest.mark.parametrize("text", [
        "1e10000000", "0.5", "1/2e3", "1E2", " 1/3", "1/3 ", "1/3\n", "+1",
        "1_000", "\u0663", "1/", "/3", "-1/-3", "1/0", "", "nan",
        "1" * 5000])
    def test_other_strings_are_refused(self, text):
        with pytest.raises(SchemaError, match=r"descriptor\.interior\[0\]"
                                              r"\.value: bad rational"):
            descriptor_from_json(self._with_value(text))

    def test_a_boolean_value_is_refused(self):
        # bool is an int to Python, so it would read as 1
        with pytest.raises(SchemaError) as exc:
            descriptor_from_json(self._with_value(True))
        assert str(exc.value) == ("descriptor.interior[0].value: expected an "
                                  "exact rational, got True")

    def test_unknown_keys_rejected(self):
        obj = {"n": 2, "oriented": True, "chi_M": 1, "chi_boundary": 0,
               "interior": [], "boundary": [], "extra": 1}
        with pytest.raises(SchemaError):
            descriptor_from_json(obj)

    def test_bool_not_accepted_as_int(self):
        obj = {"n": True, "oriented": True, "chi_M": 1, "chi_boundary": 0,
               "interior": [], "boundary": []}
        with pytest.raises(SchemaError):
            descriptor_from_json(obj)

    def test_bad_sigma_rejected(self):
        obj = {"n": 2, "oriented": True, "chi_M": 1, "chi_boundary": 0,
               "interior": [],
               "boundary": [{"id": "x0", "mu": 0, "sigma": 2},
                            {"id": "x1", "mu": 1, "sigma": 1}]}
        with pytest.raises(SchemaError):
            descriptor_from_json(obj)


class TestSigma:
    def test_round_trip(self):
        sigma = sigma_from_json({"x0": 1, "x1": -1})
        assert sigma.sign("x0") == 1 and sigma.sign("x1") == -1
        assert sigma_to_json(sigma) == {"x0": 1, "x1": -1}

    def test_bad_sign_rejected(self):
        with pytest.raises(SchemaError):
            sigma_from_json({"x0": 0})


class TestPattern:
    def test_round_trip_over_small_shapes(self):
        for n in (2, 3, 4):
            for shape in single_shapes(n, 2):
                p = build_pattern(n, (shape,))
                assert pattern_from_json(pattern_to_json(p)) == p

    def test_sigma_on_boundary_defaults_to_plus(self):
        obj = {"n": 2,
               "boundary_points": [{"id": "x0", "mu": 0},
                                   {"id": "x1", "mu": 0, "sigma": -1}],
               "components": [{"kind": "interval",
                               "endpoints": ["x0", "x1"],
                               "sequence": [{"arc": {"id": "a0",
                                                     "tau": 1}}]}]}
        p = pattern_from_json(obj)
        assert p.boundary_points[0].sigma == 1
        assert p.boundary_points[1].sigma == -1

    def test_unknown_element_kind_rejected(self):
        obj = {"n": 2, "boundary_points": [],
               "components": [{"kind": "circle",
                               "sequence": [{"blob": {"tau": 1}}]}]}
        with pytest.raises(SchemaError):
            pattern_from_json(obj)

    def test_boundary_values_round_trip(self):
        p = replace(build_pattern(2, (("interval", (1,), (), 0, 0),)),
                    boundary_points=(
                        BoundaryCriticalPoint("x0", 0, 1, Fraction(1, 2)),
                        BoundaryCriticalPoint("x1", 0, -1)))
        obj = pattern_to_json(p)
        assert obj["boundary_points"][0]["value"] == "1/2"
        assert "value" not in obj["boundary_points"][1]
        assert pattern_from_json(obj) == p

    def test_chi_ambient_is_optional(self):
        obj = {"n": 2, "chi_ambient": 2, "boundary_points": [],
               "components": [{"kind": "circle",
                               "sequence": [{"arc": {"id": "a0",
                                                     "tau": 1}}]}]}
        assert pattern_from_json(obj).chi_ambient == 2


class TestTrace:
    def test_round_trip(self):
        p = build_pattern(2, (("circle", (1,), ()),))
        q = build_pattern(2, (("circle", (1, 1), (0, 0)),))
        trace = MoveTrace(p, (Move("create_cusp_pair",
                                   {"arc": "a0", "i": 0, "flip": False}),),
                          q)
        back = trace_from_json(trace_to_json(trace))
        assert back == trace

    def test_unknown_move_kind_rejected(self):
        p = build_pattern(2, (("circle", (1,), ()),))
        obj = trace_to_json(MoveTrace(p, (), p))
        obj["moves"] = [{"kind": "warp", "params": {}}]
        with pytest.raises(SchemaError):
            trace_from_json(obj)

    def test_missing_required_param_rejected(self):
        p = build_pattern(2, (("circle", (1,), ()),))
        obj = trace_to_json(MoveTrace(p, (), p))
        obj["moves"] = [{"kind": "create_cusp_pair", "params": {"arc": "a0"}}]
        with pytest.raises(SchemaError):
            trace_from_json(obj)

    @pytest.mark.parametrize("kind, params", [
        ("toggle_parity", {"component": 0}),
        ("merge_components", {"component_a": 0, "component_b": 1}),
    ])
    def test_composite_kinds_are_unknown(self, kind, params):
        p = build_pattern(2, (("circle", (1,), ()),))
        obj = trace_to_json(MoveTrace(p, (), p))
        obj["moves"] = [{"kind": kind, "params": params}]
        with pytest.raises(SchemaError, match="unknown move kind"):
            trace_from_json(obj)

    @pytest.mark.parametrize("move, key, value", [
        (0, "i", "0"),          # unchecked, fails at replay with a TypeError
        (0, "flip", "no"),      # unchecked, reads as true and replays wrongly
        (3, "assume_removable", 0),
        (3, "cusp1", 3),
        (0, "arc", None),
        (3, "reconnection", True),
    ])
    def test_parameter_types_are_checked(self, move, key, value):
        with open(REPO_ROOT / "golden" / "trace_odd.json",
                  encoding="utf-8") as fh:
            obj = json.load(fh)
        assert key in obj["moves"][move]["params"]
        obj["moves"][move]["params"][key] = value
        with pytest.raises(SchemaError,
                           match=rf"trace\.moves\[{move}\]\.params\.{key}"):
            trace_from_json(obj)

    @pytest.mark.parametrize("move, key, message", [
        (0, "flip", "trace.moves[0].params: missing keys ['flip']"),
        (3, "reconnection",
         "trace.moves[3].params: missing keys ['reconnection']"),
        (3, "assume_removable",
         "trace.moves[3].params: missing keys ['assume_removable']"),
    ], ids=["flip", "reconnection", "assume_removable"])
    def test_every_parameter_is_required(self, move, key, message):
        obj = _golden_trace()
        del obj["moves"][move]["params"][key]
        with pytest.raises(SchemaError) as caught:
            trace_from_json(obj)
        assert str(caught.value) == message

    def test_reconnection_is_stay_or_split(self):
        obj = _golden_trace()
        obj["moves"][3]["params"]["reconnection"] = "sideways"
        with pytest.raises(SchemaError) as caught:
            trace_from_json(obj)
        assert str(caught.value) == ("trace.moves[3].params.reconnection: "
                                     "unknown reconnection 'sideways'")

    @pytest.mark.parametrize("side", ["initial", "final"])
    def test_pattern_errors_name_their_side(self, side):
        with open(REPO_ROOT / "golden" / "trace_odd.json",
                  encoding="utf-8") as fh:
            obj = json.load(fh)
        obj[side]["components"][0]["kind"] = "blob"
        with pytest.raises(SchemaError, match=rf"^trace\.{side}\.components"
                                              r"\[0\]\.kind: unknown kind"):
            trace_from_json(obj)


def _golden_trace() -> dict:
    with open(REPO_ROOT / "golden" / "trace_odd.json",
              encoding="utf-8") as fh:
        return json.load(fh)


class TestObstruction:
    def test_shape(self):
        from cuspcobord.moves import Obstruction
        out = obstruction_to_json(Obstruction("parity_mismatch",
                                              {"chi_V": 1, "chi_plus": 2}))
        assert out == {"kind": "parity_mismatch",
                       "witness": {"chi_V": 1, "chi_plus": 2}}


# ---------------------------------------------------------------------------
# single-fault sweep over every wire document in the repository

_READERS = {"descriptor": descriptor_from_json, "pattern": pattern_from_json,
            "sigma": sigma_from_json, "trace": trace_from_json}
_FAULTS = (None, "s", 1.5, True, [], {}, -7)
_DELETE = object()


def _wire_documents() -> dict[str, tuple[str, object]]:
    """Each corpus document and golden trace by file name, with the name of
    its root (which is also the first word of its error paths)."""
    docs = {}
    for path in sorted((REPO_ROOT / "corpus").glob("*.json")) + [
            REPO_ROOT / "golden" / f"trace_{p}.json" for p in ("odd", "even")]:
        if path.name == "commands.json":
            continue
        doc = json.loads(path.read_text(encoding="utf-8"))
        root = ("trace" if "moves" in doc else
                "pattern" if "components" in doc else
                "descriptor" if "chi_M" in doc else "sigma")
        docs[path.name] = (root, doc)
    return docs


def _path(root: str, at: tuple) -> str:
    return root + "".join(
        f"[{key}]" if isinstance(key, int) else
        f"[{key!r}]" if root == "sigma" else f".{key}" for key in at)


def _edited(doc, at: tuple, value):
    if not at:
        return value
    copy = deepcopy(doc)
    parent = copy
    for key in at[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[at[-1]]
    else:
        parent[at[-1]] = value
    return copy


def _single_faults(root: str, doc):
    """Each copy of ``doc`` with one fault, and the two paths its error may
    start with: the faulty node's and its parent's.  A fault sets one node
    to a value of ``_FAULTS``, deletes one key or adds the key "extra"."""
    for at in list(json_nodes(doc)):
        here, parent = _path(root, at), _path(root, at[:-1])
        for value in _FAULTS:
            yield _edited(doc, at, value), here, parent
        node = doc
        for key in at:
            node = node[key]
        if isinstance(node, dict):
            for key in [*node, "extra"]:
                yield (_edited(doc, at + (key,),
                               _DELETE if key in node else 1),
                       _path(root, at + (key,)), here)


_WIRE_DOCUMENTS = _wire_documents()


@pytest.mark.parametrize("name", sorted(_WIRE_DOCUMENTS))
def test_single_faults_read_or_name_their_path(name):
    """Every single fault either reads or raises one line that starts with
    the path of the faulty node or of its parent, from the document root."""
    root, doc = _WIRE_DOCUMENTS[name]
    for mutated, here, parent in _single_faults(root, doc):
        try:
            _READERS[root](mutated)
        except SchemaError as exc:
            message = str(exc)
            assert "\n" not in message
            assert message.startswith((here + ": ", parent + ": ")), \
                (here, message)


_WRITERS = {"descriptor": descriptor_to_json, "pattern": pattern_to_json,
            "sigma": sigma_to_json, "trace": trace_to_json}


def _written(root: str, doc, path) -> str:
    """``doc`` read, then written back to ``path`` as the CLI writes."""
    _write_json_file(path, _WRITERS[root](_READERS[root](doc)))
    return path.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(_WIRE_DOCUMENTS))
def test_every_document_is_written_back_byte_for_byte(name, tmp_path):
    """Each committed document reads and writes back to its own bytes; a
    pattern whose boundary points leave out their signs gets them as +1,
    and is then a fixed point."""
    root, doc = _WIRE_DOCUMENTS[name]
    written = _written(root, doc, tmp_path / name)
    if any("sigma" not in bp for bp in doc.get("boundary_points", ())):
        signed = deepcopy(doc)
        for bp in signed["boundary_points"]:
            bp.setdefault("sigma", 1)
        assert json.loads(written) == signed
        assert _written(root, signed, tmp_path / name) == written
    else:
        folder = "golden" if root == "trace" else "corpus"
        assert written == (REPO_ROOT / folder / name).read_text(
            encoding="utf-8")


def _d3_sigma_pm() -> MorseDescriptor:
    g = generator(3)
    return replace(g, boundary=(g.boundary[0],
                                replace(g.boundary[1], sigma=-1)))


_DERIVED = {
    "fig2_reverse.json": lambda: reverse(
        descriptor_from_json(_WIRE_DOCUMENTS["fig2.json"][1])),
    "empty.json": lambda: MorseDescriptor.empty(2),
    **{f"d{n}_generator.json": partial(generator, n) for n in (2, 3, 4, 5)},
    "d3_sigma_pm.json": _d3_sigma_pm,
}


@pytest.mark.parametrize("name", sorted(_DERIVED))
def test_derived_corpus_inputs_are_what_the_library_builds(name):
    """The corpus inputs that the library can build are its own values:
    ``fig2_reverse`` is the inverse of ``fig2`` (so ``cobordant`` compares
    a class with its negative), ``empty`` is the unit of disjoint union in
    dimension 2, ``d2``-``d5_generator`` are the generators of Z/2 and Z,
    and ``d3_sigma_pm`` is the 3-disk generator with its top sign flipped:
    chi_plus = 1 = chi_M, so the critical-point-free extension condition
    passes."""
    assert _WIRE_DOCUMENTS[name][1] == descriptor_to_json(_DERIVED[name]())


def test_serialize_imports_no_private_name():
    """The wire formats use only the public names of the package's other
    modules."""
    source = (REPO_ROOT / "src" / "cuspcobord" / "serialize.py").read_text(
        encoding="utf-8")
    private = [f"{node.module}.{alias.name}"
               for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.ImportFrom) and (
                   node.level or node.module.startswith("cuspcobord"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


# ---------------------------------------------------------------------------
# every writer is its reader's inverse, over values the library builds

_VALUES = st.none() | st.fractions()


def _with_values(draw, points: tuple) -> tuple:
    return tuple(replace(point, value=draw(_VALUES)) for point in points)


@st.composite
def _descriptors(draw):
    d = random_descriptor(draw(st.integers(2, 5)),
                          draw(st.randoms(use_true_random=False)))
    return replace(d, interior=_with_values(draw, d.interior),
                   boundary=_with_values(draw, d.boundary))


@st.composite
def _patterns(draw):
    n = draw(st.integers(2, 4))
    shapes = draw(st.lists(st.sampled_from(single_shapes(n, 2)),
                           min_size=1, max_size=3))
    p = build_pattern(n, tuple(shapes), draw(st.none() | st.integers(-3, 3)))
    signed = tuple(replace(point, sigma=draw(st.sampled_from((1, -1))))
                   for point in p.boundary_points)
    return replace(p, boundary_points=_with_values(draw, signed))


# the enumerated patterns of up to 2 components and 2 cusps, by dimension
_SMALL_PATTERNS = {n: list(patterns_up_to(n, 2, 2)) for n in (2, 3, 4)}


@st.composite
def _traces(draw):
    n = draw(st.sampled_from(sorted(_SMALL_PATTERNS)))
    p = draw(st.sampled_from(_SMALL_PATTERNS[n]))
    sigma = SignAssignment({point.id: draw(st.sampled_from((1, -1)))
                            for point in p.boundary_points})
    if n % 2:
        out = normalize_odd(p, sigma)
    else:
        k = len(p.boundary_points)
        out = normalize_even(p, sigma, (p.total_cusps - k // 2) % 2)
    assume(isinstance(out, MoveTrace))
    return out


class TestWritersInvertReaders:
    @given(_descriptors())
    def test_descriptors(self, d):
        assert descriptor_from_json(descriptor_to_json(d)) == d

    @given(_patterns())
    def test_patterns(self, p):
        assert pattern_from_json(pattern_to_json(p)) == p

    @given(_traces())
    def test_traces(self, trace):
        assert trace_from_json(trace_to_json(trace)) == trace
