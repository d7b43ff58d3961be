"""JSON wire formats: round trips, strict key checking, fraction values."""

import json
import random
from copy import deepcopy
from fractions import Fraction

import pytest

from cuspcobord.errors import SchemaError
from cuspcobord.moves import Move, MoveTrace
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
from _enumeration import build_pattern, random_descriptor, single_shapes


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

    def test_ids_autogenerated_when_omitted(self):
        obj = {"n": 2, "boundary_points": [],
               "components": [{"kind": "circle",
                               "sequence": [{"arc": {"tau": 1}},
                                            {"cusp": {"I": 0}},
                                            {"arc": {"tau": 1, "id": "a0"}},
                                            {"cusp": {"I": 0}}]}]}
        p = pattern_from_json(obj)
        ids = [e.id for e in p.components[0].sequence]
        # the explicit id is kept; generated ones never collide with it
        assert "a0" in ids
        assert len(set(ids)) == 4

    def test_sigma_on_boundary_defaults_to_plus(self):
        obj = {"n": 2,
               "boundary_points": [{"id": "x0", "mu": 0},
                                   {"id": "x1", "mu": 0, "sigma": -1}],
               "components": [{"kind": "interval",
                               "endpoints": ["x0", "x1"],
                               "sequence": [{"arc": {"tau": 1}}]}]}
        p = pattern_from_json(obj)
        assert p.boundary_points[0].sigma == 1
        assert p.boundary_points[1].sigma == -1

    def test_unknown_element_kind_rejected(self):
        obj = {"n": 2, "boundary_points": [],
               "components": [{"kind": "circle",
                               "sequence": [{"blob": {"tau": 1}}]}]}
        with pytest.raises(SchemaError):
            pattern_from_json(obj)

    def test_chi_ambient_is_optional(self):
        obj = {"n": 2, "chi_ambient": 2, "boundary_points": [],
               "components": [{"kind": "circle",
                               "sequence": [{"arc": {"tau": 1}}]}]}
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

    @pytest.mark.parametrize("side", ["initial", "final"])
    def test_pattern_errors_name_their_side(self, side):
        with open(REPO_ROOT / "golden" / "trace_odd.json",
                  encoding="utf-8") as fh:
            obj = json.load(fh)
        obj[side]["components"][0]["kind"] = "blob"
        with pytest.raises(SchemaError, match=rf"^trace\.{side}\.components"
                                              r"\[0\]\.kind: unknown kind"):
            trace_from_json(obj)


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
