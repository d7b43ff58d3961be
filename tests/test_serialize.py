"""JSON wire formats: round trips, strict key checking, fraction values."""

import json
import random
from fractions import Fraction

import pytest

from cuspcobord import SchemaError
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

from _corpus import REPO_ROOT
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


class TestObstruction:
    def test_shape(self):
        from cuspcobord.moves import Obstruction
        out = obstruction_to_json(Obstruction("parity_mismatch",
                                              {"chi_V": 1, "chi_plus": 2}))
        assert out == {"kind": "parity_mismatch",
                       "witness": {"chi_V": 1, "chi_plus": 2}}
