"""Strict JSON encodings of descriptors, patterns, signs, and traces.

Every loader validates its input shape completely: unknown keys, missing
required keys, or wrongly typed values raise SchemaError with the one-line
message ``<path>: <problem>``, its path from the document root, such as
``trace.final.components[1].kind`` or ``sigma['x0']``.  Exact rational
critical values travel as strings like "3/4", losing no precision.
"""

from __future__ import annotations

import re
from collections.abc import Mapping, Set
from fractions import Fraction
from functools import partial
from typing import Any, Callable, Optional

from .errors import SchemaError
from .invariants import SignAssignment
from .morse import (
    BoundaryCriticalPoint,
    InteriorCriticalPoint,
    MorseDescriptor,
)
from .moves import Move, MoveTrace, Obstruction, _NamePool
from .pattern import (
    CIRCLE,
    INTERVAL,
    Component,
    Cusp,
    FoldArc,
    SingularPattern,
)

__all__ = [
    "descriptor_from_json",
    "descriptor_to_json",
    "sigma_from_json",
    "sigma_to_json",
    "pattern_from_json",
    "pattern_to_json",
    "trace_from_json",
    "trace_to_json",
    "obstruction_to_json",
]


def _expect_mapping(obj: Any, where: str) -> Mapping:
    if not isinstance(obj, Mapping):
        raise SchemaError(f"{where}: expected an object, got {type(obj).__name__}")
    return obj


def _check_keys(obj: Mapping, where: str, required: Set[str],
                optional: Set[str]) -> None:
    missing = required - obj.keys()
    if missing:
        raise SchemaError(f"{where}: missing keys {sorted(missing)}")
    unknown = obj.keys() - required - optional
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")


_Reader = Callable[[Any, str], Any]  # (JSON value, its path) -> value read


def _fields(obj: Any, where: str, required: dict[str, _Reader],
            optional: dict[str, _Reader] = {}) -> dict[str, Any]:
    """The object ``obj`` at ``where`` as a dict: all keys of ``required``,
    any of ``optional``, each value read by its key's reader at where.key."""
    obj = _expect_mapping(obj, where)
    out = {}
    for key, value in obj.items():
        read = required.get(key) or optional.get(key)
        if read is None:
            break
        out[key] = read(value, f"{where}.{key}")
    if len(out) < len(obj) or not required.keys() <= out.keys():
        _check_keys(obj, where, required.keys(), optional.keys())
    return out


def _items(read: _Reader) -> _Reader:
    """A reader of arrays whose items ``read`` reads, under ``where[k]``."""
    def read_items(obj: Any, where: str) -> tuple:
        if not isinstance(obj, list):
            raise SchemaError(
                f"{where}: expected an array, got {type(obj).__name__}")
        return tuple(read(item, f"{where}[{k}]") for k, item in enumerate(obj))
    return read_items


def _one_of(allowed, what: str) -> _Reader:
    def read(obj: Any, where: str) -> str:
        value = _expect_str(obj, where)
        if value not in allowed:
            raise SchemaError(f"{where}: unknown {what} {value!r}")
        return value
    return read


def _record(cls: Callable, required: dict[str, _Reader],
            optional: dict[str, _Reader] = {}) -> _Reader:
    """A reader of objects that builds ``cls`` from their fields by name (JSON
    keys are field names); a ValueError from ``cls`` is a SchemaError."""
    def read(obj: Any, where: str):
        fields = _fields(obj, where, required, optional)
        try:
            return cls(**fields)
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
    return read


def _expect_int(obj: Any, where: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise SchemaError(f"{where}: expected an integer, got {obj!r}")
    return obj


def _expect_str(obj: Any, where: str) -> str:
    if not isinstance(obj, str):
        raise SchemaError(f"{where}: expected a string, got {obj!r}")
    return obj


def _expect_bool(obj: Any, where: str) -> bool:
    if not isinstance(obj, bool):
        raise SchemaError(f"{where}: expected a boolean, got {obj!r}")
    return obj


# the form str(Fraction) takes; Fraction() alone would also read decimal
# exponents, and "1e10000000" builds a ten-million-digit integer
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _fraction_from_json(obj: Any, where: str) -> Fraction:
    if isinstance(obj, bool):
        raise SchemaError(f"{where}: expected an exact rational, got {obj!r}")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, str):
        if not _RATIONAL.fullmatch(obj):
            raise SchemaError(
                f"{where}: bad rational {obj!r}: expected an integer or "
                f"'p/q' string")
        try:
            return Fraction(obj)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"{where}: bad rational {obj!r}: {exc}") from exc
    raise SchemaError(
        f"{where}: critical values must be exact rationals "
        f"(integer or 'p/q' string), got {obj!r}")


def _sign_from_json(obj: Any, where: str) -> int:
    value = _expect_int(obj, where)
    if value not in (-1, 1):
        raise SchemaError(f"{where}: sign must be 1 or -1, got {value}")
    return value


# ---------------------------------------------------------------------------
# Morse descriptors


_interior_point = _record(
    InteriorCriticalPoint, {"id": _expect_str, "index": _expect_int},
    {"value": _fraction_from_json})
_boundary_point = _record(
    BoundaryCriticalPoint,
    {"id": _expect_str, "mu": _expect_int, "sigma": _sign_from_json},
    {"value": _fraction_from_json})
_descriptor = _record(MorseDescriptor, {
    "n": _expect_int, "oriented": _expect_bool, "chi_M": _expect_int,
    "chi_boundary": _expect_int, "interior": _items(_interior_point),
    "boundary": _items(_boundary_point)})


def descriptor_from_json(obj: Any) -> MorseDescriptor:
    return _descriptor(obj, "descriptor")


def _point_to_json(p: Any, *keys: str) -> dict:
    # a critical point's id and keys, then its value if it has one
    item = {key: getattr(p, key) for key in ("id", *keys)}
    if p.value is not None:
        item["value"] = str(p.value)
    return item


def descriptor_to_json(d: MorseDescriptor) -> dict:
    return {
        "n": d.n,
        "oriented": d.oriented,
        "chi_M": d.chi_M,
        "chi_boundary": d.chi_boundary,
        "interior": [_point_to_json(p, "index") for p in d.interior],
        "boundary": [_point_to_json(p, "mu", "sigma") for p in d.boundary],
    }


# ---------------------------------------------------------------------------
# sign assignments


def sigma_from_json(obj: Any) -> SignAssignment:
    obj = _expect_mapping(obj, "sigma")
    return SignAssignment({_expect_str(key, "sigma key"): _sign_from_json(
        value, f"sigma[{key!r}]") for key, value in obj.items()})


def sigma_to_json(sigma: SignAssignment) -> dict:
    return {pid: sigma.sign(pid) for pid in sorted(sigma.domain())}


# ---------------------------------------------------------------------------
# singular patterns


# each element kind: its class, its index's key, and its body's readers
_ELEMENTS = {"arc": (FoldArc, "tau", {"tau": _expect_int}),
             "cusp": (Cusp, "I", {"I": _expect_int})}
_ID = {"id": _expect_str}


def _element(obj: Any, where: str) -> tuple[type, int, Optional[str]]:
    # (class, index, id or None): unnamed elements are named by _components
    obj = _expect_mapping(obj, where)
    if len(obj) != 1 or not obj.keys() <= _ELEMENTS.keys():
        raise SchemaError(f"{where}: expected exactly one of 'arc' or 'cusp'")
    [(what, body)] = obj.items()
    cls, index, required = _ELEMENTS[what]
    fields = _fields(body, f"{where}.{what}", required, _ID)
    return cls, fields[index], fields.get("id")


def _endpoints(obj: Any, where: str) -> tuple[str, ...]:
    ids = _items(_expect_str)(obj, where)
    if len(ids) != 2:
        raise SchemaError(f"{where}: expected exactly two ids")
    return ids


# a component's fields, kept apart until every element's id is known
_component = _record(dict, {"kind": _one_of((CIRCLE, INTERVAL), "kind"),
                            "sequence": _items(_element)},
                     {"endpoints": _endpoints})


def _components(obj: Any, where: str) -> tuple[Component, ...]:
    # ids are generated only once every explicit id is read, to skip them all
    comps = _items(_component)(obj, where)
    explicit = {eid for comp in comps for _, _, eid in comp["sequence"]
                if eid is not None}
    names = {FoldArc: _NamePool("a", explicit), Cusp: _NamePool("c", explicit)}
    return tuple(
        Component(**{**comp, "sequence": tuple(
            cls(names[cls].take() if eid is None else eid, index)
            for cls, index, eid in comp["sequence"])})
        for comp in comps)


# a pattern's boundary point may leave out its sign, which reads +1
_pattern_point = _record(partial(BoundaryCriticalPoint, sigma=1),
                         {"id": _expect_str, "mu": _expect_int},
                         {"sigma": _sign_from_json})
_pattern = _record(SingularPattern,
                   {"n": _expect_int, "components": _components},
                   {"chi_ambient": _expect_int,
                    "boundary_points": _items(_pattern_point)})


def pattern_from_json(obj: Any) -> SingularPattern:
    return _pattern(obj, "pattern")


def pattern_to_json(p: SingularPattern) -> dict:
    out: dict[str, Any] = {"n": p.n}
    if p.chi_ambient is not None:
        out["chi_ambient"] = p.chi_ambient
    out["boundary_points"] = [
        {"id": bp.id, "mu": bp.mu, "sigma": bp.sigma}
        for bp in p.boundary_points
    ]
    comps = []
    for comp in p.components:
        item: dict[str, Any] = {"kind": comp.kind}
        if comp.endpoints is not None:
            item["endpoints"] = list(comp.endpoints)
        seq = []
        for e in comp.sequence:
            if isinstance(e, FoldArc):
                seq.append({"arc": {"id": e.id, "tau": e.tau}})
            else:
                seq.append({"cusp": {"I": e.normal_index, "id": e.id}})
        item["sequence"] = seq
        comps.append(item)
    out["components"] = comps
    return out


# ---------------------------------------------------------------------------
# move traces and obstructions


# required and optional parameters of each move kind, with their readers
_MOVE_PARAMS = {
    "create_cusp_pair": ({"arc": _expect_str, "i": _expect_int},
                         {"flip": _expect_bool}),
    "eliminate_matching_pair": ({"cusp1": _expect_str, "cusp2": _expect_str},
                                {"reconnection": _expect_str,
                                 "assume_removable": _expect_bool}),
}
_MOVE = {"kind": _one_of(_MOVE_PARAMS, "move kind"), "params": _expect_mapping}


def _move(obj: Any, where: str) -> Move:
    fields = _fields(obj, where, _MOVE)
    return Move(fields["kind"], _fields(fields["params"], where + ".params",
                                        *_MOVE_PARAMS[fields["kind"]]))


_trace = _record(MoveTrace, {"initial": _pattern, "moves": _items(_move),
                             "final": _pattern})


def trace_from_json(obj: Any) -> MoveTrace:
    return _trace(obj, "trace")


def trace_to_json(trace: MoveTrace) -> dict:
    return {
        "initial": pattern_to_json(trace.initial),
        "moves": [{"kind": m.kind, "params": dict(m.params)}
                  for m in trace.moves],
        "final": pattern_to_json(trace.final),
    }


def obstruction_to_json(ob: Obstruction) -> dict:
    return {"kind": ob.kind, "witness": dict(ob.witness)}
