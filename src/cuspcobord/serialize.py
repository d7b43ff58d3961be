"""Strict JSON encodings of descriptors, patterns, signs, and traces.

Every loader validates its input shape completely: unknown keys, missing
required keys, or wrongly typed values raise SchemaError with the one-line
message ``<path>: <problem>``, its path from the document root, such as
``trace.final.components[1].kind`` or ``sigma['x0']``.  Exact rational
critical values travel as strings like "3/4", losing no precision.  Each
format is stated once, by its readers: every writer is a reader's inverse.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction
from functools import partial
from typing import Any, Callable

from .errors import SchemaError
from .invariants import SignAssignment
from .morse import (
    BoundaryCriticalPoint,
    InteriorCriticalPoint,
    MorseDescriptor,
)
from .moves import SPLIT, STAY, Move, MoveTrace, Obstruction
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


_Reader = Callable[[Any, str], Any]  # (JSON value, its path) -> value read


def _writer(read: _Reader) -> Callable[[Any], Any]:
    """The inverse of ``read``: its ``write``, else the value as it is."""
    return getattr(read, "write", lambda value: value)


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
        if missing := required.keys() - obj.keys():
            raise SchemaError(f"{where}: missing keys {sorted(missing)}")
        unknown = obj.keys() - required.keys() - optional.keys()
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")
    return out


def _items(read: _Reader) -> _Reader:
    """A reader of arrays whose items ``read`` reads, under ``where[k]``."""
    def read_items(obj: Any, where: str) -> tuple:
        if not isinstance(obj, list):
            raise SchemaError(
                f"{where}: expected an array, got {type(obj).__name__}")
        return tuple(read(item, f"{where}[{k}]") for k, item in enumerate(obj))
    write = _writer(read)
    read_items.write = lambda values: [write(v) for v in values]
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
    keys are field names); a ValueError from ``cls`` is a SchemaError.  Its
    ``write`` writes every required field and each optional one not None."""
    def read(obj: Any, where: str):
        fields = _fields(obj, where, required, optional)
        try:
            return cls(**fields)
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
    writers = [(key, _writer(r), key in required)
               for key, r in {**required, **optional}.items()]

    def write(value: Any) -> dict:
        return {key: write_field(field) for key, write_field, always in writers
                if (field := getattr(value, key)) is not None or always}
    read.write = write
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


_fraction_from_json.write = str


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


def descriptor_to_json(d: MorseDescriptor) -> dict:
    return _descriptor.write(d)


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


# each element kind: its class, and the JSON key and field name of its index
_ELEMENTS = {"arc": (FoldArc, "tau", "tau"),
             "cusp": (Cusp, "I", "normal_index")}
_KIND = {cls: (what, key, f) for what, (cls, key, f) in _ELEMENTS.items()}


def _element(obj: Any, where: str) -> FoldArc | Cusp:
    obj = _expect_mapping(obj, where)
    if len(obj) != 1 or not obj.keys() <= _ELEMENTS.keys():
        raise SchemaError(f"{where}: expected exactly one of 'arc' or 'cusp'")
    [(what, body)] = obj.items()
    cls, key, _ = _ELEMENTS[what]
    fields = _fields(body, f"{where}.{what}",
                     {"id": _expect_str, key: _expect_int})
    return cls(fields["id"], fields[key])


def _write_element(e: FoldArc | Cusp) -> dict:
    what, key, field = _KIND[type(e)]
    return {what: {"id": e.id, key: getattr(e, field)}}


_element.write = _write_element


def _endpoints(obj: Any, where: str) -> tuple[str, ...]:
    ids = _items(_expect_str)(obj, where)
    if len(ids) != 2:
        raise SchemaError(f"{where}: expected exactly two ids")
    return ids


_endpoints.write = list

_component = _record(Component, {"kind": _one_of((CIRCLE, INTERVAL), "kind"),
                                 "sequence": _items(_element)},
                     {"endpoints": _endpoints})
# a pattern's boundary point may leave out its sign, which reads +1
_pattern_point = _record(partial(BoundaryCriticalPoint, sigma=1),
                         {"id": _expect_str, "mu": _expect_int},
                         {"sigma": _sign_from_json,
                          "value": _fraction_from_json})
_pattern = _record(SingularPattern,
                   {"n": _expect_int, "components": _items(_component)},
                   {"chi_ambient": _expect_int,
                    "boundary_points": _items(_pattern_point)})


def pattern_from_json(obj: Any) -> SingularPattern:
    return _pattern(obj, "pattern")


def pattern_to_json(p: SingularPattern) -> dict:
    return _pattern.write(p)


# ---------------------------------------------------------------------------
# move traces and obstructions


# the parameters of each move kind, every one required, with their readers
_MOVE_PARAMS = {
    "create_cusp_pair": {"arc": _expect_str, "i": _expect_int,
                         "flip": _expect_bool},
    "eliminate_matching_pair": {
        "cusp1": _expect_str, "cusp2": _expect_str,
        "reconnection": _one_of((STAY, SPLIT), "reconnection"),
        "assume_removable": _expect_bool},
}
_MOVE = {"kind": _one_of(_MOVE_PARAMS, "move kind"), "params": _expect_mapping}
_expect_mapping.write = dict  # a move's params are written as a copy


def _move(obj: Any, where: str) -> Move:
    fields = _fields(obj, where, _MOVE)
    return Move(fields["kind"], _fields(fields["params"], where + ".params",
                                        _MOVE_PARAMS[fields["kind"]]))


_move.write = _record(Move, _MOVE).write
_trace = _record(MoveTrace, {"initial": _pattern, "moves": _items(_move),
                             "final": _pattern})


def trace_from_json(obj: Any) -> MoveTrace:
    return _trace(obj, "trace")


def trace_to_json(trace: MoveTrace) -> dict:
    return _trace.write(trace)


def obstruction_to_json(ob: Obstruction) -> dict:
    return {"kind": ob.kind, "witness": dict(ob.witness)}
