"""Strict JSON encodings of descriptors, patterns, signs, and traces.

Every loader validates its input shape completely: unknown keys, missing
required keys, or wrongly typed values raise SchemaError with the object
path.  Exact rational critical values travel as strings like "3/4" so no
precision is lost in transit.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Any, Mapping, Optional

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


def _check_keys(obj: Mapping, where: str, required: set[str],
                optional: set[str] = frozenset()) -> None:
    keys = set(obj.keys())
    missing = required - keys
    if missing:
        raise SchemaError(f"{where}: missing keys {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")


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


def _expect_list(obj: Any, where: str) -> list:
    if not isinstance(obj, list):
        raise SchemaError(f"{where}: expected an array, got {type(obj).__name__}")
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


def descriptor_from_json(obj: Any) -> MorseDescriptor:
    obj = _expect_mapping(obj, "descriptor")
    _check_keys(obj, "descriptor",
                {"n", "oriented", "chi_M", "chi_boundary", "interior",
                 "boundary"})
    interior = []
    for k, item in enumerate(_expect_list(obj["interior"],
                                          "descriptor.interior")):
        where = f"descriptor.interior[{k}]"
        item = _expect_mapping(item, where)
        _check_keys(item, where, {"id", "index"}, {"value"})
        value = (_fraction_from_json(item["value"], where + ".value")
                 if "value" in item else None)
        interior.append(InteriorCriticalPoint(
            _expect_str(item["id"], where + ".id"),
            _expect_int(item["index"], where + ".index"),
            value))
    boundary = []
    for k, item in enumerate(_expect_list(obj["boundary"],
                                          "descriptor.boundary")):
        where = f"descriptor.boundary[{k}]"
        item = _expect_mapping(item, where)
        _check_keys(item, where, {"id", "mu", "sigma"}, {"value"})
        value = (_fraction_from_json(item["value"], where + ".value")
                 if "value" in item else None)
        boundary.append(BoundaryCriticalPoint(
            _expect_str(item["id"], where + ".id"),
            _expect_int(item["mu"], where + ".mu"),
            _sign_from_json(item["sigma"], where + ".sigma"),
            value))
    try:
        return MorseDescriptor(
            n=_expect_int(obj["n"], "descriptor.n"),
            oriented=_expect_bool(obj["oriented"], "descriptor.oriented"),
            chi_M=_expect_int(obj["chi_M"], "descriptor.chi_M"),
            chi_boundary=_expect_int(obj["chi_boundary"],
                                     "descriptor.chi_boundary"),
            interior=tuple(interior),
            boundary=tuple(boundary),
        )
    except ValueError as exc:
        raise SchemaError(f"descriptor: {exc}") from exc


def descriptor_to_json(d: MorseDescriptor) -> dict:
    interior = []
    for p in d.interior:
        item: dict[str, Any] = {"id": p.id, "index": p.index}
        if p.value is not None:
            item["value"] = str(p.value)
        interior.append(item)
    boundary = []
    for p in d.boundary:
        item = {"id": p.id, "mu": p.mu, "sigma": p.sigma}
        if p.value is not None:
            item["value"] = str(p.value)
        boundary.append(item)
    return {
        "n": d.n,
        "oriented": d.oriented,
        "chi_M": d.chi_M,
        "chi_boundary": d.chi_boundary,
        "interior": interior,
        "boundary": boundary,
    }


# ---------------------------------------------------------------------------
# sign assignments


def sigma_from_json(obj: Any) -> SignAssignment:
    obj = _expect_mapping(obj, "sigma")
    entries = {}
    for key, value in obj.items():
        entries[_expect_str(key, "sigma key")] = _sign_from_json(
            value, f"sigma[{key!r}]")
    return SignAssignment(entries)


def sigma_to_json(sigma: SignAssignment) -> dict:
    return {pid: sigma.sign(pid) for pid in sorted(sigma.domain())}


# ---------------------------------------------------------------------------
# singular patterns


def pattern_from_json(obj: Any) -> SingularPattern:
    obj = _expect_mapping(obj, "pattern")
    _check_keys(obj, "pattern", {"n", "components"},
                {"chi_ambient", "boundary_points"})
    n = _expect_int(obj["n"], "pattern.n")
    chi_ambient = (_expect_int(obj["chi_ambient"], "pattern.chi_ambient")
                   if "chi_ambient" in obj else None)
    boundary = []
    for k, item in enumerate(_expect_list(obj.get("boundary_points", []),
                                          "pattern.boundary_points")):
        where = f"pattern.boundary_points[{k}]"
        item = _expect_mapping(item, where)
        _check_keys(item, where, {"id", "mu"}, {"sigma"})
        sigma = (_sign_from_json(item["sigma"], where + ".sigma")
                 if "sigma" in item else 1)
        boundary.append(BoundaryCriticalPoint(
            _expect_str(item["id"], where + ".id"),
            _expect_int(item["mu"], where + ".mu"),
            sigma))

    # two passes so explicit ids never collide with generated ones
    raw_components = _expect_list(obj["components"], "pattern.components")
    explicit: set[str] = set()
    parsed: list[tuple[str, Optional[tuple[str, str]], list[tuple]]] = []
    for ci, comp in enumerate(raw_components):
        where = f"pattern.components[{ci}]"
        comp = _expect_mapping(comp, where)
        _check_keys(comp, where, {"kind", "sequence"}, {"endpoints"})
        kind = _expect_str(comp["kind"], where + ".kind")
        if kind not in (CIRCLE, INTERVAL):
            raise SchemaError(f"{where}.kind: unknown kind {kind!r}")
        endpoints = None
        if "endpoints" in comp:
            eps = _expect_list(comp["endpoints"], where + ".endpoints")
            if len(eps) != 2:
                raise SchemaError(
                    f"{where}.endpoints: expected exactly two ids")
            endpoints = (_expect_str(eps[0], where + ".endpoints[0]"),
                         _expect_str(eps[1], where + ".endpoints[1]"))
        items = []
        for k, e in enumerate(_expect_list(comp["sequence"],
                                           where + ".sequence")):
            ew = f"{where}.sequence[{k}]"
            e = _expect_mapping(e, ew)
            if set(e.keys()) == {"arc"}:
                body = _expect_mapping(e["arc"], ew + ".arc")
                _check_keys(body, ew + ".arc", {"tau"}, {"id"})
                eid = (_expect_str(body["id"], ew + ".arc.id")
                       if "id" in body else None)
                items.append(("arc", _expect_int(body["tau"],
                                                 ew + ".arc.tau"), eid))
            elif set(e.keys()) == {"cusp"}:
                body = _expect_mapping(e["cusp"], ew + ".cusp")
                _check_keys(body, ew + ".cusp", {"I"}, {"id"})
                eid = (_expect_str(body["id"], ew + ".cusp.id")
                       if "id" in body else None)
                items.append(("cusp", _expect_int(body["I"],
                                                  ew + ".cusp.I"), eid))
            else:
                raise SchemaError(
                    f"{ew}: expected exactly one of 'arc' or 'cusp'")
            if items[-1][2] is not None:
                explicit.add(items[-1][2])
        parsed.append((kind, endpoints, items))

    names = {prefix: _NamePool(prefix, explicit) for prefix in ("a", "c")}
    components = []
    for kind, endpoints, items in parsed:
        seq: list = []
        for what, value, eid in items:
            if what == "arc":
                seq.append(FoldArc(eid if eid is not None
                                   else names["a"].take(), value))
            else:
                seq.append(Cusp(eid if eid is not None
                                else names["c"].take(), value))
        try:
            components.append(Component(kind, tuple(seq), endpoints))
        except ValueError as exc:
            raise SchemaError(f"pattern component: {exc}") from exc
    try:
        return SingularPattern(n, tuple(components), tuple(boundary),
                               chi_ambient)
    except ValueError as exc:
        raise SchemaError(f"pattern: {exc}") from exc


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


# required and optional parameters of each move kind, with their types
_MOVE_PARAM_KEYS = {
    "create_cusp_pair": ({"arc": _expect_str, "i": _expect_int},
                         {"flip": _expect_bool}),
    "eliminate_matching_pair": ({"cusp1": _expect_str, "cusp2": _expect_str},
                                {"reconnection": _expect_str,
                                 "assume_removable": _expect_bool}),
}


def _move_from_json(obj: Any, where: str) -> Move:
    obj = _expect_mapping(obj, where)
    _check_keys(obj, where, {"kind", "params"})
    kind = _expect_str(obj["kind"], where + ".kind")
    if kind not in _MOVE_PARAM_KEYS:
        raise SchemaError(f"{where}.kind: unknown move kind {kind!r}")
    params = dict(_expect_mapping(obj["params"], where + ".params"))
    required, optional = _MOVE_PARAM_KEYS[kind]
    _check_keys(params, where + ".params", set(required), set(optional))
    expect = {**required, **optional}
    for key, value in params.items():
        expect[key](value, f"{where}.params.{key}")
    return Move(kind, params)


def trace_from_json(obj: Any) -> MoveTrace:
    obj = _expect_mapping(obj, "trace")
    _check_keys(obj, "trace", {"initial", "moves", "final"})
    moves = tuple(_move_from_json(m, f"trace.moves[{k}]")
                  for k, m in enumerate(_expect_list(obj["moves"],
                                                     "trace.moves")))
    return MoveTrace(pattern_from_json(obj["initial"]), moves,
                     pattern_from_json(obj["final"]))


def trace_to_json(trace: MoveTrace) -> dict:
    return {
        "initial": pattern_to_json(trace.initial),
        "moves": [{"kind": m.kind, "params": dict(m.params)}
                  for m in trace.moves],
        "final": pattern_to_json(trace.final),
    }


def obstruction_to_json(ob: Obstruction) -> dict:
    return {"kind": ob.kind, "witness": dict(ob.witness)}
