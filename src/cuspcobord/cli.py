"""Command-line interface.

Subcommands cover the full pipeline: invariant/cobordance/extendability
decisions on Morse descriptors, validation/checking/normalization of
singular patterns, and numeric traces of the local models with SVG/CSV
artifacts.

Output contract: line-oriented ``key=value`` reports on stdout (or a JSON
object with sorted keys under ``--json``); exit 0 for success/affirmative,
1 for a negative verdict or obstruction, 2 for schema or precondition
errors, 3 for an internal error (a fault of the program, not of the input;
one ``error: internal: ...`` line on stderr).  Identical inputs produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import sys
from fractions import Fraction
from typing import Any, Optional, Sequence

# The numeric work is on 2x2-4x4 stacks, where extra BLAS threads never help
# and their start-up spin costs CPU in every command; numpy loads below.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
if __name__ == "__main__":
    # Every object the imports make lives until exit, so walking them finds
    # no garbage; entry() freezes them and turns the collector back on.
    gc.disable()

from . import moves as mv
from . import normal_forms as nf
from . import pattern as pat
from . import serialize
from .errors import PreconditionError, SchemaError
from .group import is_cobordant
from .invariants import chi_plus, cobordism_invariant
from .morse import validate as validate_descriptor

__all__ = ["main", "entry"]


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _read_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except ValueError as exc:  # syntax, UTF-8, a huge integer, a repeat
            raise SchemaError(f"invalid JSON: {exc}") from exc
        except RecursionError:
            raise SchemaError("invalid JSON: nested too deeply") from None


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return "%.9g" % value
    return str(value)


def _json_value(value: Any) -> Any:
    # exact rationals travel as strings, and JSON has no NaN
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _emit(fields: list[tuple[str, Any]], as_json: bool,
          text: Sequence[tuple[str, Any]] = (), extra: Optional[dict] = None,
          out: Optional[str] = None) -> None:
    """Print one report from its ordered ``fields``.

    As text: the fields as ``key=value`` lines, then the text-only lines
    ``text``, then ``out=`` naming the file the command wrote, if any.
    Under ``--json``: one object of the fields and ``out``, updated with
    the JSON-only entries ``extra`` (which may replace a field's value).
    """
    tail = [("out", out)] if out is not None else []
    if as_json:
        obj = {key: _json_value(value) for key, value in fields + tail}
        obj.update(extra or {})
        _write_json(sys.stdout, obj)
    else:
        for key, value in [*fields, *text, *tail]:
            print(f"{key}={_fmt(value)}")


def _write_json(stream, obj: Any) -> None:  # the tool's one JSON encoding
    json.dump(obj, stream, sort_keys=True, indent=2, allow_nan=False)
    stream.write("\n")


def _write_json_file(path: str, obj: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _write_json(fh, obj)


# ---------------------------------------------------------------------------
# descriptor commands


def _cmd_invariant(args) -> int:
    d = args.file
    cls = cobordism_invariant(d)
    _emit([("n", d.n), ("chi_M", d.chi_M), ("chi_plus", chi_plus(d)),
           ("invariant", cls.value), ("group", cls.group)], args.json)
    return 0


def _cmd_cobordant(args) -> int:
    d1, d2 = args.file_a, args.file_b
    same = is_cobordant(d1, d2)
    _emit([("n", d1.n), ("invariant_a", cobordism_invariant(d1).value),
           ("invariant_b", cobordism_invariant(d2).value),
           ("cobordant", same)], args.json)
    return 0 if same else 1


def _cmd_extendable(args) -> int:
    d = args.file
    value = cobordism_invariant(d).value
    ok = value == 0  # Morse-van Schaack under the descriptor's own signs
    _emit([("n", d.n), ("chi_M", d.chi_M), ("chi_plus", chi_plus(d)),
           ("invariant", value),
           ("necessary_condition", "pass" if ok else "fail")], args.json)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# pattern commands


def _cmd_validate(args) -> int:
    p = args.file
    report = pat.validate_pattern(p)
    counts = [("components", len(p.components)), ("cusps", p.total_cusps)]
    fields: list[tuple[str, Any]] = [("valid", report.ok)]
    extra = {"violations": [{"code": v.code, "message": v.message}
                            for v in report.violations]}
    if report.ok:
        fields += counts
        text = [("boundary_points", len(p.boundary_points))]
    else:
        # the text of an invalid pattern lists its violations instead
        extra.update(counts)
        text = [("violation", f"{v.code}: {v.message}")
                for v in report.violations]
    _emit(fields, args.json, text, extra)
    return 0 if report.ok else 1


def _pattern_and_chi_v(args):
    """The pattern of ``check`` or ``normalize`` and its chi(V): --chi-v,
    else the pattern's chi_ambient.  Both are for even n, and must agree."""
    p, given, stored = args.file, args.chi_v, args.file.chi_ambient
    for name, value in (("--chi-v", given), ("chi_ambient", stored)):
        if p.n % 2 == 1 and value is not None:
            raise SchemaError(f"{name} applies only to even n, not n={p.n}")
    if None not in (given, stored) and given != stored:
        raise SchemaError(f"--chi-v {given} differs from the pattern's "
                          f"chi_ambient {stored}")
    return p, stored if given is None else given


def _cmd_check(args) -> int:
    (p, chi_v), sigma = _pattern_and_chi_v(args), args.sigma
    vf = pat.vector_field_exists(p, sigma)
    flags = (pat.check_condition_even(p, sigma) if p.n % 2 == 0
             else pat.check_condition_odd(p, sigma))
    fields: list[tuple[str, Any]] = [("n", p.n), ("vector_field", vf)]
    extra = {"components": [
        {"kind": comp.kind, "cusps": comp.cusp_count, "condition": ok}
        for comp, ok in zip(p.components, flags)]}
    aggregate = None
    if p.n % 2 == 1:
        aggregate = pat.aggregate_odd(p, sigma)
    elif chi_v is not None:
        parity = pat.cusp_parity_check(p, chi_v)
        fields.append(("cusp_parity", "pass" if parity else "fail"))
        extra["cusp_parity"] = parity
        if parity:
            aggregate = pat.aggregate_even(p, sigma, chi_v)
    if aggregate is not None:
        fields += zip(("aggregate_lhs", "aggregate_rhs"), aggregate)
    text = [("component", f"{k} kind={item['kind']} "
                          f"cusps={item['cusps']} condition="
                          f"{'pass' if item['condition'] else 'fail'}")
            for k, item in enumerate(extra["components"])]
    _emit(fields, args.json, text, extra)
    return 0 if vf else 1


def _cmd_normalize(args) -> int:
    (p, chi_v), sigma = _pattern_and_chi_v(args), args.sigma
    if p.n % 2 == 0:
        if chi_v is None:
            raise SchemaError("normalizing an even-dimensional pattern "
                              "needs --chi-v or the pattern's chi_ambient")
        result = mv.normalize_even(p, sigma, chi_v)
    else:
        result = mv.normalize_odd(p, sigma)

    if isinstance(result, mv.Obstruction):
        doc = serialize.obstruction_to_json(result)
        fields: list[tuple[str, Any]] = [("status", "obstruction")]
        text = [("kind", result.kind)] + [
            (f"witness.{key}", result.witness[key])
            for key in sorted(result.witness)]
        extra = {"obstruction": doc}
    else:
        if mv.replay(result) != result.final:
            raise AssertionError("trace replay mismatch")
        doc = serialize.trace_to_json(result)
        fields = [("status", "normalized"), ("moves", len(result.moves)),
                  ("components", len(result.final.components)),
                  ("cusps", result.final.total_cusps)]
        text = []
        extra = {"trace": doc} if args.out is None else {}
    if args.out is not None:
        _write_json_file(args.out, doc)
    _emit(fields, args.json, text, extra, args.out)
    return 1 if isinstance(result, mv.Obstruction) else 0


# ---------------------------------------------------------------------------
# numeric traces


def _detect(args, m: nf.LocalMap, grid: nf.GridSpec):
    """The samples of a fold or cusp model, and their report fields."""
    samples = nf.detect_singular_set(m, grid, tol=args.tol)
    return samples, [("samples", len(samples)),
                     ("cusps", sum(s.kind == "cusp-candidate"
                                   for s in samples))]


def _detect_swallowtail(args, m: nf.LocalMap, grid: nf.GridSpec):
    samples, counts = _detect(args, m, grid)
    curve = nf.SwallowTailCurve(args.n, args.t)
    return samples, [("t", args.t), *counts, ("max_curve_distance", max(
        (curve.distance_bound(s.point) for s in samples),
        default=float("nan")))]


def _detect_perturbed_fold(args, m: nf.LocalMap, grid: nf.GridSpec):
    r = nf.perturbed_fold_image(m.kind.index, args.n, m.kind.alpha,
                                m.kind.beta, tol=args.tol, grid=grid)
    keys = "sup_product samples max_axis_distance max_image_error ok"
    return r.detected, [(key, getattr(r, key)) for key in keys.split()]


def _cmd_trace(args) -> int:
    m = nf.LocalMap(args.n, args.model(args))
    grid = nf.default_grid(m) if args.grid is None else args.grid
    samples, found = args.detect(args, m, grid)
    artifact = (nf.samples_to_csv(m, samples) if args.csv else
                nf.render_svg(nf.singular_value_curve(m, samples)))
    extra = {"tol": args.tol, "format": "csv" if args.csv else "svg",
             "grid": [list(axis) for axis in grid.axes]}
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(artifact)
    elif args.json:
        extra["content"] = artifact
    else:
        sys.stdout.write(artifact)
        return 0
    _emit([("kind", args.kind), ("n", args.n), *found], args.json,
          extra=extra, out=args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # full option names only: a prefix could name another option
        super().__init__(*args, allow_abbrev=False, **kwargs)
        # a dash before a digit, or before a point and a digit, starts a
        # value (--t -2.5e-1, --grid -1:1:3,...); no option starts so
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message: str):
        # one stderr line, like every other error the tool reports
        self.exit(2, f"error: {self.prog}: {message}\n")


def _input(read, name: Optional[str] = None):
    """The parser type of one input: ``read`` it, and put its name (the
    option ``name``, else the path given) in front of any error."""
    def convert(text: str):
        try:
            return read(text)
        except (SchemaError, PreconditionError, ValueError) as exc:
            raise SchemaError(f"{name or text}: {exc}") from exc
    return convert


def _descriptor(path: str):
    d = serialize.descriptor_from_json(_read_json(path))
    validate_descriptor(d).require("descriptor")
    return d


def _pattern(path: str, valid: bool = True):
    p = serialize.pattern_from_json(_read_json(path))
    if valid:
        pat.validate_pattern(p).require("pattern")
    return p


def _number(text: str, field: str = "") -> float:
    """``text`` as a float; an error names the ``field`` it fills, if any."""
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{field} {text!r} is not a number".lstrip()) from None


def _integer(text: str, field: str = "") -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(
            f"{field} {text!r} is not an integer".lstrip()) from None


def _grid(text: str) -> nf.GridSpec:
    axes = []
    for part in text.split(","):
        bits = part.split(":")
        if len(bits) != 3:
            raise ValueError(
                f"axis spec {part!r} is not of the form lo:hi:count")
        try:
            axes.append((_number(bits[0], "lo"), _number(bits[1], "hi"),
                         _integer(bits[2], "count")))
        except ValueError as exc:
            raise ValueError(f"axis spec {part!r}: {exc}") from None
    return nf.GridSpec(tuple(axes))


def _bump(text: str) -> nf.PiecewisePoly:
    bits = text.split(":")
    if len(bits) != 3:
        raise ValueError(f"expected center:radius:height, got {text!r}")
    return nf.smooth_bump(*map(_number, bits, ("center", "radius", "height")))


def _finite(text: str) -> float:
    if not math.isfinite(value := _number(text)):
        raise ValueError(f"must be finite, got {text!r}")
    return value


def _positive(text: str) -> float:
    if not (value := _finite(text)) > 0:
        raise ValueError(f"must be positive, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cuspcobord",
        description="Cobordism invariants of Morse functions and the "
                    "fold/cusp combinatorics of their generic extensions.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a JSON object instead of key=value lines")

    p_inv = sub.add_parser("invariant", parents=[common],
                           help="compute the cobordism invariant of a "
                                "Morse descriptor")
    descriptor = _input(_descriptor)
    p_inv.add_argument("file", type=descriptor, help="descriptor JSON file")
    p_inv.set_defaults(func=_cmd_invariant)

    p_cob = sub.add_parser("cobordant", parents=[common],
                           help="decide whether two descriptors are "
                                "cobordant")
    p_cob.add_argument("file_a", type=descriptor)
    p_cob.add_argument("file_b", type=descriptor)
    p_cob.set_defaults(func=_cmd_cobordant)

    p_ext = sub.add_parser("extendable", parents=[common],
                           help="check the necessary condition for a "
                                "critical-point-free extension")
    p_ext.add_argument("file", type=descriptor, help="descriptor JSON file")
    p_ext.set_defaults(func=_cmd_extendable)

    p_pat = sub.add_parser("pattern", help="validate, check, or normalize "
                                            "a singular pattern")
    actions = p_pat.add_subparsers(dest="action", required=True)
    p_val = actions.add_parser("validate", parents=[common])
    # validate reports the violations that check and normalize refuse
    p_val.add_argument("file", type=_input(lambda f: _pattern(f, False)),
                       help="pattern JSON file")
    p_val.set_defaults(func=_cmd_validate)
    signed = argparse.ArgumentParser(add_help=False, parents=[common])
    signed.add_argument("file", type=_input(_pattern),
                        help="pattern JSON file")
    signed.add_argument("--sigma", required=True, type=_input(
        lambda f: serialize.sigma_from_json(_read_json(f))),
        help="sign assignment JSON")
    signed.add_argument("--chi-v", type=_input(_integer, "--chi-v"),
                        help="Euler characteristic of the ambient manifold "
                             "(even n only; defaults to the pattern's)")
    actions.add_parser("check", parents=[signed]).set_defaults(func=_cmd_check)
    p_norm = actions.add_parser("normalize", parents=[signed])
    p_norm.add_argument("--out", help="write the trace or obstruction here")
    p_norm.set_defaults(func=_cmd_normalize)

    p_tr = sub.add_parser("trace", help="detect and render the singular set "
                                        "of a local model")
    kinds = p_tr.add_subparsers(dest="kind", required=True)
    shared = argparse.ArgumentParser(add_help=False, parents=[common])
    shared.add_argument("--n", type=_input(_integer, "--n"), default=3,
                        help="ambient dimension")
    shared.add_argument("--grid", type=_input(_grid, "--grid"),
                        help="seed grid lo:hi:count per axis, comma-separated")
    shared.add_argument("--tol", type=_input(_positive, "--tol"), default=1e-9,
                        help="residual tolerance for singular points")
    shared.add_argument("--out", help="write the SVG/CSV artifact here")
    shared.add_argument("--csv", action="store_true",
                        help="write the samples as CSV, not an SVG plot")
    shared.set_defaults(func=_cmd_trace, detect=_detect)
    fold_index = argparse.ArgumentParser(add_help=False)
    fold_index.add_argument("--i", type=_input(_integer, "--i"),
                            default=0, help="fold index")

    st = kinds.add_parser("swallowtail", parents=[shared])
    st.add_argument("--t", type=_input(_finite, "--t"), default=1.0,
                    help="family parameter")
    st.set_defaults(model=lambda a: nf.SwallowTail(a.t),
                    detect=_detect_swallowtail)
    pf = kinds.add_parser("perturbed-fold", parents=[shared, fold_index])
    pf.add_argument("--alpha", type=_input(_bump, "--alpha"),
                    default="0:1:0.4",
                    help="perturbation bump center:radius:height in t")
    pf.add_argument("--beta", type=_input(_bump, "--beta"), default="0:1:1",
                    help="perturbation bump center:radius:height in |z|^2")
    pf.set_defaults(model=lambda a: nf.PerturbedFold(a.i, a.alpha, a.beta),
                    detect=_detect_perturbed_fold)
    kinds.add_parser("fold", parents=[shared, fold_index]).set_defaults(
        model=lambda a: nf.Fold(a.i))
    cusp = kinds.add_parser("cusp", parents=[shared])
    cusp.add_argument("--k", type=_input(_integer, "--k"), default=0,
                      help="cusp index")
    cusp.set_defaults(model=lambda a: nf.Cusp(a.k))

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        # the parser reads and checks every input (see _input)
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # a usage error, or --help
        return int(exc.code or 0)
    except (SchemaError, PreconditionError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    """The process entry: later collections, the one at teardown included,
    skip the start-up objects of numpy, the stdlib and the package."""
    gc.freeze()
    gc.enable()
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
