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
import json
import math
import sys
from typing import Any, Optional

import numpy as np

from . import moves as mv
from . import normal_forms as nf
from . import pattern as pat
from . import serialize
from .errors import PreconditionError, SchemaError
from .group import is_cobordant
from .invariants import (
    SignAssignment,
    chi_plus,
    cobordism_invariant,
    morse_van_schaack,
)
from .morse import validate as validate_descriptor

__all__ = ["main", "entry"]


def _read_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError:
        raise SchemaError(f"{path}: invalid JSON: nested too deeply") from None


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return "%.9g" % value
    return str(value)


def _emit(lines: list[tuple[str, Any]], payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False))
    else:
        for key, value in lines:
            print(f"{key}={_fmt(value)}")


def _write_json_file(path: str, obj: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def _load_valid_descriptor(path: str):
    d = serialize.descriptor_from_json(_read_json(path))
    validate_descriptor(d).require(f"descriptor {path}")
    return d


# ---------------------------------------------------------------------------
# descriptor commands


def _cmd_invariant(args) -> int:
    d = _load_valid_descriptor(args.file)
    cp = chi_plus(d)
    cls = cobordism_invariant(d)
    lines = [("n", d.n), ("chi_M", d.chi_M), ("chi_plus", cp),
             ("invariant", cls.value), ("group", cls.group)]
    _emit(lines, dict(lines), args.json)
    return 0


def _cmd_cobordant(args) -> int:
    d1 = _load_valid_descriptor(args.file_a)
    d2 = _load_valid_descriptor(args.file_b)
    same = is_cobordant(d1, d2)
    i1 = cobordism_invariant(d1)
    i2 = cobordism_invariant(d2)
    lines = [("n", d1.n), ("invariant_a", i1.value),
             ("invariant_b", i2.value), ("cobordant", same)]
    _emit(lines, dict(lines), args.json)
    return 0 if same else 1


def _cmd_extendable(args) -> int:
    d = _load_valid_descriptor(args.file)
    sigma = SignAssignment.from_points(d.boundary)
    ok = morse_van_schaack(d.n, d.chi_M, d.boundary, sigma)
    cls = cobordism_invariant(d)
    lines = [("n", d.n), ("chi_M", d.chi_M), ("chi_plus", chi_plus(d)),
             ("invariant", cls.value),
             ("necessary_condition", "pass" if ok else "fail")]
    _emit(lines, dict(lines), args.json)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# pattern commands


def _require_sigma_file(args) -> SignAssignment:
    if args.sigma is None:
        raise SchemaError("this subcommand needs --sigma <file>")
    return serialize.sigma_from_json(_read_json(args.sigma))


def _cmd_pattern(args) -> int:
    p = serialize.pattern_from_json(_read_json(args.file))
    if args.action == "validate":
        report = pat.validate_pattern(p)
        payload = {
            "valid": report.ok,
            "violations": [{"code": v.code, "message": v.message}
                           for v in report.violations],
            "components": len(p.components),
            "cusps": p.total_cusps,
        }
        lines = [("valid", report.ok)] + [
            ("violation", f"{v.code}: {v.message}")
            for v in report.violations]
        if report.ok:
            lines += [("components", len(p.components)),
                      ("cusps", p.total_cusps),
                      ("boundary_points", len(p.boundary_points))]
        _emit(lines, payload, args.json)
        return 0 if report.ok else 1

    sigma = _require_sigma_file(args)
    if args.action == "check":
        vf = pat.vector_field_exists(p, sigma)
        flags = (pat.check_condition_even(p, sigma) if p.n % 2 == 0
                 else pat.check_condition_odd(p, sigma))
        lines: list[tuple[str, Any]] = [("n", p.n), ("vector_field", vf)]
        comp_payload = []
        for k, (comp, ok) in enumerate(zip(p.components, flags)):
            comp_payload.append({"kind": comp.kind,
                                 "cusps": comp.cusp_count,
                                 "condition": ok})
        payload: dict[str, Any] = {"n": p.n, "vector_field": vf,
                                   "components": comp_payload}
        if p.n % 2 == 0:
            if args.chi_v is not None:
                parity = pat.cusp_parity_check(p, args.chi_v)
                lines.append(("cusp_parity", "pass" if parity else "fail"))
                payload["cusp_parity"] = parity
                if parity:
                    lhs, rhs = pat.aggregate_even(p, sigma, args.chi_v)
                    lines.append(("aggregate_lhs", lhs))
                    lines.append(("aggregate_rhs", rhs))
                    payload["aggregate_lhs"] = lhs
                    payload["aggregate_rhs"] = rhs
        else:
            lhs, rhs = pat.aggregate_odd(p, sigma)
            lines.append(("aggregate_lhs", lhs))
            lines.append(("aggregate_rhs", rhs))
            payload["aggregate_lhs"] = str(lhs)
            payload["aggregate_rhs"] = str(rhs)
        for k, item in enumerate(comp_payload):
            verdict = "pass" if item["condition"] else "fail"
            lines.append(("component", f"{k} kind={item['kind']} "
                                       f"cusps={item['cusps']} "
                                       f"condition={verdict}"))
        _emit(lines, payload, args.json)
        return 0 if vf else 1

    assert args.action == "normalize"
    if p.n % 2 == 0:
        if args.chi_v is None:
            raise SchemaError(
                "normalizing an even-dimensional pattern needs --chi-v")
        result = mv.normalize_even(p, sigma, args.chi_v)
    else:
        result = mv.normalize_odd(p, sigma)

    if isinstance(result, mv.Obstruction):
        ob_json = serialize.obstruction_to_json(result)
        lines = [("status", "obstruction"), ("kind", result.kind)] + [
            (f"witness.{key}", result.witness[key])
            for key in sorted(result.witness)]
        if args.out:
            _write_json_file(args.out, ob_json)
            lines.append(("out", args.out))
        _emit(lines, {"status": "obstruction", "obstruction": ob_json},
              args.json)
        return 1

    replayed = mv.replay(result)
    if replayed != result.final:
        raise AssertionError("trace replay mismatch")
    trace_json = serialize.trace_to_json(result)
    final = result.final
    lines = [("status", "normalized"), ("moves", len(result.moves)),
             ("components", len(final.components)),
             ("cusps", final.total_cusps)]
    payload = dict(lines)
    if args.out:
        _write_json_file(args.out, trace_json)
        lines.append(("out", args.out))
        payload["out"] = args.out
    else:
        payload["trace"] = trace_json
    _emit(lines, payload, args.json)
    return 0


# ---------------------------------------------------------------------------
# numeric traces


def _parse_bump(text: str, what: str) -> nf.PiecewisePoly:
    bits = text.split(":")
    if len(bits) != 3:
        raise SchemaError(
            f"{what}: expected center:radius:height, got {text!r}")
    try:
        return nf.smooth_bump(float(bits[0]), float(bits[1]), float(bits[2]))
    except ValueError as exc:
        raise SchemaError(f"{what}: {exc}") from exc


def _cmd_trace(args) -> int:
    kind = args.kind
    n = args.n
    tol = args.tol
    payload: dict[str, Any] = {"kind": kind, "n": n, "tol": tol}
    lines: list[tuple[str, Any]] = [("kind", kind), ("n", n)]

    if kind == "perturbed-fold":
        alpha = _parse_bump(args.alpha, "--alpha")
        beta = _parse_bump(args.beta, "--beta")
        model = nf.PerturbedFold(args.i, alpha, beta)
    elif kind == "swallowtail":
        model = nf.SwallowTail(args.t)
        payload["t"] = args.t
        lines.append(("t", args.t))
    elif kind == "fold":
        model = nf.Fold(args.i)
    else:
        model = nf.Cusp(args.k)
    m = nf.LocalMap(n, model)
    grid = nf.GridSpec.parse(args.grid) if args.grid else nf.default_grid(m)

    if kind == "perturbed-fold":
        report = nf.perturbed_fold_image(args.i, n, alpha, beta, tol=tol,
                                         grid=grid)
        samples = report.detected
        beta0 = beta(0.0)
        lo, hi = alpha.support()
        ts = np.linspace(lo - 1.0, hi + 1.0, 401)
        curve = nf.PlanarCurve(tuple((float(t), float(alpha(float(t)) * beta0))
                                     for t in ts))
        markers: list[tuple[float, float]] = []
        lines += [("sup_product", report.sup_product),
                  ("samples", report.samples),
                  ("max_axis_distance", report.max_axis_distance),
                  ("max_image_error", report.max_image_error),
                  ("ok", report.ok)]
        payload.update({"sup_product": report.sup_product,
                        "samples": report.samples,
                        "max_axis_distance": report.max_axis_distance,
                        "max_image_error": report.max_image_error,
                        "ok": report.ok})
    else:
        samples = nf.detect_singular_set(m, grid, tol=tol)
        cusps = [s for s in samples if s.kind == "cusp-candidate"]
        lines.append(("samples", len(samples)))
        lines.append(("cusps", len(cusps)))
        payload["samples"] = len(samples)
        payload["cusps"] = len(cusps)

        markers = [nf.evaluate(m, s.point) for s in cusps]
        if kind == "swallowtail":
            curve_obj = nf.swallow_tail_singular_curve(args.t, n)
            if samples:
                xs = [s.point[1] for s in samples]
                xlo, xhi = min(xs), max(xs)
                pad = 0.1 * (xhi - xlo or 1.0)
                xlo, xhi = xlo - pad, xhi + pad
                dist = max(curve_obj.distance_bound(s.point) for s in samples)
            else:
                xlo, xhi, dist = -2.0, 2.0, float("nan")
            sweep = np.linspace(xlo, xhi, 401)
            curve = nf.PlanarCurve(tuple(curve_obj.image_point(float(x))
                                         for x in sweep))
            lines.append(("max_curve_distance", dist))
            # undefined without samples; JSON has no NaN
            payload["max_curve_distance"] = dist if samples else None
        elif kind == "fold":
            ts = [s.point[0] for s in samples] or [-1.0, 1.0]
            curve = nf.PlanarCurve(((min(ts), 0.0), (max(ts), 0.0)))
        else:  # cusp
            xs = [s.point[1] for s in samples] or [-1.0, 1.0]
            xlo, xhi = min(xs), max(xs)
            sweep = np.linspace(xlo, xhi, 401)
            pts = []
            for x in sweep:
                point = (-3.0 * float(x) ** 2, float(x)) + (0.0,) * (n - 2)
                pts.append(nf.evaluate(m, point))
            curve = nf.PlanarCurve(tuple(pts))

    if args.csv:
        artifact = nf.samples_to_csv(samples)
        payload["format"] = "csv"
    else:
        artifact = nf.render_svg([nf.PlanarCurve(curve.points,
                                                 tuple(markers))])
        payload["format"] = "svg"
    payload["grid"] = [list(axis) for axis in grid.axes]

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(artifact)
        lines.append(("out", args.out))
        payload["out"] = args.out
        _emit(lines, payload, args.json)
    elif args.json:
        payload["content"] = artifact
        _emit([], payload, True)
    else:
        sys.stdout.write(artifact)
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        # one stderr line, like every other error the tool reports
        self.exit(2, f"error: {self.prog}: {message}\n")


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
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
    p_inv.add_argument("file", help="descriptor JSON file")
    p_inv.set_defaults(func=_cmd_invariant)

    p_cob = sub.add_parser("cobordant", parents=[common],
                           help="decide whether two descriptors are "
                                "cobordant")
    p_cob.add_argument("file_a")
    p_cob.add_argument("file_b")
    p_cob.set_defaults(func=_cmd_cobordant)

    p_ext = sub.add_parser("extendable", parents=[common],
                           help="check the necessary condition for a "
                                "critical-point-free extension")
    p_ext.add_argument("file", help="descriptor JSON file")
    p_ext.set_defaults(func=_cmd_extendable)

    p_pat = sub.add_parser("pattern", parents=[common],
                           help="validate, check, or normalize a singular "
                                "pattern")
    p_pat.add_argument("action", choices=("validate", "check", "normalize"))
    p_pat.add_argument("file", help="pattern JSON file")
    p_pat.add_argument("--sigma", help="sign assignment JSON file")
    p_pat.add_argument("--chi-v", type=int, dest="chi_v",
                       help="Euler characteristic of the ambient manifold")
    p_pat.add_argument("--out", help="write the move trace or obstruction "
                                     "JSON here")
    p_pat.set_defaults(func=_cmd_pattern)

    p_tr = sub.add_parser("trace", parents=[common],
                          help="detect and render the singular set of a "
                               "local model")
    p_tr.add_argument("kind", choices=("swallowtail", "perturbed-fold",
                                       "fold", "cusp"))
    p_tr.add_argument("--t", type=_finite_float, default=1.0,
                      help="family parameter for swallowtail")
    p_tr.add_argument("--n", type=int, default=3, help="ambient dimension")
    p_tr.add_argument("--i", type=int, default=0,
                      help="negative-square count for fold models")
    p_tr.add_argument("--k", type=int, default=0,
                      help="negative-square count for the cusp model")
    p_tr.add_argument("--alpha", default="0:1:0.4",
                      help="perturbation bump center:radius:height in t")
    p_tr.add_argument("--beta", default="0:1:1",
                      help="perturbation bump center:radius:height in |z|^2")
    p_tr.add_argument("--grid", help="seed grid lo:hi:count per axis, "
                                     "comma-separated")
    p_tr.add_argument("--tol", type=_finite_float, default=1e-9,
                      help="residual tolerance for accepting singular points")
    p_tr.add_argument("--out", help="write the SVG/CSV artifact here")
    p_tr.add_argument("--csv", action="store_true",
                      help="export detected samples as CSV instead of "
                           "rendering an SVG curve plot")
    p_tr.set_defaults(func=_cmd_trace)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SchemaError, PreconditionError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
