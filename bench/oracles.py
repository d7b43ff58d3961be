"""Independent oracles for every operation the benchmark runs.

Expected outputs are recomputed here from the generated inputs with the
laws stated in the package documentation, never taken from the package:

* descriptor verdicts from chi_M - sum over sigma = +1 of (-1)^mu, reduced
  mod 2 for even n;
* per-component normal-field conditions, the cusp-parity law, and the
  sign-sum / parity law that decides whether normalization succeeds;
* structural validity of every emitted final pattern (``pattern_errors``);
* analytic singular sets of the swallowtail and cusp models.

The one exception, named in the benchmark's contract, is the move-trace
certificate: it is re-run through ``trace_from_json`` and ``replay`` and
must reproduce the recorded final pattern.

Each check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import gen

# ---------------------------------------------------------------------------
# descriptors


def _chi_plus(d: dict) -> int:
    return sum((-1) ** b["mu"] for b in d["boundary"] if b["sigma"] == 1)


def _invariant(d: dict) -> int:
    v = d["chi_M"] - _chi_plus(d)
    return v % 2 if d["n"] % 2 == 0 else v


def _extendable(d: dict) -> bool:
    cp = _chi_plus(d)
    if d["n"] % 2 == 0:
        return (cp - d["chi_M"]) % 2 == 0
    return cp == d["chi_M"]


def expect_invariant(d: dict) -> tuple[int, list[tuple[str, object]]]:
    return 0, [("n", d["n"]), ("chi_M", d["chi_M"]),
               ("chi_plus", _chi_plus(d)), ("invariant", _invariant(d)),
               ("group", "Z/2" if d["n"] % 2 == 0 else "Z")]


def expect_cobordant(a: dict, b: dict) -> tuple[int, list]:
    same = _invariant(a) == _invariant(b)
    return (0 if same else 1), [("n", a["n"]), ("invariant_a", _invariant(a)),
                                ("invariant_b", _invariant(b)),
                                ("cobordant", same)]


def expect_extendable(d: dict) -> tuple[int, list]:
    ok = _extendable(d)
    return (0 if ok else 1), [("n", d["n"]), ("chi_M", d["chi_M"]),
                              ("chi_plus", _chi_plus(d)),
                              ("invariant", _invariant(d)),
                              ("necessary_condition", "pass" if ok else "fail")]


def _fmt(v: object) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    return str(v)


def kv_text(lines: list[tuple[str, object]]) -> str:
    return "".join(f"{k}={_fmt(v)}\n" for k, v in lines)


def check_kv(expected: tuple[int, list], code: int, out: str,
             as_json: bool = False) -> list[str]:
    want_code, lines = expected
    problems = []
    if code != want_code:
        problems.append(f"exit {code}, expected {want_code}")
    if as_json:
        try:
            got = json.loads(out)
        except ValueError:
            return problems + ["stdout is not JSON"]
        if got != dict(lines):
            problems.append(f"JSON {got} != {dict(lines)}")
    elif out != kv_text(lines):
        problems.append(f"stdout {out!r} != {kv_text(lines)!r}")
    return problems


# ---------------------------------------------------------------------------
# patterns in a neutral form: [(kind, [(what, id, value)], endpoints)]


def comps_from_json(obj: dict) -> list[tuple]:
    out = []
    for c in obj["components"]:
        seq = []
        for e in c["sequence"]:
            if "arc" in e:
                seq.append(("arc", e["arc"].get("id"), e["arc"]["tau"]))
            else:
                seq.append(("cusp", e["cusp"].get("id"), e["cusp"]["I"]))
        eps = tuple(c["endpoints"]) if "endpoints" in c else None
        out.append((c["kind"], seq, eps))
    return out


def comps_from_objects(p) -> list[tuple]:
    out = []
    for c in p.components:
        seq = [("cusp", e.id, e.normal_index) if hasattr(e, "normal_index")
               else ("arc", e.id, e.tau) for e in c.sequence]
        out.append((c.kind, seq, c.endpoints))
    return out


def comps_from_gen(p: gen.Pattern) -> list[tuple]:
    return [(c["kind"], list(c["seq"]), c.get("endpoints"))
            for c in p.components]


def _cusps(seq: list) -> int:
    return sum(1 for what, _, _ in seq if what == "cusp")


def component_ok(n: int, kind: str, seq: list, eps, mu: dict,
                 sigma: dict) -> bool:
    """The per-component normal-field condition (even and odd n)."""
    cusps = _cusps(seq)
    if n % 2 == 1:
        if kind == "circle":
            return True
        return sum((-1) ** mu[x] * sigma[x] for x in eps) == 0
    if kind == "circle":
        return cusps % 2 == 0
    return (2 * cusps + sigma[eps[0]] + sigma[eps[1]]) % 4 == 0


def field_ok(kind: str, seq: list, eps, sigma: dict) -> bool:
    even = _cusps(seq) % 2 == 0
    if kind == "circle":
        return even
    return even == (sigma[eps[0]] != sigma[eps[1]])


def pattern_errors(n: int, comps: list[tuple], mu: dict) -> list[str]:
    """Structural laws of a pattern, checked from the index rules."""
    lo, hi = gen.tau_window(n)
    errors = []
    seen: set = set()
    uses = {x: 0 for x in mu}
    for ci, (kind, seq, eps) in enumerate(comps):
        where = f"component {ci}"
        if not seq:
            errors.append(f"{where}: empty")
            continue
        want = "arc"
        for what, eid, _ in seq:
            if what != want:
                errors.append(f"{where}: arcs and cusps do not alternate")
                break
            want = "cusp" if want == "arc" else "arc"
        if kind == "interval" and seq[-1][0] != "arc":
            errors.append(f"{where}: interval ends on a cusp")
        if kind == "circle" and len(seq) > 1 and seq[-1][0] != "cusp":
            errors.append(f"{where}: circle word does not close on a cusp")
        for what, eid, v in seq:
            if eid in seen:
                errors.append(f"{where}: id {eid!r} repeated")
            seen.add(eid)
            if what == "arc" and not lo <= v <= hi:
                errors.append(f"{where}: arc index {v} outside [{lo}, {hi}]")
            if what == "cusp" and not 0 <= v <= n - 2:
                errors.append(f"{where}: cusp index {v} out of range")
        for k, (what, eid, I) in enumerate(seq):
            if what != "cusp":
                continue
            left = seq[k - 1][2]
            right = seq[(k + 1) % len(seq)][2]
            if right not in gen.next_taus(left, I, n):
                errors.append(f"{where}: cusp {eid!r} abuts {left}, {right}")
        if kind == "circle":
            if eps is not None:
                errors.append(f"{where}: circle with endpoints")
            if n % 2 == 1 and _cusps(seq) % 2 == 1:
                errors.append(f"{where}: odd circle in odd dimension")
            continue
        if eps is None or eps[0] == eps[1]:
            errors.append(f"{where}: bad endpoints {eps}")
            continue
        for x, (_, _, tau) in zip(eps, (seq[0], seq[-1])):
            if x not in mu:
                errors.append(f"{where}: unknown endpoint {x!r}")
                continue
            uses[x] += 1
            if tau != gen.end_tau(mu[x], n):
                errors.append(f"{where}: end arc index {tau} at {x!r}")
    errors += [f"point {x!r} ends {c} intervals" for x, c in uses.items()
               if c != 1]
    return errors


def final_errors(n: int, final: list[tuple], mu: dict, sigma: dict) -> list[str]:
    """A normalized pattern must be valid and meet the condition everywhere."""
    errors = pattern_errors(n, final, mu)
    if not all(component_ok(n, k, s, e, mu, sigma) for k, s, e in final):
        errors.append("final pattern fails the normal-field condition")
    return errors


# ---------------------------------------------------------------------------
# pattern commands


def expect_validate(p: gen.Pattern) -> tuple[int, list]:
    return 0, [("valid", True), ("components", len(p.components)),
               ("cusps", p.total_cusps), ("boundary_points", len(p.points))]


def check_validate_invalid(code: int, out: str, violation: str) -> list[str]:
    problems = [] if code == 1 else [f"exit {code}, expected 1"]
    lines = out.splitlines()
    if not lines or lines[0] != "valid=no":
        problems.append("first line is not valid=no")
    if not any(line.startswith(f"violation={violation}:") for line in lines):
        problems.append(f"no {violation} violation reported")
    return problems


def expect_check(p: gen.Pattern, sigma: dict, chi_v: int | None) -> str:
    n, mu = p.n, p.mu()
    comps = comps_from_gen(p)
    flags = [component_ok(n, k, s, e, mu, sigma) for k, s, e in comps]
    vf = all(field_ok(k, s, e, sigma) for k, s, e in comps)
    lines: list[tuple[str, object]] = [("n", n), ("vector_field", vf)]
    cp = gen.chi_plus(mu, sigma)
    if n % 2 == 0:
        if chi_v is not None:
            parity = (p.total_cusps - chi_v - len(mu) // 2) % 2 == 0
            lines.append(("cusp_parity", "pass" if parity else "fail"))
            if parity:
                total = sum(2 * _cusps(s) + (0 if k == "circle" else
                                             sigma[e[0]] + sigma[e[1]])
                            for k, s, e in comps)
                lines += [("aggregate_lhs", (chi_v - cp) % 2),
                          ("aggregate_rhs", (total // 2) % 2)]
    else:
        chi_dv = sum((-1) ** m for m in mu.values())
        weighted = sum((-1) ** mu[x] * sigma[x] for k, _, e in comps
                       if k == "interval" for x in e)
        lines += [("aggregate_lhs", Fraction(chi_dv, 2) - cp),
                  ("aggregate_rhs", -Fraction(weighted, 2))]
    text = kv_text(lines)
    for k, ((kind, seq, _), ok) in enumerate(zip(comps, flags)):
        text += (f"component={k} kind={kind} cusps={_cusps(seq)} "
                 f"condition={'pass' if ok else 'fail'}\n")
    return text


def expect_obstruction(p: gen.Pattern, sigma: dict,
                       chi_v: int | None) -> tuple[str, dict]:
    mu = p.mu()
    if p.n % 2 == 1:
        total = sum((-1) ** mu[x] * sigma[x] for x in mu)
        return "sign_sum_nonzero", {"expected": 0, "sum": total}
    cp = gen.chi_plus(mu, sigma)
    return "parity_mismatch", {"chi_V": chi_v, "chi_plus": cp,
                               "lhs_mod2": chi_v % 2, "rhs_mod2": cp % 2}


def check_normalize(p: gen.Pattern, sigma: dict, chi_v: int | None,
                    code: int, out: str, out_path: str,
                    replay_check) -> list[str]:
    """Check a ``pattern normalize --out`` run against the laws; the trace
    file is also handed to ``replay_check`` (the certificate re-run)."""
    solvable = gen.normalizable(p, sigma, chi_v)
    try:
        with open(out_path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"cannot read {out_path}: {exc}"]
    if not solvable:
        kind, witness = expect_obstruction(p, sigma, chi_v)
        text = f"status=obstruction\nkind={kind}\n" + "".join(
            f"witness.{k}={witness[k]}\n" for k in sorted(witness))
        text += f"out={out_path}\n"
        problems = [] if code == 1 else [f"exit {code}, expected 1"]
        if out != text:
            problems.append(f"stdout {out!r} != {text!r}")
        if doc != {"kind": kind, "witness": witness}:
            problems.append("obstruction file does not match the witness")
        return problems
    problems = [] if code == 0 else [f"exit {code}, expected 0"]
    final = comps_from_json(doc["final"])
    initial = comps_from_json(doc["initial"])
    if initial != comps_from_gen(p):
        problems.append("trace initial pattern differs from the input")
    mu = p.mu()
    if {b["id"]: b["mu"] for b in doc["final"]["boundary_points"]} != mu:
        problems.append("final boundary points differ from the input")
    text = (f"status=normalized\nmoves={len(doc['moves'])}\n"
            f"components={len(final)}\n"
            f"cusps={sum(_cusps(s) for _, s, _ in final)}\nout={out_path}\n")
    if out != text:
        problems.append(f"stdout {out!r} != {text!r}")
    problems += final_errors(p.n, final, mu, sigma)
    if not problems:
        problems += replay_check(doc)
    return problems


# ---------------------------------------------------------------------------
# numeric traces


def _csv_rows(out: str, n: int) -> tuple[list[list[str]], list[str]]:
    lines = out.splitlines()
    header = ["t"] + [f"z{k + 1}" for k in range(n - 1)] + ["residual",
                                                            "class"]
    if not lines or lines[0] != ",".join(header):
        return [], [f"bad CSV header {lines[:1]}"]
    rows = [line.split(",") for line in lines[1:]]
    if not rows:
        return [], ["no singular samples"]
    if any(len(r) != n + 2 for r in rows):
        return [], ["ragged CSV row"]
    return rows, []


def check_swallowtail_csv(t: float, n: int, code: int, out: str) -> list[str]:
    """Every sample lies on the analytic curve (-x^3/3 + t x, x, 0, ...)
    within 1e-8; there are two cusps at x = +-sqrt(t) for t > 0, none for
    t < 0; fold samples carry the Hessian index the curve predicts."""
    problems = [] if code == 0 else [f"exit {code}, expected 0"]
    rows, bad = _csv_rows(out, n)
    if bad:
        return problems + bad
    cusps = []
    for r in rows:
        tt, x = float(r[0]), float(r[1])
        rest = [float(v) for v in r[2:n]]
        dist = math.hypot(tt - (-x ** 3 / 3 + t * x), *rest)
        if not dist < 1e-8:
            problems.append(f"sample {r[:n]} is {dist:.3g} off the curve")
        if r[-1] == "cusp-candidate":
            cusps.append(x)
        elif r[-1] != f"fold({1 if x * x < t else 0})":
            problems.append(f"sample at x={x} classed {r[-1]}")
    want = [-math.sqrt(t), math.sqrt(t)] if t > 0 else []
    if len(cusps) != len(want) or any(
            abs(a - b) > 1e-6 for a, b in zip(sorted(cusps), want)):
        problems.append(f"cusps at {cusps}, expected {want}")
    return problems


def check_cusp_csv(n: int, code: int, out: str) -> list[str]:
    """Every sample satisfies t = -3 z1^2 with the other z = 0."""
    problems = [] if code == 0 else [f"exit {code}, expected 0"]
    rows, bad = _csv_rows(out, n)
    if bad:
        return problems + bad
    for r in rows:
        tt, x = float(r[0]), float(r[1])
        off = max([abs(tt + 3 * x * x)] + [abs(float(v)) for v in r[2:n]])
        if not off < 1e-8:
            problems.append(f"sample {r[:n]} is {off:.3g} off t = -3 z1^2")
    return problems


def bump_sup(ha: float, hb: float, rb: float) -> float:
    """sup |alpha * beta'| for smoothstep bumps: |ha| * |hb| * 15/8 / rb."""
    return abs(ha) * abs(hb) * 1.875 / rb


def check_perturbed_fold(sup: float, n: int, code: int, out: str,
                         svg_path: str) -> list[str]:
    problems = [] if code == 0 else [f"exit {code}, expected 0"]
    got = dict(line.split("=", 1) for line in out.splitlines()
               if "=" in line)
    if got.get("ok") != "yes":
        problems.append(f"ok={got.get('ok')}")
    if got.get("kind") != "perturbed-fold" or got.get("n") != str(n):
        problems.append("kind/n lines wrong")
    try:
        if abs(float(got["sup_product"]) - sup) > 1e-8 * max(1.0, sup):
            problems.append(f"sup_product {got['sup_product']} != {sup}")
        if int(got["samples"]) < 1:
            problems.append("no samples")
    except (KeyError, ValueError):
        problems.append("missing sup_product/samples")
    try:
        with open(svg_path, encoding="utf-8") as fh:
            svg = fh.read()
        if not (svg.startswith("<svg") and svg.endswith("</svg>\n")
                and '<path class="fold"' in svg):
            problems.append("SVG artifact malformed")
    except OSError as exc:
        problems.append(f"no SVG artifact: {exc}")
    return problems


def has_traceback(err: str) -> bool:
    return "Traceback (most recent call last)" in err
