"""The four workloads: seeded inputs, the operations run on them, and the
oracle each operation's output is checked against.

Fresh-process workloads produce ``Op`` records: the ``cuspcobord``
arguments and a check of (exit code, stdout).  They repeat a fixed cycle of
operation classes, and the benchmark measures whole cycles, so every run
holds each class in the same proportion.  Within a cycle, the sizes that
set an operation's cost (pattern size k, the swallowtail parameter t, bump
heights) are the midpoints of equal strata of their continuous range, the
same in every cycle and for every seed: with a few dozen operations per
run, seeded sizes would move the median by more than the host's own noise.
The seed decides the content at those sizes.  ``enum_stream`` produces
``Config`` records for in-process library calls.  Inputs are written under
the run's work directory.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Iterator

import gen
import oracles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass
class Op:
    label: str
    argv: list[str]
    check: Callable[[int, str], list[str]]


def levels(cycle: list) -> Iterator[float]:
    """For each position of the repeated cycle, a point of [0, 1) for that
    position's class: its m positions per cycle take the midpoints of m
    equal strata in the first cycle and points halfway between them in the
    second, and so on alternately, so each cycle covers the range evenly
    and two cycles give 2m distinct sizes."""
    seen: dict = {}
    for entry in itertools.cycle(cycle):
        o = seen[entry] = seen.get(entry, -1) + 1
        m = cycle.count(entry)
        yield (2 * (o % m) + (o // m) % 2 + 0.5) / (2 * m)


def _write(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj))
    return path


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# the frozen corpus, compared byte for byte with golden/


def corpus_ops(workdir: str, trace: bool) -> list[Op]:
    with open(os.path.join(ROOT, "corpus", "commands.json"),
              encoding="utf-8") as fh:
        manifest = json.load(fh)
    tmp = os.path.join(workdir, "corpus_out")
    os.makedirs(tmp, exist_ok=True)
    ops = []
    for spec in manifest:
        if (spec["argv"][0] == "trace") != trace:
            continue
        golden = _read(os.path.join(ROOT, "golden", spec["golden"]))
        artifacts = {p.replace("{tmp}", tmp):
                     _read(os.path.join(ROOT, "golden", name))
                     for p, name in spec.get("out_golden", {}).items()}

        def check(code, out, spec=spec, golden=golden, artifacts=artifacts):
            problems = []
            if code != spec["exit"]:
                problems.append(f"exit {code}, expected {spec['exit']}")
            if out.replace(tmp, "{tmp}") != golden:
                problems.append(f"stdout differs from golden/{spec['golden']}")
            for path, want in artifacts.items():
                if not os.path.exists(path) or _read(path) != want:
                    problems.append(f"artifact {path} differs from golden")
                if os.path.exists(path):
                    os.remove(path)
            return problems

        ops.append(Op("corpus " + " ".join(spec["argv"][:2]),
                      [a.replace("{tmp}", tmp) for a in spec["argv"]], check))
    return ops


def _replay_check(doc: dict) -> list[str]:
    """The certificate re-run: trace_from_json -> replay == final."""
    from cuspcobord import moves, serialize
    try:
        trace = serialize.trace_from_json(doc)
        if moves.replay(trace) != trace.final:
            return ["replayed trace does not reach its final pattern"]
    except Exception as exc:  # any failure of the certificate is a finding
        return [f"trace replay failed: {type(exc).__name__}: {exc}"]
    return []


def _normalize_op(rng: random.Random, p: gen.Pattern, solvable: bool,
                  base: str, out: str, label: str) -> Op:
    chi_v = None
    if p.n % 2 == 0:
        chi_v = gen.chi_v_for(p) + 2 * rng.randint(-1, 1)
    sigma = gen.sigma_for(rng, p, solvable, chi_v)
    argv = ["pattern", "normalize", _write(base + "_p.json", p.to_json()),
            "--sigma", _write(base + "_s.json", sigma)]
    if chi_v is not None:
        argv += ["--chi-v", str(chi_v)]
    argv += ["--out", out]

    def check(code, text):
        try:
            return oracles.check_normalize(p, sigma, chi_v, code, text, out,
                                           _replay_check)
        finally:
            if os.path.exists(out):
                os.remove(out)

    return Op(label, argv, check)


# ---------------------------------------------------------------------------
# cli_small: everyday commands, dominated by interpreter start and imports

# One cycle of operation classes, about ten seconds long on a 2-CPU host,
# so that a fifteen-second window always measures two whole cycles.
CLI_CYCLE = ["corpus", "invariant", "check", "cobordant", "validate",
             "corpus", "extendable", "normalize", "invariant", "corpus",
             "check", "validate_bad", "cobordant", "corpus", "invariant",
             "check", "extendable", "validate", "corpus", "normalize"] * 2


def cli_small(rng: random.Random, workdir: str, count: int = 160) -> list[Op]:
    corpus = itertools.cycle(corpus_ops(workdir, trace=False))
    ops: list[Op] = []
    out = os.path.join(workdir, "norm_out.json")
    for i in range(count):
        what = CLI_CYCLE[i % len(CLI_CYCLE)]
        base = os.path.join(workdir, f"op{i}")
        if what == "corpus":
            ops.append(next(corpus))
        elif what in ("invariant", "cobordant", "extendable"):
            n = rng.randint(2, 5)
            d = gen.random_descriptor(rng, n)
            argv = [what, _write(base + "_a.json", d)]
            if what == "cobordant":
                e = gen.random_descriptor(rng, n, prefix="y")
                argv.append(_write(base + "_b.json", e))
                expected = oracles.expect_cobordant(d, e)
            elif what == "invariant":
                expected = oracles.expect_invariant(d)
            else:
                expected = oracles.expect_extendable(d)
            as_json = rng.random() < 0.25
            if as_json:
                argv.append("--json")
            ops.append(Op(what, argv, lambda c, o, e=expected, j=as_json:
                          oracles.check_kv(e, c, o, j)))
        else:
            ops.append(_pattern_op(rng, what, base, out))
    return ops


def _pattern_op(rng: random.Random, what: str, base: str, out: str) -> Op:
    n = rng.randint(2, 4)
    p = gen.random_pattern(rng, n, rng.randint(1, 3), 3, 0.7)
    if what == "validate":
        argv = ["pattern", "validate", _write(base + "_p.json", p.to_json())]
        return Op(what, argv, lambda c, o, e=oracles.expect_validate(p):
                  oracles.check_kv(e, c, o))
    if what == "validate_bad":
        # a second element reusing the first element's id
        p = gen.random_pattern(rng, n, rng.randint(2, 3), 3, 0.7)
        doc = p.to_json()
        elements = [e for c in doc["components"] for e in c["sequence"]]
        first = next(iter(elements[0].values()))["id"]
        next(iter(elements[1].values()))["id"] = first
        argv = ["pattern", "validate", _write(base + "_p.json", doc)]
        return Op(what, argv, lambda c, o: oracles.check_validate_invalid(
            c, o, "duplicate-element-id"))
    if what == "check":
        sigma = {x: rng.choice((1, -1)) for x, _ in p.points}
        argv = ["pattern", "check", _write(base + "_p.json", p.to_json()),
                "--sigma", _write(base + "_s.json", sigma)]
        chi_v = None
        if n % 2 == 0:
            # one in five violates the cusp-parity law
            chi_v = gen.chi_v_for(p) + (1 if rng.random() < 0.2 else 0)
            argv += ["--chi-v", str(chi_v)]
        text = oracles.expect_check(p, sigma, chi_v)
        code = 0 if "vector_field=yes" in text else 1
        return Op(what, argv, lambda c, o: (
            ([] if c == code else [f"exit {c}, expected {code}"])
            + ([] if o == text else [f"stdout {o!r} != {text!r}"])))
    return _normalize_op(rng, p, rng.random() >= 0.2, base, out, "normalize")


# ---------------------------------------------------------------------------
# trace: Newton detection on the default grids

# (kind, n, variant): the sign of t for swallowtail, the corpus entry.
# About ten seconds per cycle, as for CLI_CYCLE.  Costs cluster by kind;
# eight of the thirteen sit between 0.7 and 1.0 s on a 2-CPU host
# (swallowtail n=2 with t > 0, n=3 with t < 0, cusp n=3, and two corpus
# commands), with four cheaper and one dearer, so the median lies well
# inside one cluster rather than on the edge between two.
TRACE_CYCLE = [("corpus", 0, 0), ("swallowtail", 2, 1), ("cusp", 2, 0),
               ("swallowtail", 3, -1), ("corpus", 0, 1), ("swallowtail", 2, 1),
               ("perturbed-fold", 2, 0), ("cusp", 3, 0), ("corpus", 0, 2),
               ("swallowtail", 3, -1), ("corpus", 0, 3), ("swallowtail", 2, 1),
               ("corpus", 0, 4)]


def trace(rng: random.Random, workdir: str, count: int = 52) -> list[Op]:
    corpus = corpus_ops(workdir, trace=True)
    ops: list[Op] = []
    svg = os.path.join(workdir, "pf.svg")
    for i, u in zip(range(count), levels(TRACE_CYCLE)):
        what, n, variant = TRACE_CYCLE[i % len(TRACE_CYCLE)]
        if what == "corpus":
            ops.append(corpus[variant])
        elif what == "swallowtail":
            # two cusps for t > 0, none for t < 0; the seed moves |t| by 1%
            t_text = "%.6f" % (variant * gen.lerp(u, 0.25, 1.5)
                               * rng.uniform(0.99, 1.01))
            t = float(t_text)
            ops.append(Op(what, ["trace", "swallowtail", "--t", t_text,
                                 "--n", str(n), "--csv"],
                          lambda c, o, t=t, n=n:
                          oracles.check_swallowtail_csv(t, n, c, o)))
        elif what == "cusp":
            k = int(u * (n - 1))
            ops.append(Op(what, ["trace", "cusp", "--n", str(n), "--k", str(k),
                                 "--csv"],
                          lambda c, o, n=n: oracles.check_cusp_csv(n, c, o)))
        else:
            # bump heights that keep sup |alpha * beta'| in [0.3, 0.9]
            ha = float("%.6f" % gen.lerp(u, 0.2, 0.6))
            rb = float("%.6f" % gen.lerp(1.0 - u, 0.8, 1.5))
            hb = float("%.6f" % (rng.uniform(0.3, 0.9) * rb / (1.875 * ha)))
            alpha = "%.6f:%.6f:%.6f" % (rng.uniform(-0.5, 0.5),
                                        rng.uniform(0.6, 1.4), ha)
            beta = "0:%.6f:%.6f" % (rb, hb)
            sup = oracles.bump_sup(ha, hb, rb)
            ops.append(Op(what, ["trace", "perturbed-fold", "--n", str(n),
                                 f"--alpha={alpha}", f"--beta={beta}",
                                 "--out", svg],
                          lambda c, o, s=sup, n=n:
                          oracles.check_perturbed_fold(s, n, c, o, svg)))
    return ops


# ---------------------------------------------------------------------------
# normalize_large: hundreds of moves on one large pattern per process

# (n, normalizable): 2 obstructions in 10, about nine seconds per cycle
LARGE_CYCLE = [(3, True), (4, True)] * 2 + [(3, False)] + [
    (4, True), (3, True)] * 2 + [(4, False)]
LARGE_K = (50, 200)


def normalize_large(rng: random.Random, workdir: str,
                    count: int = 40) -> list[Op]:
    """k is log-uniform over LARGE_K, four strata per dimension and cycle."""
    out = os.path.join(workdir, "trace_out.json")
    ops = []
    for i, u in zip(range(count), levels(LARGE_CYCLE)):
        n, solvable = LARGE_CYCLE[i % len(LARGE_CYCLE)]
        k = round(gen.log_lerp(u, *LARGE_K))
        p = gen.large_pattern(rng, n, k)
        ops.append(_normalize_op(rng, p, solvable,
                                 os.path.join(workdir, f"op{i}"), out,
                                 f"normalize n={n} k={k}"))
    return ops


CYCLES = {"cli_small": len(CLI_CYCLE), "trace": len(TRACE_CYCLE),
          "normalize_large": len(LARGE_CYCLE)}


# ---------------------------------------------------------------------------
# enum_stream: small configurations, every sign assignment of each pattern


@dataclass
class Config:
    pattern: gen.Pattern
    obj: object  # the package's SingularPattern
    sigma: dict
    sigma_obj: object  # the package's SignAssignment
    chi_v: int | None


def to_objects(p: gen.Pattern):
    from cuspcobord.morse import BoundaryCriticalPoint
    from cuspcobord.pattern import Component, Cusp, FoldArc, SingularPattern
    comps = []
    for c in p.components:
        seq = tuple(FoldArc(eid, v) if what == "arc" else Cusp(eid, v)
                    for what, eid, v in c["seq"])
        comps.append(Component(c["kind"], seq, c.get("endpoints")))
    return SingularPattern(p.n, tuple(comps), tuple(
        BoundaryCriticalPoint(pid, mu, 1) for pid, mu in p.points))


def enum_stream(rng: random.Random, count: int) -> list[tuple]:
    """(generated pattern, package object) pairs; configurations are the
    patterns under each of their sign assignments, in order."""
    return [(p, to_objects(p)) for p in gen.stream_patterns(rng, count)]


def configs(patterns: list[tuple]) -> Iterator[Config]:
    from cuspcobord.invariants import SignAssignment
    while True:
        for p, obj in patterns:
            chi_v = gen.chi_v_for(p) if p.n % 2 == 0 else None
            for sigma in gen.all_sigmas(p):
                yield Config(p, obj, sigma, SignAssignment(sigma), chi_v)


def enum_op(pattern_mod, moves_mod, cfg: Config):
    """One configuration: both predicates, then normalization and replay."""
    obj, sigma, chi_v = cfg.obj, cfg.sigma_obj, cfg.chi_v
    even = obj.n % 2 == 0
    flags = (pattern_mod.check_condition_even if even
             else pattern_mod.check_condition_odd)(obj, sigma)
    vf = pattern_mod.vector_field_exists(obj, sigma)
    result = (moves_mod.normalize_even(obj, sigma, chi_v) if even
              else moves_mod.normalize_odd(obj, sigma))
    replayed = (moves_mod.replay(result)
                if isinstance(result, moves_mod.MoveTrace) else None)
    return flags, vf, result, replayed


def check_enum(cfg: Config, out) -> list[str]:
    flags, vf, result, replayed = out
    p, sigma = cfg.pattern, cfg.sigma
    mu = p.mu()
    comps = oracles.comps_from_gen(p)
    problems = []
    if flags != [oracles.component_ok(p.n, k, s, e, mu, sigma)
                 for k, s, e in comps]:
        problems.append("component conditions differ from the law")
    if vf != all(oracles.field_ok(k, s, e, sigma) for k, s, e in comps):
        problems.append("vector_field_exists differs from the law")
    solvable = gen.normalizable(p, sigma, cfg.chi_v)
    if replayed is None:
        kind, witness = oracles.expect_obstruction(p, sigma, cfg.chi_v)
        if solvable or (result.kind, result.witness) != (kind, witness):
            problems.append(f"obstruction {result.kind} {result.witness} "
                            f"where the law says solvable={solvable}")
        return problems
    if not solvable:
        problems.append("normalized where the law says obstruction")
    if replayed != result.final or result.initial != cfg.obj:
        problems.append("trace does not replay to its final pattern")
    return problems + oracles.final_errors(
        p.n, oracles.comps_from_objects(result.final), mu, sigma)
