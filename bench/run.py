#!/usr/bin/env python3
"""Benchmark of the cuspcobord CLI and library.

Run from the repository root:

    python3 bench/run.py --workload cli_small --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all

Workloads (see ``workloads.py`` and BENCHMARK.json for why each exists):

* ``cli_small``        fresh ``python -m cuspcobord.cli`` processes on the
                       non-trace corpus commands and seeded small inputs;
* ``trace``            fresh ``trace`` processes on the default grids;
* ``normalize_large``  fresh ``pattern normalize --out`` processes on seeded
                       patterns of 50-200 intervals;
* ``enum_stream``      in-process predicates + normalization + replay over
                       small configurations under all their sign assignments,
                       timed in batches of ``ENUM_BATCH`` configurations.

Load is one client in a closed loop: each operation starts when the
previous one has returned, until the operations have taken ``--seconds``
of wall time (checking their outputs comes on top).  Fresh-process
workloads run a fixed cycle of operation classes and stop at the end of a
cycle.  Every output is checked by an oracle in ``oracles.py``; wrong exit
codes, wrong output, tracebacks on stderr and timeouts count as failed
operations.  End-to-end times are corrected for the host's speed during
the run, measured with a fixed loop between operations (``HostSpeed``);
the unscaled values are in the environment record.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` replays a
sample of the workload's operations in-process, untraced and then with
every public function of the package wrapped (``spans.py``), and reports
per-layer self times and counts, interpreter/import start-up measured from
outside, normalization scaling in the pattern size, detection scaling in
the seed count, and the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print each
metric with its unit and one JSON line recording the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import itertools
import json
import math
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import gen
import oracles
import procs
import spans
import workloads as wl

ROOT = wl.ROOT
SRC = os.path.join(ROOT, "src")
PY = sys.executable
WORKLOADS = ("cli_small", "trace", "normalize_large", "enum_stream")
SETUP_REPEATS = 5
OP_TIMEOUT_S = 30.0
MEASURE_CAP = 4  # a run stops after this many times --seconds, cycle or not
SAMPLE_SHARE = 0.3  # of --seconds, per pass of the traced run's sample
STARTUP_REPEATS = 5
ENUM_PATTERNS = 6000
ENUM_WARMUP = 300  # configurations run during set-up, skipped afterwards
ENUM_BATCH = 64
REF_ITERATIONS = 20_000
REF_NOMINAL_MS = 1.0
HOST_EXPONENT = 0.5


def declared_units() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric units as BENCHMARK.json declares them.
    Per-layer times and counts without a size in their name are per
    operation of the traced sample."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class Run:
    """Outcome accounting shared by every part of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{label}: {'; '.join(problems[:3])}")
        return not problems


class HostSpeed:
    """Times a fixed pure-Python loop between operations.

    On a shared host the speed this process gets drifts by up to a third
    between runs a minute apart.  The loop involves no code under test, and
    its speed explains part of the drift of the workloads' times: scaling
    them by the full speed ratio over-corrected in some periods and not
    scaling under-corrected in others (worst run-to-run spreads 0.27 and
    0.32 over ten-run batches on a 2-vCPU host), while the square root of
    the ratio (``HOST_EXPONENT``) kept every spread under 0.2.  Reported
    times are scaled by (``REF_NOMINAL_MS`` / loop time) ** HOST_EXPONENT;
    the unscaled values go to the environment record."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, repeats: int = 3) -> None:
        for _ in range(repeats):
            t0 = time.perf_counter()
            x = 0
            for i in range(REF_ITERATIONS):
                x += i
            self.samples.append(time.perf_counter() - t0)

    def ref_ms(self) -> float:
        return statistics.median(self.samples) * 1e3

    def scale(self, metrics: dict) -> dict:
        f = (REF_NOMINAL_MS / self.ref_ms()) ** HOST_EXPONENT
        return {name: (value / f if name == "throughput_ops_s"
                       else value if name == "peak_rss_mb" else value * f)
                for name, value in metrics.items()}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def verdict(check, *args) -> list[str]:
    """An oracle's problems; output too malformed to check is one too."""
    try:
        return check(*args)
    except Exception:  # the run goes on and counts the operation as failed
        return ["output could not be checked: "
                + traceback.format_exc(limit=1).strip()]


TAIL_LADDER = (99.0, 95.0, 90.0, 75.0)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) for the highest percentile of ``TAIL_LADDER``
    with at least ten samples beyond it, else the median.  A fixed ladder
    keeps the percentile the same from run to run while the sample count
    varies a little; above p99 the in-process stream's tail measured
    garbage-collection pauses and host hiccups and did not repeat."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= 10:
            return ordered[math.ceil(n * pct / 100.0) - 1], pct
    return statistics.median(ordered), 50.0


# ---------------------------------------------------------------------------
# set-up


def build(workload: str, seed: int, workdir: str):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "enum_stream":
        return wl.enum_stream(rng, ENUM_PATTERNS)
    return getattr(wl, workload)(rng, workdir)


def setup(workload: str, seed: int, workdir: str, run: Run,
          host: HostSpeed):
    """Generate and write the inputs and warm up, ``SETUP_REPEATS`` times;
    returns the inputs of the last repetition and the median set-up time.

    Warm-up for fresh-process workloads is one cheap command in a fresh
    process.  For ``enum_stream`` set-up also covers importing the package
    (timed in a fresh process) and building the configurations, and warms
    up on the first few hundred of them."""
    times = []
    env = child_env()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        if workload == "enum_stream":
            r = procs.run_child([PY, "-c", "import cuspcobord"], ROOT, env,
                                workdir, OP_TIMEOUT_S)
            run.record("import cuspcobord", [] if r.code == 0 else [r.err])
            inputs = build(workload, seed, workdir)
            from cuspcobord import moves, pattern
            for cfg in itertools.islice(wl.configs(inputs), ENUM_WARMUP):
                try:
                    wl.enum_op(pattern, moves, cfg)
                except Exception:
                    run.record("warm-up configuration",
                               [traceback.format_exc(limit=2)])
        else:
            inputs = build(workload, seed, workdir)
            r = procs.run_child([PY, "-m", "cuspcobord.cli", "invariant",
                                 os.path.join("corpus", "fig2.json")],
                                ROOT, env, workdir, OP_TIMEOUT_S)
            run.record("warm-up", [] if r.code == 0 else [r.err])
        times.append(time.perf_counter() - t0)
        host.sample()
    return inputs, statistics.median(times)


# ---------------------------------------------------------------------------
# end-to-end measurement (tracing off)


def measure_fresh(ops: list[wl.Op], cycle: int, seconds: float,
                  workdir: str, run: Run, host: HostSpeed) -> dict:
    """Whole cycles of operations until they have taken ``seconds``: a run
    always holds each operation class in the same proportion, however fast
    the host is.  A program slowed down by a factor of several stops early,
    so that the run still ends in time."""
    env = child_env()
    wall, cpu, rss = [], [], []
    ok = 0
    while ((sum(wall) < seconds or len(wall) % cycle)
           and sum(wall) < MEASURE_CAP * seconds):
        op = ops[len(wall) % len(ops)]
        host.sample()
        r = procs.run_child([PY, "-m", "cuspcobord.cli", *op.argv], ROOT, env,
                            workdir, OP_TIMEOUT_S)
        problems = (["timed out"] if r.timed_out
                    else verdict(op.check, r.code, r.out))
        if oracles.has_traceback(r.err):
            problems.append("traceback on stderr")
        ok += run.record(op.label, problems)
        wall.append(r.wall_s)
        cpu.append(r.cpu_s)
        rss.append(r.rss_mb)
        host.sample()
    return summarize(wall, cpu, statistics.median(rss), ok)


def measure_enum(patterns, seconds: float, run: Run, host: HostSpeed) -> dict:
    """One operation is ``ENUM_BATCH`` consecutive configurations: a single
    configuration either ends in an obstruction (55% of them, ~0.06 ms) or
    normalizes and replays (~1 ms), and a median on the edge between the
    two moved with the seed."""
    from cuspcobord import moves, pattern
    stream = itertools.islice(wl.configs(patterns), ENUM_WARMUP, None)
    wall, cpu = [], []
    ok = 0
    clock, cpu_clock = time.perf_counter, time.process_time
    while sum(wall) < seconds:
        batch = list(itertools.islice(stream, ENUM_BATCH))
        t0, c0 = clock(), cpu_clock()
        try:
            outs = [wl.enum_op(pattern, moves, cfg) for cfg in batch]
            problems = None
        except Exception:
            problems = [traceback.format_exc(limit=2)]
        t1, c1 = clock(), cpu_clock()
        if problems is None:
            problems = [p for cfg, out in zip(batch, outs)
                        for p in verdict(wl.check_enum, cfg, out)]
        ok += run.record(f"enum batch {len(wall)}", problems)
        wall.append(t1 - t0)
        cpu.append(c1 - c0)
        if len(wall) % 4 == 0:
            host.sample(1)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return summarize(wall, cpu, rss, ok)


def summarize(wall: list[float], cpu: list[float], rss_mb: float,
              ok: int) -> dict:
    value, pct = tail(wall)
    return {"metrics": {
        "latency_p50_ms": statistics.median(wall) * 1e3,
        "latency_tail_ms": value * 1e3,
        "throughput_ops_s": ok / sum(wall),
        "cpu_ms_per_op": statistics.median(cpu) * 1e3,
        "peak_rss_mb": rss_mb,
    }, "tail_percentile": pct, "samples": len(wall)}


# ---------------------------------------------------------------------------
# traced run


class InProcess:
    """Runs workload operations inside this process."""

    def __init__(self):
        import cuspcobord
        import cuspcobord.cli  # noqa: F401  (binds the submodules)
        import cuspcobord.normal_forms  # noqa: F401
        self.pkg = cuspcobord
        self.tracer = spans.Tracer(cuspcobord)

    def cli(self, argv: list[str]) -> tuple[int | None, str, str]:
        """One CLI command as a fresh process would see it: the pattern
        validation cache is emptied first."""
        self.tracer.reset_process_state()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.pkg.cli.main(argv)
            except Exception:
                code = None
                traceback.print_exc()
        return code, out.getvalue(), err.getvalue()

    def op(self, item, run: Run) -> float:
        """Run one operation, check it, return its wall time."""
        t0 = time.perf_counter()
        if isinstance(item, wl.Config):
            try:
                out = wl.enum_op(self.pkg.pattern, self.pkg.moves, item)
                problems = None
            except Exception:
                problems = [traceback.format_exc(limit=2)]
            elapsed = time.perf_counter() - t0
            run.record("enum config",
                       verdict(wl.check_enum, item, out) if problems is None
                       else problems)
            return elapsed
        code, out, err = self.cli(item.argv)
        elapsed = time.perf_counter() - t0
        problems = verdict(item.check, code, out)
        if oracles.has_traceback(err):
            problems.append("traceback")
        run.record(item.label, problems)
        return elapsed


def traced(workload: str, inputs, seed: int, seconds: float, workdir: str,
           run: Run) -> dict:
    ip = InProcess()
    tracer = ip.tracer
    if workload == "enum_stream":
        source = itertools.islice(wl.configs(inputs), ENUM_WARMUP, None)
    else:
        source = itertools.cycle(inputs)
    items = []
    # untraced pass sets the sample size, the traced pass repeats it; both
    # start from an empty pattern validation cache
    tracer.reset_process_state()
    untraced = 0.0
    while untraced < SAMPLE_SHARE * seconds:
        items.append(next(source))
        untraced += ip.op(items[-1], run)
    tracer.reset_process_state()
    misses0 = tracer.cache_misses()
    tracer.install()
    try:
        traced_s = sum(ip.op(item, run) for item in items)
        misses = tracer.cache_misses()
        m = layer_metrics(tracer, len(items),
                          None if misses is None else misses - misses0)
        m["trace.overhead_ratio"] = traced_s / untraced
        m["trace.sample_ops"] = float(len(items))
        os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
        tracer.dump(os.path.join(ROOT, ".bench_work",
                                 f"spans-{workload}-{seed}.json"))
        tracer.clear()
        m.update(probe_corpus_traces(ip, workdir, run))
        m.update(probe_detect_scaling(ip))
        m.update(probe_normalize_scaling(ip, seed, run))
    finally:
        tracer.uninstall()
    m.update(probe_startup(workdir, run))
    return {"metrics": m}


def layer_metrics(tracer, ops: int, cache_misses: int | None) -> dict:
    s = tracer.summary()
    self_ms = {k: v * 1e3 / ops for k, v in s["self_s"].items()}
    calls, counts = s["calls"], tracer.counts

    def per_op(x):
        return x / ops

    moves_run = counts["moves.normalized"] + counts["moves.replayed"]
    seeds = counts["seeds"]
    validations = calls["pattern.validate"]
    return {
        "cli.main_ms": self_ms.get("cli.main", 0.0),
        "serialize.read_ms": self_ms.get("serialize.read", 0.0),
        "serialize.write_ms": self_ms.get("serialize.write", 0.0),
        "serialize.bytes_in": per_op(counts["bytes_in"]),
        "serialize.bytes_out": per_op(counts["bytes_out"]),
        "algebra.ms": (self_ms.get("algebra", 0.0)
                       + self_ms.get("morse.validate", 0.0)),
        "morse.validate.calls": per_op(calls["morse.validate"]),
        "pattern.validate.calls": per_op(validations),
        "pattern.validate.runs": per_op(validations if cache_misses is None
                                        else cache_misses),
        "pattern.validate_ms": self_ms.get("pattern.validate", 0.0),
        "pattern.predicates_ms": self_ms.get("pattern.predicates", 0.0),
        "moves.normalize_ms": self_ms.get("moves.normalize", 0.0),
        "moves.replay_ms": self_ms.get("moves.replay", 0.0),
        "moves.per_op": per_op(counts["moves.normalized"]),
        "moves.create.count": per_op(counts["moves.create_cusp_pair"]),
        "moves.eliminate.count": per_op(
            counts["moves.eliminate_matching_pair"]),
        "moves.validations_per_move": (s["validations_in_moves"] / moves_run
                                       if moves_run else 0.0),
        "normal_forms.detect.calls": per_op(calls["normal_forms.detect"]),
        "normal_forms.detect_ms": self_ms.get("normal_forms.detect", 0.0),
        "normal_forms.seeds": per_op(seeds),
        "normal_forms.jacobian.calls": per_op(counts["jacobian"]),
        "normal_forms.jacobian_per_seed": (counts["jacobian"] / seeds
                                           if seeds else 0.0),
        "normal_forms.samples_per_seed": (counts["samples"] / seeds
                                          if seeds else 0.0),
        "normal_forms.render_ms": self_ms.get("normal_forms.render", 0.0),
        "normal_forms.verify_ms": self_ms.get("normal_forms.verify", 0.0),
    }


def probe_corpus_traces(ip: InProcess, workdir: str, run: Run) -> dict:
    """Counts on two frozen corpus commands, checked against golden/."""
    ops = {op.argv[1]: op for op in wl.corpus_ops(workdir, trace=True)
           if op.argv[1] in ("swallowtail", "perturbed-fold")
           and "--csv" not in op.argv}
    tracer = ip.tracer
    out = {}
    for kind, op in sorted(ops.items()):
        tracer.clear()
        ip.op(op, run)
        if kind == "swallowtail":
            s = tracer.summary()
            out["normal_forms.jacobian.calls.st1"] = float(
                tracer.counts["jacobian"])
            out["normal_forms.seeds.st1"] = float(tracer.counts["seeds"])
            out["normal_forms.detect_ms.seeds1953"] = (
                s["total_s"]["normal_forms.detect"] * 1e3)
        else:
            out["normal_forms.detect.calls.pf"] = float(
                tracer.summary()["calls"]["normal_forms.detect"])
    tracer.clear()
    return out


def probe_detect_scaling(ip: InProcess) -> dict:
    """Swallowtail (t = 1) detection time at smaller seed grids; the
    default grid's 1,953 seeds come from the corpus probe."""
    nf = ip.pkg.normal_forms
    m = nf.LocalMap(3, nf.SwallowTail(1.0))
    out = {}
    for a, b in ((8, 6), (16, 11)):
        grid = nf.GridSpec(((-1.5, 1.5, a), (-2.0, 2.0, b), (-0.5, 0.5, 3)))
        t0 = time.perf_counter()
        nf.detect_singular_set(m, grid, tol=1e-9)
        out[f"normal_forms.detect_ms.seeds{a * b * 3}"] = (
            (time.perf_counter() - t0) * 1e3)
    ip.tracer.clear()
    return out


def probe_normalize_scaling(ip: InProcess, seed: int, run: Run) -> dict:
    """Normalization time against pattern size k (intervals), n = 3 and 4."""
    pattern, moves = ip.pkg.pattern, ip.pkg.moves
    from cuspcobord.invariants import SignAssignment
    out = {}
    for n in (3, 4):
        for k in (50, 100, 200):
            rng = random.Random(f"ladder:{seed}:{n}:{k}")
            p = gen.large_pattern(rng, n, k)
            chi_v = gen.chi_v_for(p) if n % 2 == 0 else None
            sigma = gen.sigma_for(rng, p, True, chi_v)
            obj = wl.to_objects(p)
            ip.tracer.reset_process_state()
            t0 = time.perf_counter()
            if n % 2 == 0:
                result = moves.normalize_even(obj, SignAssignment(sigma),
                                              chi_v)
            else:
                result = moves.normalize_odd(obj, SignAssignment(sigma))
            out[f"moves.normalize_ms.n{n}.k{k}"] = (
                (time.perf_counter() - t0) * 1e3)
            final = getattr(result, "final", None)
            run.record(f"ladder n={n} k={k}",
                       ["obstruction on a solvable pattern"] if final is None
                       else oracles.final_errors(
                           n, oracles.comps_from_objects(final), p.mu(),
                           sigma))
        out[f"moves.doubling_ratio.n{n}"] = (
            out[f"moves.normalize_ms.n{n}.k200"]
            / out[f"moves.normalize_ms.n{n}.k100"])
    ip.tracer.clear()
    return out


# "import time: self [us] | cumulative | imported package" rows
_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S+)")


def probe_startup(workdir: str, run: Run) -> dict:
    """Interpreter start, CLI import, and the -X importtime breakdown, each
    repeated in fresh processes (medians)."""
    env = child_env()
    bare, full, numpy_ms, pkg_ms = [], [], [], []
    for _ in range(STARTUP_REPEATS):
        r = procs.run_child([PY, "-c", "pass"], ROOT, env, workdir,
                            OP_TIMEOUT_S)
        run.record("python -c pass", [] if r.code == 0 else [r.err])
        bare.append(r.wall_s)
        r = procs.run_child([PY, "-c", "import cuspcobord.cli"], ROOT, env,
                            workdir, OP_TIMEOUT_S)
        run.record("import cuspcobord.cli", [] if r.code == 0 else [r.err])
        full.append(r.wall_s)
        r = procs.run_child([PY, "-X", "importtime", "-c",
                             "import cuspcobord.cli"], ROOT, env, workdir,
                            OP_TIMEOUT_S)
        rows = [m.groups() for m in map(_IMPORTTIME.match, r.err.splitlines())
                if m]
        np_us = [int(cum) for _, cum, name in rows if name == "numpy"]
        run.record("python -X importtime", [] if r.code == 0 and np_us
                   else ["no numpy line in -X importtime output"])
        numpy_ms.append(np_us[0] / 1e3 if np_us else 0.0)
        pkg_ms.append(sum(int(s) for s, _, name in rows
                          if name.split(".")[0] == "cuspcobord") / 1e3)
    interp = statistics.median(bare) * 1e3
    return {"startup.interp_ms": interp,
            "startup.import_ms": statistics.median(full) * 1e3 - interp,
            "startup.import_numpy_ms": statistics.median(numpy_ms),
            "startup.import_pkg_ms": statistics.median(pkg_ms)}


# ---------------------------------------------------------------------------
# environment record and output


def read_loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def source_id() -> str:
    """The git commit when run in a clone, else a digest of src/."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0:
                return sha.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    digest.update(name.encode() + fh.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def environment(args, load_start: str, host: HostSpeed) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "source": source_id(),
            "loadavg_start": load_start, "loadavg_end": read_loadavg(),
            "host_ref_ms": host.ref_ms(), "host_ref_nominal_ms": REF_NOMINAL_MS,
            "host_exponent": HOST_EXPONENT,
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def run_workload(args) -> tuple[dict, Run, HostSpeed]:
    run, host = Run(), HostSpeed()
    base = os.path.join(ROOT, ".bench_work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    try:
        inputs, setup_s = setup(args.workload, args.seed, workdir, run, host)
        if args.trace:
            result = traced(args.workload, inputs, args.seed, args.seconds,
                            workdir, run)
        elif args.workload == "enum_stream":
            result = measure_enum(inputs, args.seconds, run, host)
        else:
            result = measure_fresh(inputs, wl.CYCLES[args.workload],
                                   args.seconds, workdir, run, host)
        if not args.trace:
            result["metrics"]["setup_s"] = setup_s
            result["raw_metrics"] = result["metrics"]
            result["metrics"] = host.scale(result["metrics"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result, run, host


def emit(metrics: dict, units: dict, run: Run, info: dict) -> None:
    for name in sorted(metrics):
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }))


def run_all(args) -> int:
    """Every workload in its own process; metrics are prefixed by name."""
    total = Run()
    metrics, units = {}, {}
    for name in WORKLOADS:
        argv = [PY, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        print(f"# {name}")
        print("\n".join(lines[:-1]))
        total.attempted += result["attempted"]
        total.failed += result["failed"]
        for k, v in result["metrics"].items():
            metrics[f"{name}.{k}"] = v["value"]
            units[f"{name}.{k}"] = v["unit"]
    print(json.dumps({
        "correct": total.failed == 0, "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in sorted(metrics.items())}}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in ("BENCHMARK.json", "src/cuspcobord/cli.py",
                           "corpus/commands.json", "golden")
               if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"error: not a cuspcobord checkout, missing {missing}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    os.chdir(ROOT)
    load_start = read_loadavg()
    result, run, host = run_workload(args)
    metrics = result["metrics"]
    end_to_end, per_layer = declared_units()
    wanted = per_layer if args.trace else end_to_end
    if set(metrics) != set(wanted):
        raise AssertionError(f"metrics differ from the declared set: "
                             f"{sorted(set(metrics) ^ set(wanted))}")
    info = {"env": environment(args, load_start, host),
            "fail_ratio": run.failed / run.attempted,
            "problems": run.problems}
    if "tail_percentile" in result:
        info["latency_tail_percentile"] = result["tail_percentile"]
        info["latency_samples"] = result["samples"]
        info["raw_metrics"] = result["raw_metrics"]
    emit(metrics, wanted, run, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
