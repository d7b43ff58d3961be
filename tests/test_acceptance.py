"""Acceptance gate: one test per primary criterion.

Each test prints exactly one PASSED/FAILED line under ``pytest -v``.  The
checks pin frozen oracle values, exhaustively enumerate the small
combinatorial spaces, drive the numeric detectors at their stated
tolerances, and replay the frozen command corpus byte-for-byte.  Runtime
budgets are asserted with ``time.perf_counter`` wall time.
"""

from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement, product

import numpy as np

from cuspcobord import normal_forms as nf
from cuspcobord.group import generator
from cuspcobord.invariants import (
    SignAssignment,
    chi_plus,
    chi_plus_sigma,
    cobordism_invariant,
    signed_defect,
)
from cuspcobord.morse import (
    BoundaryCriticalPoint,
    disjoint_union,
    euler_boundary_sum,
    reverse,
)
from cuspcobord.moves import (
    MoveTrace,
    Obstruction,
    normalize_even,
    normalize_odd,
    replay,
)
from cuspcobord.pattern import (
    INTERVAL,
    check_condition_even,
    check_condition_odd,
    vector_field_exists,
)
from cuspcobord.serialize import descriptor_from_json

from _corpus import REPO_ROOT, load_manifest, run_entry
from _enumeration import (
    build_pattern,
    patterns_up_to,
    random_descriptor,
    sign_assignments,
)
from _walk import walk

# Enumeration sizing shared by criteria 5 and 6: all single shapes and all
# two-component multisets are exhausted; three-component multisets are
# sampled with a fixed seed (both predicates and the normalization driver
# act componentwise, with interactions only through global parity sums that
# two components already exercise in full).
MAX_CUSPS = 3
TRIPLE_SAMPLES = {2: 200, 3: 200, 4: 120}
ENUM_SEED = 20260815


def _steady_ms(fn, repeats: int = 200) -> float:
    """Best steady-state wall time of fn() in milliseconds."""
    fn()  # warm caches so the figure reflects the computation itself
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1000.0


def _load_descriptor(name: str):
    with open(REPO_ROOT / "corpus" / name, encoding="utf-8") as fh:
        return descriptor_from_json(json.load(fh))


def _admits_field(comp, sigma) -> bool:
    """Independent per-component existence call: circles need evenly many
    cusps; intervals need evenly many exactly when the endpoint signs
    differ."""
    even = comp.cusp_count % 2 == 0
    if comp.kind != INTERVAL:
        return even
    a, b = comp.endpoints
    return even == (sigma.sign(a) != sigma.sign(b))


def _enumerated_configs(n: int):
    rng = random.Random(ENUM_SEED + n)
    for p in patterns_up_to(n, 3, MAX_CUSPS, rng,
                            triple_samples=TRIPLE_SAMPLES[n]):
        for sigma in sign_assignments(p):
            yield p, sigma


def test_criterion_1_figure_reproduction():
    fig1 = _load_descriptor("fig1.json")
    fig2 = _load_descriptor("fig2.json")
    assert chi_plus(fig1) == 1
    assert chi_plus(fig2) == 0
    assert _steady_ms(lambda: chi_plus(fig1)) < 1.0
    assert _steady_ms(lambda: chi_plus(fig2)) < 1.0


def test_criterion_2_generator_values():
    for n in (2, 4, 6):
        cls = cobordism_invariant(generator(n))
        assert (cls.group, cls.value) == ("Z/2", 1), f"n={n}: {cls}"
    for n in (3, 5, 7):
        cls = cobordism_invariant(generator(n))
        assert cls.group == "Z" and cls.value in (1, -1), f"n={n}: {cls}"
    assert _steady_ms(lambda: cobordism_invariant(generator(6))) < 1.0
    assert _steady_ms(lambda: cobordism_invariant(generator(7))) < 1.0


def test_criterion_3_homomorphism_and_inverse_laws():
    t0 = time.perf_counter()
    pairs_per_dim = 1000
    failures = []
    for n in (2, 3):
        rng = random.Random(ENUM_SEED * 10 + n)
        for k in range(pairs_per_dim):
            d1 = random_descriptor(n, rng, prefix="a")
            d2 = random_descriptor(n, rng, prefix="b")
            i1, i2 = cobordism_invariant(d1), cobordism_invariant(d2)
            if cobordism_invariant(disjoint_union(d1, d2)) != i1 + i2:
                failures.append(("union", n, k))
            for d, i in ((d1, i1), (d2, i2)):
                r = reverse(d)
                if cobordism_invariant(r) != -i:
                    failures.append(("reverse", n, k))
                if r.oriented != d.oriented:
                    failures.append(("reverse keeps oriented", n, k))
    elapsed = time.perf_counter() - t0
    assert not failures, failures[:5]
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_4_defect_identity_exhaustive():
    t0 = time.perf_counter()
    checked = 0
    for k in range(0, 7):
        for mus in combinations_with_replacement(range(4), k):
            boundary = tuple(
                BoundaryCriticalPoint(f"b{j}", mu, 1)
                for j, mu in enumerate(mus))
            chi_p = euler_boundary_sum(boundary)
            ids = [pt.id for pt in boundary]
            for bits in product((1, -1), repeat=k):
                sigma = SignAssignment(dict(zip(ids, bits)))
                lhs, rhs = signed_defect(chi_p, boundary, sigma)
                assert lhs == rhs, (mus, bits, lhs, rhs)
                checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 7937
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_5_predicate_equivalence():
    t0 = time.perf_counter()
    checked = 0
    mismatches = []
    for n in (2, 3, 4):
        check = check_condition_even if n % 2 == 0 else check_condition_odd
        for p, sigma in _enumerated_configs(n):
            flags = check(p, sigma)
            independent = [_admits_field(c, sigma) for c in p.components]
            ok_all = vector_field_exists(p, sigma)
            if flags != independent or ok_all != all(independent):
                mismatches.append((n, p, sigma))
            checked += 1
    elapsed = time.perf_counter() - t0
    assert not mismatches, mismatches[:3]
    assert checked > 50_000, checked
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_6_normalization_soundness_and_completeness():
    t0 = time.perf_counter()
    checked = successes = obstructions = 0
    for n in (2, 3, 4):
        for p, sigma in _enumerated_configs(n):
            if n % 2 == 0:
                chi_v = (p.total_cusps - len(p.boundary_points) // 2) % 2
                expected = (chi_v - chi_plus_sigma(p.boundary_points,
                                                   sigma)) % 2 == 0
                result = normalize_even(p, sigma, chi_v)
            else:
                total = sum((-1) ** pt.mu * sigma.sign(pt.id)
                            for pt in p.boundary_points)
                expected = total == 0
                result = normalize_odd(p, sigma)
            if isinstance(result, MoveTrace):
                assert expected, (n, p, sigma)
                assert result.initial == p
                assert replay(result) == result.final
                assert vector_field_exists(result.final, sigma), (n, p, sigma)
                successes += 1
            else:
                assert isinstance(result, Obstruction)
                assert not expected, (n, p, sigma)
                if n % 2 == 0:
                    assert result.kind == "parity_mismatch"
                    assert result.witness["chi_V"] == chi_v
                    assert result.witness["chi_plus"] == chi_plus_sigma(
                        p.boundary_points, sigma)
                else:
                    assert result.kind == "sign_sum_nonzero"
                    assert result.witness["sum"] == total
                    assert result.witness["expected"] == 0
                obstructions += 1
            checked += 1
    elapsed = time.perf_counter() - t0
    assert successes and obstructions
    assert checked > 50_000, checked
    assert elapsed < 300.0, f"took {elapsed:.2f}s"


def test_criterion_7_move_invariants():
    t0 = time.perf_counter()
    starts = [
        build_pattern(2, (("interval", (1,), (), 0, 0),)),
        build_pattern(2, (("circle", (1, 1), (0, 0)),
                          ("interval", (1,), (), 1, 1))),
        build_pattern(3, (("interval", (1, 2), (0,), 1, 0),)),
        build_pattern(3, (("circle", (1, 2), (0, 1)),)),
        build_pattern(4, (("interval", (2,), (), 1, 2),)),
        build_pattern(4, (("circle", (2,), ()),
                          ("interval", (3,), (), 0, 0))),
    ]
    rng = random.Random(ENUM_SEED)
    sequences = 0
    while sequences < 10_000:
        start = starts[sequences % len(starts)]
        walk(start, rng, steps=3, check_each=True)
        sequences += 1
    elapsed = time.perf_counter() - t0
    assert sequences >= 10_000
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


def _fd_jacobian(m: nf.LocalMap, point: tuple[float, ...],
                 h: float = 1e-7) -> np.ndarray:
    cols = []
    for j in range(m.n):
        hi = list(point)
        lo = list(point)
        hi[j] += h
        lo[j] -= h
        cols.append((np.asarray(nf.evaluate(m, tuple(hi)))
                     - np.asarray(nf.evaluate(m, tuple(lo)))) / (2 * h))
    return np.stack(cols, axis=1)


def test_criterion_8_numeric_normal_forms():
    t0 = time.perf_counter()
    grid = nf.GridSpec(((-1.5, 1.5, 31), (-2.0, 2.0, 21), (-0.5, 0.5, 3)))

    for t in (1.0, 0.25, -1.0, -0.25):
        m = nf.LocalMap(3, nf.SwallowTail(t))
        curve = nf.SwallowTailCurve(3, t)
        samples = nf.detect_singular_set(m, grid, tol=1e-9)
        assert samples, f"t={t}: detector found nothing"
        worst = max(curve.distance_bound(s.point) for s in samples)
        assert worst < 1e-8, f"t={t}: distance {worst:.3e}"
        cusps = sorted(s.point[1] for s in samples
                       if s.kind == "cusp-candidate")
        if t > 0:
            root = math.sqrt(t)
            assert len(cusps) == 2, (t, cusps)
            assert abs(cusps[0] + root) < 1e-6
            assert abs(cusps[1] - root) < 1e-6
        else:
            assert cusps == [], (t, cusps)

    alpha = nf.smooth_bump(0.0, 1.0, 0.4)
    beta = nf.smooth_bump(0.0, 1.0, 1.0)
    assert nf.perturbation_supremum(alpha, beta) < 1.0
    report = nf.perturbed_fold_image(0, 2, alpha, beta, tol=1e-8)
    assert report.ok
    assert report.max_axis_distance < 1e-8
    assert report.max_image_error < 1e-8

    models = [
        nf.LocalMap(2, nf.Fold(0)),
        nf.LocalMap(3, nf.Fold(2)),
        nf.LocalMap(3, nf.Cusp(0)),
        nf.LocalMap(3, nf.SwallowTail(1.0)),
        nf.LocalMap(3, nf.SwallowTail(-0.5)),
        nf.LocalMap(2, nf.PerturbedFold(0, alpha, beta)),
    ]
    rng = random.Random(ENUM_SEED)
    for m in models:
        for _ in range(10):
            point = tuple(rng.uniform(-0.9, 0.9) for _ in range(m.n))
            jac = nf.jacobian(m, point)
            ref = _fd_jacobian(m, point)
            rel = np.max(np.abs(jac - ref)) / (1.0 + np.max(np.abs(ref)))
            assert rel < 1e-6, (m.kind, point, rel)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_9_cli_golden_determinism():
    problems = []
    for spec in load_manifest():
        problems += run_entry(spec)
    assert not problems, problems[:5]
