#!/usr/bin/env python3
"""Print one sha256 over the normalization output of two fixed input sets.

Two trees whose move engines agree print the same digest.  Each
normalization contributes its trace or obstruction as sorted-key JSON
(``trace_to_json`` / ``obstruction_to_json``), one line each, in this order:

* every pattern of ``patterns_up_to(n, 3, 3, Random(1000 + n),
  triple_samples=300)`` for n = 2..5 under every sign assignment, with
  chi_V taken from the cusp-parity law for even n;
* 48 seeded ``bench/gen.large_pattern`` inputs: n = 3, 4; k = 50, 100,
  200, 400 intervals; seeds 1-3; a solvable and an unsolvable sign
  assignment each.

Every trace is also replayed, and the script fails if a replay does not
reproduce its final pattern.  It exits 1, printing both lines, if the
digest differs from ``RECORDED``; a change that means to alter the
traces records its new line there.  It takes a few minutes:

    python3 scripts/trace_digest.py
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from _enumeration import patterns_up_to, sign_assignments  # noqa: E402
from cuspcobord.invariants import SignAssignment  # noqa: E402
from cuspcobord.moves import (  # noqa: E402
    MoveTrace,
    normalize_even,
    normalize_odd,
    replay,
)
from cuspcobord.serialize import (  # noqa: E402
    obstruction_to_json,
    pattern_from_json,
    trace_to_json,
)

RECORDED = ("84a677b4f3346ac1c24a21155192c622fe4ed0713f372533cbecfa6728c61e51"
            "  1193588 normalizations")


def _load_bench_gen():
    # the benchmark's seeded pattern generator, loaded under its own name
    spec = importlib.util.spec_from_file_location(
        "_bench_gen", ROOT / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _enumerated():
    for n in range(2, 6):
        for p in patterns_up_to(n, 3, 3, random.Random(1000 + n),
                                triple_samples=300):
            chi_v = ((p.total_cusps - len(p.boundary_points) // 2) % 2
                     if n % 2 == 0 else None)
            for sigma in sign_assignments(p):
                yield p, sigma, chi_v


def _large():
    gen = _load_bench_gen()
    for n in (3, 4):
        for k in (50, 100, 200, 400):
            for seed in (1, 2, 3):
                for solvable in (True, False):
                    rng = random.Random(seed)
                    g = gen.large_pattern(rng, n, k)
                    chi_v = gen.chi_v_for(g) if n % 2 == 0 else None
                    sigma = gen.sigma_for(rng, g, solvable, chi_v)
                    yield (pattern_from_json(g.to_json()),
                           SignAssignment(sigma), chi_v)


def main() -> int:
    digest = hashlib.sha256()
    runs = 0
    for source in (_enumerated(), _large()):
        for p, sigma, chi_v in source:
            if p.n % 2 == 0:
                out = normalize_even(p, sigma, chi_v)
            else:
                out = normalize_odd(p, sigma)
            if isinstance(out, MoveTrace):
                if replay(out) != out.final:
                    print(f"replay differs from the final pattern: {p}",
                          file=sys.stderr)
                    return 1
                doc = trace_to_json(out)
            else:
                doc = obstruction_to_json(out)
            digest.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
            runs += 1
    line = f"{digest.hexdigest()}  {runs} normalizations"
    print(line)
    if line != RECORDED:
        print(f"differs from the recorded digest:\n{RECORDED}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
