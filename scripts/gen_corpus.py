#!/usr/bin/env python3
"""Regenerate the frozen input corpus and the golden CLI outputs.

The corpus JSON files are written from the library's own constructors so
they stay schema-correct; golden stdout/artifact files are captured by
running the CLI in-process on the freshly written corpus.  Run from the
repository root:

    python3 scripts/gen_corpus.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from _corpus import run_command  # noqa: E402
from cuspcobord.group import generator  # noqa: E402
from cuspcobord.morse import MorseDescriptor, reverse  # noqa: E402
from cuspcobord.serialize import descriptor_to_json  # noqa: E402

CORPUS = ROOT / "corpus"
GOLDEN = ROOT / "golden"


def _dump(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_descriptors() -> None:
    # height function on a surface whose two boundary critical points have
    # opposite co-orientation signs: chi_plus = 1
    fig1 = {
        "n": 2, "oriented": True, "chi_M": 1, "chi_boundary": 0,
        "interior": [],
        "boundary": [{"id": "x0", "mu": 0, "sigma": 1},
                     {"id": "x1", "mu": 1, "sigma": -1}],
    }
    # height function on a disk with both signs positive: chi_plus = 0,
    # the generator in dimension 2; the interior maximum makes the Euler
    # bookkeeping chi(M) = sum_int (-1)^lambda + chi_plus come out right
    fig2 = {
        "n": 2, "oriented": True, "chi_M": 1, "chi_boundary": 0,
        "interior": [{"id": "p0", "index": 2}],
        "boundary": [{"id": "x0", "mu": 0, "sigma": 1},
                     {"id": "x1", "mu": 1, "sigma": 1}],
    }
    _dump(CORPUS / "fig1.json", fig1)
    _dump(CORPUS / "fig2.json", fig2)

    from cuspcobord.serialize import descriptor_from_json
    fig2_desc = descriptor_from_json(fig2)
    _dump(CORPUS / "fig2_reverse.json", descriptor_to_json(reverse(fig2_desc)))

    _dump(CORPUS / "empty.json",
          descriptor_to_json(MorseDescriptor.empty(2)))
    for n in (2, 3, 4, 5):
        _dump(CORPUS / f"d{n}_generator.json",
              descriptor_to_json(generator(n)))

    # the 3-disk generator with the top sign flipped: chi_plus = 1 = chi_M,
    # so the critical-point-free extension condition passes
    d3 = descriptor_to_json(generator(3))
    d3["boundary"][1]["sigma"] = -1
    _dump(CORPUS / "d3_sigma_pm.json", d3)


def write_patterns() -> None:
    _dump(CORPUS / "interval_0cusp.json", {
        "n": 2,
        "chi_ambient": 1,
        "boundary_points": [{"id": "x0", "mu": 0}, {"id": "x1", "mu": 0}],
        "components": [{"kind": "interval", "endpoints": ["x0", "x1"],
                        "sequence": [{"arc": {"tau": 1, "id": "a0"}}]}],
    })
    _dump(CORPUS / "odd_circle_n2.json", {
        "n": 2,
        "boundary_points": [],
        "components": [{"kind": "circle",
                        "sequence": [{"arc": {"tau": 1, "id": "a0"}},
                                     {"cusp": {"I": 0, "id": "c0"}}]}],
    })
    _dump(CORPUS / "two_intervals_n2.json", {
        "n": 2,
        "boundary_points": [{"id": "x0", "mu": 0}, {"id": "x1", "mu": 0},
                            {"id": "y0", "mu": 0}, {"id": "y1", "mu": 0}],
        "components": [
            {"kind": "interval", "endpoints": ["x0", "x1"],
             "sequence": [{"arc": {"tau": 1, "id": "a0"}}]},
            {"kind": "interval", "endpoints": ["y0", "y1"],
             "sequence": [{"arc": {"tau": 1, "id": "a1"}}]},
        ],
    })
    _dump(CORPUS / "two_intervals_n3.json", {
        "n": 3,
        "boundary_points": [{"id": "x0", "mu": 0}, {"id": "x1", "mu": 0},
                            {"id": "y0", "mu": 1}, {"id": "y1", "mu": 1}],
        "components": [
            {"kind": "interval", "endpoints": ["x0", "x1"],
             "sequence": [{"arc": {"tau": 2, "id": "a0"}}]},
            {"kind": "interval", "endpoints": ["y0", "y1"],
             "sequence": [{"arc": {"tau": 1, "id": "a1"}}]},
        ],
    })
    # end arc index clashes with what the endpoint forces: two violations
    _dump(CORPUS / "bad_pattern.json", {
        "n": 3,
        "boundary_points": [{"id": "x0", "mu": 0}, {"id": "x1", "mu": 0}],
        "components": [{"kind": "interval", "endpoints": ["x0", "x1"],
                        "sequence": [{"arc": {"tau": 1, "id": "a0"}}]}],
    })

    _dump(CORPUS / "sigma_pm.json", {"x0": 1, "x1": -1})
    _dump(CORPUS / "sigma_pp.json", {"x0": 1, "x1": 1})
    _dump(CORPUS / "sigma_pp_pp.json", {"x0": 1, "x1": 1, "y0": 1, "y1": 1})


COMMANDS = [
    {"argv": ["invariant", "corpus/fig2.json"],
     "exit": 0, "golden": "inv_fig2.txt"},
    {"argv": ["invariant", "corpus/fig1.json"],
     "exit": 0, "golden": "inv_fig1.txt"},
    {"argv": ["invariant", "corpus/empty.json"],
     "exit": 0, "golden": "inv_empty.txt"},
    {"argv": ["invariant", "corpus/d3_generator.json"],
     "exit": 0, "golden": "inv_d3.txt"},
    {"argv": ["invariant", "corpus/fig2.json", "--json"],
     "exit": 0, "golden": "inv_fig2_json.txt"},
    {"argv": ["cobordant", "corpus/fig2.json", "corpus/fig2.json"],
     "exit": 0, "golden": "cob_fig2_self.txt"},
    {"argv": ["cobordant", "corpus/fig2.json", "corpus/empty.json"],
     "exit": 1, "golden": "cob_fig2_empty.txt"},
    {"argv": ["cobordant", "corpus/fig2.json", "corpus/fig2_reverse.json"],
     "exit": 0, "golden": "cob_fig2_reverse.txt"},
    {"argv": ["extendable", "corpus/fig2.json"],
     "exit": 1, "golden": "ext_fig2.txt"},
    {"argv": ["extendable", "corpus/empty.json"],
     "exit": 0, "golden": "ext_empty.txt"},
    {"argv": ["extendable", "corpus/d3_sigma_pm.json"],
     "exit": 0, "golden": "ext_d3_pm.txt"},
    {"argv": ["pattern", "validate", "corpus/interval_0cusp.json"],
     "exit": 0, "golden": "pat_validate_interval.txt"},
    {"argv": ["pattern", "validate", "corpus/odd_circle_n2.json"],
     "exit": 0, "golden": "pat_validate_odd_circle.txt"},
    {"argv": ["pattern", "validate", "corpus/bad_pattern.json"],
     "exit": 1, "golden": "pat_validate_bad.txt"},
    {"argv": ["pattern", "check", "corpus/interval_0cusp.json",
              "--sigma", "corpus/sigma_pm.json", "--chi-v", "1"],
     "exit": 0, "golden": "pat_check_interval.txt"},
    {"argv": ["pattern", "check", "corpus/two_intervals_n3.json",
              "--sigma", "corpus/sigma_pp_pp.json"],
     "exit": 1, "golden": "pat_check_n3.txt"},
    {"argv": ["pattern", "normalize", "corpus/two_intervals_n2.json",
              "--sigma", "corpus/sigma_pp_pp.json", "--chi-v", "0",
              "--out", "{tmp}/trace_even.json"],
     "exit": 0, "golden": "pat_norm_even.txt",
     "out_golden": {"{tmp}/trace_even.json": "trace_even.json"}},
    {"argv": ["pattern", "normalize", "corpus/interval_0cusp.json",
              "--sigma", "corpus/sigma_pp.json", "--chi-v", "1"],
     "exit": 1, "golden": "pat_norm_obstruction.txt"},
    {"argv": ["pattern", "normalize", "corpus/two_intervals_n3.json",
              "--sigma", "corpus/sigma_pp_pp.json",
              "--out", "{tmp}/trace_odd.json"],
     "exit": 0, "golden": "pat_norm_odd.txt",
     "out_golden": {"{tmp}/trace_odd.json": "trace_odd.json"}},
    {"argv": ["trace", "swallowtail", "--t", "1",
              "--out", "{tmp}/st1.svg"],
     "exit": 0, "golden": "trace_st1.txt",
     "out_golden": {"{tmp}/st1.svg": "st1.svg"}},
    {"argv": ["trace", "swallowtail", "--t", "-1", "--csv"],
     "exit": 0, "golden": "trace_stm1.csv"},
    {"argv": ["trace", "fold", "--i", "1", "--n", "3", "--csv"],
     "exit": 0, "golden": "trace_fold.csv"},
    {"argv": ["trace", "cusp", "--k", "0", "--n", "3", "--csv"],
     "exit": 0, "golden": "trace_cusp.csv"},
    {"argv": ["trace", "perturbed-fold", "--n", "2",
              "--out", "{tmp}/pf.svg"],
     "exit": 0, "golden": "trace_pf.txt",
     "out_golden": {"{tmp}/pf.svg": "pf.svg"}},
]


def write_golden() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for spec in COMMANDS:
        out_golden = spec.get("out_golden", {})
        code, stdout, outs = run_command(spec["argv"], out_golden)
        if code != spec["exit"]:
            raise SystemExit(
                f"command {spec['argv']} exited {code}, "
                f"manifest says {spec['exit']}")
        with open(GOLDEN / spec["golden"], "w", encoding="utf-8") as fh:
            fh.write(stdout)
        for placeholder, name in out_golden.items():
            if outs[placeholder] is None:
                raise SystemExit(
                    f"command {spec['argv']} wrote no {placeholder}")
            with open(GOLDEN / name, "w", encoding="utf-8") as fh:
                fh.write(outs[placeholder])
    _dump(CORPUS / "commands.json", COMMANDS)


def main_script() -> None:
    write_descriptors()
    write_patterns()
    write_golden()
    print(f"corpus: {len(list(CORPUS.glob('*.json')))} files; "
          f"golden: {len(list(GOLDEN.iterdir()))} files")


if __name__ == "__main__":
    main_script()
