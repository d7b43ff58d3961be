#!/usr/bin/env python3
"""Replay every command in corpus/commands.json and compare against golden/.

Each manifest entry records argv (with "{tmp}" placeholders for scratch
output paths), the expected exit code, a golden file for stdout, and
optionally golden files for artifacts written via --out.  Every entry is
run; the exit status is nonzero if any of them mismatches.  The manifest
replay itself lives in tests/_corpus.py, shared with the test suite:

    python3 scripts/run_corpus.py
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from _corpus import load_manifest, run_entry  # noqa: E402


def main_script() -> int:
    manifest = load_manifest()
    failures = 0
    for spec in manifest:
        problems = run_entry(spec)
        label = " ".join(spec["argv"])
        if problems:
            failures += 1
            print(f"FAIL  {label}")
            for p in problems:
                print(f"      {p}")
        else:
            print(f"ok    {label}")
    print(f"{len(manifest) - failures}/{len(manifest)} commands match")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main_script())
