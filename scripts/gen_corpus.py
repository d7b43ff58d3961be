#!/usr/bin/env python3
"""Rewrite golden/ from corpus/commands.json after an intended change of
output.

The inputs under corpus/ and the manifest are frozen and edited by hand;
to add a command, add its entry to the manifest and run this script.  It
runs every entry through the in-process runner of tests/_corpus.py, the
one scripts/run_corpus.py and the test suite use, and writes nothing
unless each entry exits with its manifest code and writes each of its
``out_golden`` files.  Only then does it write every golden file.  Review
the diff before committing it:

    python3 scripts/gen_corpus.py
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from _corpus import load_manifest, run_spec  # noqa: E402


def main_script() -> int:
    texts: dict[str, str] = {}
    problems: list[str] = []
    for spec in load_manifest():
        entry_problems, entry_texts = run_spec(spec)
        problems += [f"{spec['golden']}: {p}" for p in entry_problems]
        texts.update(entry_texts)
    if problems:
        print(*problems, "golden/ left as it is", sep="\n", file=sys.stderr)
        return 1
    for name, text in texts.items():
        (ROOT / "golden" / name).write_text(text, encoding="utf-8")
    print(f"golden: {len(texts)} files written")
    return 0


if __name__ == "__main__":
    raise SystemExit(main_script())
