"""Run corpus/commands.json entries in-process: for the CLI suites, the
corpus replay and the corpus generator alike.  Also walks the nodes of a
JSON document, for the suites that mutate corpus files."""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path
from typing import Optional

from cuspcobord.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_manifest() -> list[dict]:
    with open(REPO_ROOT / "corpus" / "commands.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_command(argv: list[str], out_files=()
                ) -> tuple[int, str, dict[str, Optional[str]]]:
    """Run one manifest argv in a fresh scratch directory for its "{tmp}"
    placeholders.  Returns the exit code, stdout with the directory written
    back as "{tmp}", and the text of each of ``out_files`` (placeholder
    paths; None for a file the command did not write)."""
    with tempfile.TemporaryDirectory() as tmp:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main([str(REPO_ROOT / a) if a.startswith("corpus/")
                         else a.replace("{tmp}", tmp) for a in argv])
        outs = {}
        for placeholder in out_files:
            path = Path(placeholder.replace("{tmp}", tmp))
            outs[placeholder] = (path.read_text(encoding="utf-8")
                                 if path.exists() else None)
    return code, buf.getvalue().replace(tmp, "{tmp}"), outs


def run_entry(spec: dict) -> list[str]:
    """Run one manifest entry; return mismatch descriptions (empty = ok)."""
    problems: list[str] = []
    out_golden = spec.get("out_golden", {})
    code, stdout, outs = run_command(spec["argv"], out_golden)
    if code != spec["exit"]:
        problems.append(f"exit {code} != expected {spec['exit']}")
    golden = (REPO_ROOT / "golden" / spec["golden"]).read_text(
        encoding="utf-8")
    if stdout != golden:
        problems.append(f"stdout differs from golden/{spec['golden']}")
    for placeholder, name in out_golden.items():
        expected = (REPO_ROOT / "golden" / name).read_text(encoding="utf-8")
        if outs[placeholder] is None:
            problems.append(f"missing output file {placeholder}")
        elif outs[placeholder] != expected:
            problems.append(f"artifact differs from golden/{name}")
    return problems


def json_nodes(doc, at: tuple = ()):
    """The key path of every node of a JSON document, the root's ``()``
    first, in document order."""
    yield at
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from json_nodes(value, at + (key,))
    elif isinstance(doc, list):
        for k, value in enumerate(doc):
            yield from json_nodes(value, at + (k,))
