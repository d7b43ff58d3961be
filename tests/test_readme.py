"""The command-line examples of README.md, run as they are shown."""

import contextlib
import io
import re
import shlex
import shutil

import pytest

from cuspcobord.cli import main

from _corpus import REPO_ROOT


def readme_examples(text: str) -> list[tuple[str, int, list[str], bool]]:
    """Each ``$ cuspcobord`` command of the ``sh`` blocks of ``text``: the
    command with its ``\\`` continuations joined, its exit code (the
    ``# exit N`` comment, else 0), the stdout lines shown under it, and
    whether a ``...`` line cut them short."""
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        lines = block.splitlines()
        k = 0
        while k < len(lines):
            if not lines[k].startswith("$ cuspcobord "):
                k += 1
                continue
            command = lines[k][2:]
            k += 1
            while command.endswith("\\"):
                command = f"{command[:-1].rstrip()} {lines[k].strip()}"
                k += 1
            command, _, comment = command.partition("#")
            exit_code = re.fullmatch(r"\s*(?:exit (\d+)\s*)?", comment)[1]
            shown = []
            while k < len(lines) and lines[k] and lines[k][:2] != "$ ":
                shown.append(lines[k])
                k += 1
            cut = "..." in shown
            if cut:
                shown = shown[:shown.index("...")]
            examples.append((command.strip(), int(exit_code or 0), shown,
                             cut))
    return examples


EXAMPLES = readme_examples((REPO_ROOT / "README.md").read_text(
    encoding="utf-8"))


def test_the_readme_has_examples_of_every_command():
    words = {shlex.split(command)[1] for command, *_ in EXAMPLES}
    assert words == {"invariant", "cobordant", "extendable", "pattern",
                     "trace"}


@pytest.mark.parametrize("command, exit_code, shown, cut", EXAMPLES,
                         ids=[e[0] for e in EXAMPLES])
def test_readme_example(command, exit_code, shown, cut, tmp_path,
                        monkeypatch):
    shutil.copytree(REPO_ROOT / "corpus", tmp_path / "corpus")
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(shlex.split(command)[1:])
    assert code == exit_code
    lines = out.getvalue().splitlines()
    assert (lines[:len(shown)] if cut else lines) == shown
