"""Command-line interface: exit codes, formats, golden-file determinism."""

import contextlib
import copy
import dataclasses
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cuspcobord import cli, serialize
from cuspcobord.cli import main
from cuspcobord.group import generator
from cuspcobord.invariants import SignAssignment
from cuspcobord.morse import disjoint_union, reverse

from _corpus import (REPO_ROOT, json_nodes, load_manifest, run_command,
                     run_entry)

MANIFEST = load_manifest()
# a perturbed fold whose condition holds but whose verdict reads ok=no:
# one sample lies 1.28e-9 off the axis, above the default tol of 1e-9
EDGE_PERTURBED_FOLD = ["trace", "perturbed-fold", "--n", "3", "--i", "1",
                       "--alpha=0:1:-0.53333", "--beta", "0.5:1:1"]


@pytest.mark.parametrize(
    "spec", MANIFEST, ids=[" ".join(s["argv"]) for s in MANIFEST])
def test_corpus_command_matches_golden(spec):
    problems = run_entry(spec)
    assert not problems, problems


# The keys whose text is not _fmt of their JSON value: a verdict that is
# pass/fail in text and a bool in JSON, and a distance that is nan in text
# and null in JSON when no sample was found.
_TEXT_FORM = {
    "cusp_parity": lambda v: "pass" if v else "fail",
    "max_curve_distance": lambda v: "nan" if v is None else cli._fmt(v),
}
_AGREEMENT_ARGV = [spec["argv"] for spec in MANIFEST] + [
    ["trace", "swallowtail", "--tol", "1e-300", "--grid",
     "0.5:0.5:1,0.3:0.3:1,0:0:1", "--out", "{tmp}/st.svg"],
    ["pattern", "normalize", "corpus/interval_0cusp.json", "--sigma",
     "corpus/sigma_pp.json", "--chi-v", "1", "--out", "{tmp}/ob.json"],
]


@pytest.mark.parametrize("argv", _AGREEMENT_ARGV,
                         ids=[" ".join(a) for a in _AGREEMENT_ARGV])
def test_text_and_json_reports_agree(argv):
    argv = [a for a in argv if a != "--json"]
    code, text, _ = run_command(argv)
    json_code, json_text, _ = run_command(argv + ["--json"])
    assert code == json_code
    payload = json.loads(json_text)
    if "content" in payload:
        # without --out the text output is the artifact itself
        assert payload["content"] == text
        return
    shared = 0
    for line in text.splitlines():
        key, value = line.split("=", 1)
        if key in payload:
            assert value == _TEXT_FORM.get(key, cli._fmt)(payload[key]), key
            shared += 1
    assert shared


class TestExitCodes:
    def test_missing_file_is_a_schema_error(self, capsys):
        assert main(["invariant", "no_such_file.json"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_json_is_a_schema_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json]")
        assert main(["invariant", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_no_arguments(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_invalid_descriptor_is_a_precondition_error(self, tmp_path,
                                                        capsys):
        f = tmp_path / "d.json"
        f.write_text(json.dumps({
            "n": 2, "oriented": True, "chi_M": 0, "chi_boundary": 2,
            "interior": [],
            "boundary": [{"id": "x0", "mu": 0, "sigma": 1},
                         {"id": "x1", "mu": 1, "sigma": 1}]}))
        assert main(["invariant", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {f}: invalid descriptor: chi_boundary")
        assert err.count("\n") == 1

    def test_degenerate_family_parameter(self, capsys):
        assert main(["trace", "swallowtail", "--t", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_grid_over_the_seed_budget(self, capsys):
        # the default fold grid in dimension 20 has 11 * 3**18 seeds
        assert main(["trace", "fold", "--n", "20"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "budget" in err
        assert err.count("\n") == 1

    # on stdout the artifact alone is printed, so the code is the verdict
    @pytest.mark.parametrize("mode", ["svg", "csv", "json", "out"])
    def test_a_failed_perturbed_fold_exits_1(self, mode, tmp_path, capsys):
        flags = {"svg": [], "csv": ["--csv"], "json": ["--json"],
                 "out": ["--out", str(tmp_path / "edge.svg")]}[mode]
        assert main([*EDGE_PERTURBED_FOLD, *flags]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        if mode == "json":
            assert json.loads(out)["ok"] is False
        elif mode == "out":
            assert "\nok=no\n" in out

    def test_a_perturbed_fold_without_samples_exits_1(self, capsys):
        assert main(["trace", "perturbed-fold", "--n", "2", "--grid",
                     "0:0:1,1e200:1e200:1"]) == 1
        out, err = capsys.readouterr()
        assert err == "" and hashlib.sha256(out.encode()).hexdigest() == (
            "30bff41c336deff23a95392918ff1c2deb409746822b23751eefc0d8fafa301d")

    @pytest.mark.parametrize("kind", ["fold", "perturbed-fold"])
    def test_huge_dimension_is_refused_by_the_budget(self, kind, capsys):
        assert main(["trace", kind, "--n", "1000000000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "budget" in err
        assert err.count("\n") == 1

    def test_deeply_nested_json_is_a_schema_error(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        assert main(["invariant", str(deep)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nested too deeply" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("raw", [
        b'{"n": "\xff"}',
        b'{"n": ' + b"9" * 5000 + b"}",
    ], ids=["invalid-utf8", "over-the-integer-digit-limit"])
    def test_undecodable_json_names_the_file(self, raw, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(raw)
        assert main(["invariant", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: invalid JSON: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, name, key", [
        (["invariant", "{f}"], "fig2.json", "n"),
        (["pattern", "validate", "{f}"], "interval_0cusp.json", "mu"),
        (["pattern", "check", "corpus/interval_0cusp.json", "--sigma", "{f}"],
         "sigma_pp.json", "x0"),
    ], ids=["descriptor", "pattern", "sigma"])
    def test_duplicate_keys_are_refused(self, argv, name, key, tmp_path,
                                        capsys):
        # the original value comes last, so without the check the file
        # would read as the corpus file it was made from
        text = (REPO_ROOT / "corpus" / name).read_text(encoding="utf-8")
        dup = tmp_path / name
        dup.write_text(text.replace(f'"{key}"', f'"{key}": 0, "{key}"', 1),
                       encoding="utf-8")
        argv = [str(dup) if a == "{f}" else
                str(REPO_ROOT / a) if a.startswith("corpus/") else a
                for a in argv]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {dup}: invalid JSON: duplicate key '{key}'\n")

    @pytest.mark.parametrize("argv", [
        ["pattern", "normalize", "corpus/two_intervals_n2.json", "--sigma",
         "corpus/sigma_pp_pp.json", "--chi-v", "0", "--assume-removable"],
        ["trace", "fold", "--n", "2", "--svg"],
        # an option of another action or kind
        ["pattern", "validate", "corpus/interval_0cusp.json", "--sigma",
         "corpus/sigma_pm.json"],
        ["pattern", "check", "corpus/interval_0cusp.json", "--sigma",
         "corpus/sigma_pm.json", "--out", "x.json"],
        ["trace", "swallowtail", "--i", "1"],
        ["trace", "fold", "--t", "2"],
        ["trace", "cusp", "--alpha", "0:1:0.4"],
        ["trace", "perturbed-fold", "--n", "2", "--k", "1"],
        # a prefix of --tol
        ["trace", "fold", "--to", "2"],
    ])
    def test_removed_options_are_usage_errors(self, argv, capsys):
        argv = [str(REPO_ROOT / a) if a.startswith("corpus/") else a
                for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cuspcobord: unrecognized")
        assert captured.err.count("\n") == 1

    def test_every_foreign_option_is_refused(self, capsys):
        pattern = [_corpus("interval_0cusp.json")]
        sigma = ["--sigma", _corpus("sigma_pm.json")]
        foreign = [(["pattern", "validate", *pattern], option)
                   for option in (sigma, ["--chi-v", "1"], ["--out", "x"])]
        foreign.append((["pattern", "check", *pattern, *sigma],
                        ["--out", "x"]))
        own = {"swallowtail": {"--t"}, "fold": {"--i"}, "cusp": {"--k"},
               "perturbed-fold": {"--i", "--alpha", "--beta"}}
        values = {"--t": "2", "--i": "1", "--k": "1", "--alpha": "0:1:0.4",
                  "--beta": "0:1:1"}
        foreign += [(["trace", kind, "--n", "2"], [flag, value])
                    for kind in own for flag, value in values.items()
                    if flag not in own[kind]]
        assert len(foreign) == 18
        for command, option in foreign:
            assert main(command + option) == 2, option
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: cuspcobord: unrecognized "
                                    f"arguments: {' '.join(option)}\n")

    @pytest.mark.parametrize("action", ["check", "normalize"])
    def test_chi_v_is_refused_in_odd_dimension(self, action, capsys):
        assert main(["pattern", action, _corpus("two_intervals_n3.json"),
                     "--sigma", _corpus("sigma_pp_pp.json"),
                     "--chi-v", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --chi-v applies only to even n, not n=3\n")

    @pytest.mark.parametrize("action", ["check", "normalize"])
    def test_chi_ambient_is_refused_in_odd_dimension(self, action, tmp_path,
                                                     capsys):
        f = _with_chi_ambient(tmp_path, "two_intervals_n3.json", 0)
        assert main(["pattern", action, f, "--sigma",
                     _corpus("sigma_pp_pp.json")]) == 2
        assert capsys.readouterr() == (
            "", "error: chi_ambient applies only to even n, not n=3\n")

    def test_even_normalize_needs_chi_v(self, capsys):
        assert main(["pattern", "normalize", _corpus("two_intervals_n2.json"),
                     "--sigma", _corpus("sigma_pp_pp.json")]) == 2
        assert capsys.readouterr() == (
            "", "error: normalizing an even-dimensional pattern needs --chi-v "
                "or the pattern's chi_ambient\n")

    @pytest.mark.parametrize("action", ["check", "normalize"])
    def test_chi_v_and_chi_ambient_must_agree(self, action, tmp_path,
                                              capsys):
        f = _with_chi_ambient(tmp_path, "two_intervals_n2.json", 0)
        assert main(["pattern", action, f, "--sigma",
                     _corpus("sigma_pp_pp.json"), "--chi-v", "1"]) == 2
        assert capsys.readouterr() == (
            "", "error: --chi-v 1 differs from the pattern's chi_ambient 0\n")

    def test_empty_out_path_is_not_absent(self, capsys):
        assert main(["pattern", "normalize", _corpus("two_intervals_n3.json"),
                     "--sigma", _corpus("sigma_pp_pp.json"), "--out", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1

    def test_empty_grid_is_not_absent(self, capsys):
        assert main(["trace", "fold", "--n", "2", "--grid", "", "--csv"]) == 2
        assert capsys.readouterr() == (
            "", "error: --grid: axis spec '' is not of the form lo:hi:count\n")

    @pytest.mark.parametrize("flag", ["--t", "--tol"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_numbers_are_refused(self, flag, value, capsys):
        assert main(["trace", "swallowtail", f"{flag}={value}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err
        assert err.count("\n") == 1

    # below 1e-4 the rank test reads fold samples as cusps too, and from
    # about 1e-60 down Newton overflows
    @pytest.mark.parametrize("value", ["1e300", "-1e300", "10001", "1e-5",
                                       "-1e-300", "5e-324"])
    def test_swallowtail_parameter_out_of_range(self, value, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["trace", "swallowtail", f"--t={value}", "--csv"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: |t| = ")
        assert captured.err.count("\n") == 1
        assert not caught

    @pytest.mark.parametrize("value", ["1e4", "-1e4", "1e-4", "-1e-4"])
    def test_swallowtail_parameter_at_the_bound(self, value, capsys):
        assert main(["trace", "swallowtail", f"--t={value}", "--csv"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("value", ["-2.5e-1", "-25E-2", "-.25"])
    def test_negative_value_after_a_space(self, value, capsys):
        assert main(["trace", "swallowtail", "--t", value, "--csv"]) == 0
        spaced = capsys.readouterr()
        assert main(["trace", "swallowtail", "--t=-0.25", "--csv"]) == 0
        assert capsys.readouterr() == spaced and spaced.err == ""

    def test_negative_grid_after_a_space(self, capsys):
        grid = "-1:1:3,-1:1:3,-1:1:3"
        assert main(["trace", "swallowtail", "--grid", grid, "--csv"]) == 0
        spaced = capsys.readouterr()
        assert main(["trace", "swallowtail", f"--grid={grid}", "--csv"]) == 0
        assert capsys.readouterr() == spaced and spaced.err == ""

    # a Newton step or a residual norm overflows: that prints nothing on
    # stderr and no nan or inf.  Such a seed does not converge, except
    # that the fold's one seed lands exactly on z = 0, and one seed of the
    # cusp grid and of the swallowtail grid converges exactly
    @pytest.mark.parametrize("argv", [
        ["cusp", "--n", "2", "--grid", "-1:1:3,1e-300:1e-300:1"],
        ["fold", "--n", "2", "--grid", "0:0:1,1e200:1e200:1"],
        ["swallowtail", "--n", "3", "--grid",
         "-1e100:1e100:5,-1e100:1e100:5,-1e100:1e100:5"],
    ], ids=["cusp", "fold", "swallowtail"])
    def test_an_overflowing_newton_step_is_quiet(self, argv, capsys):
        argv = ["trace", *argv, "--csv"]
        assert main(argv) == 0  # under the suite's error::RuntimeWarning
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "nan" not in captured.out and "inf" not in captured.out
        child = subprocess.run(
            [sys.executable, "-m", "cuspcobord.cli", *argv], cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            capture_output=True, text=True)
        assert (child.returncode, child.stdout, child.stderr) == (
            0, captured.out, "")

    def test_an_overflowing_grid_span_is_refused(self, capsys):
        # each bound is finite, their difference is not
        argv = ["trace", "fold", "--n", "2", "--grid",
                "-1.7e308:1.7e308:3,0:0:1", "--csv"]
        assert main(argv) == 2  # under the suite's error::RuntimeWarning
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --grid: axis span hi - lo must be finite\n")
        child = subprocess.run(
            [sys.executable, "-m", "cuspcobord.cli", *argv], cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            capture_output=True, text=True)
        assert (child.returncode, child.stdout, child.stderr) == (
            2, "", captured.err)

    @pytest.mark.parametrize("n", [64, 65])
    def test_a_grid_has_at_most_64_axes(self, n, capsys):
        # a grid of one seed, at the numpy cap on array dimensions and
        # one axis over it
        argv = ["trace", "fold", "--n", str(n),
                "--grid=" + ",".join(["0:0:1"] * n), "--csv"]
        code = main(argv)
        out, err = capsys.readouterr()
        if n == 64:
            assert (code, err) == (0, "")
            assert out.count("\n") == 2 and out.endswith(",fold(0)\n")
        else:
            assert (code, out, err) == (
                2, "", "error: --grid: grid has 65 axes, more than 64\n")

    def test_internal_error_exits_3_with_one_line(self, monkeypatch, capsys):
        monkeypatch.setattr(cli.mv, "replay", lambda trace: trace.initial)
        code = main(["pattern", "normalize",
                     str(REPO_ROOT / "corpus" / "two_intervals_n3.json"),
                     "--sigma", str(REPO_ROOT / "corpus" / "sigma_pp_pp.json")])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: internal: AssertionError: trace replay mismatch\n")

    def test_exponent_rational_is_refused_at_once(self, tmp_path, capsys):
        # Fraction() alone reads "1e10000000" as a ten-million-digit integer
        f = tmp_path / "d.json"
        f.write_text(json.dumps({
            "n": 2, "oriented": True, "chi_M": 1, "chi_boundary": 0,
            "interior": [{"id": "p0", "index": 2, "value": "1e10000000"}],
            "boundary": [{"id": "x0", "mu": 0, "sigma": 1},
                         {"id": "x1", "mu": 1, "sigma": 1}]}))
        start = time.perf_counter()
        assert main(["invariant", str(f)]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {f}: descriptor.interior[0].value: ")

    def test_check_requires_sigma(self, capsys):
        pat = str(REPO_ROOT / "corpus" / "interval_0cusp.json")
        assert main(["pattern", "check", pat]) == 2
        capsys.readouterr()

    def test_cobordant_dimension_mismatch(self, capsys):
        a = str(REPO_ROOT / "corpus" / "fig2.json")
        b = str(REPO_ROOT / "corpus" / "d3_generator.json")
        assert main(["cobordant", a, b]) == 2
        capsys.readouterr()


# Each faulty input file is a corpus file with one edit; "{f}" in an argv
# is that file.
_BAD_MU = ("fig2.json", lambda d: d["boundary"][0].update(mu="a"))
_BAD_TAU = ("interval_0cusp.json",
            lambda d: d["components"][0]["sequence"][0]["arc"].update(
                tau="1"))
_BAD_SIGN = ("sigma_pm.json", lambda d: d.update(x0=2))
_INVALID_DESCRIPTOR = ("fig2.json", lambda d: d.update(chi_boundary=2))
_INVALID_PATTERN = ("bad_pattern.json", lambda d: None)
_FIG2, _PAT, _SIGMA = ("corpus/fig2.json", "corpus/interval_0cusp.json",
                       "corpus/sigma_pm.json")
_CHECK = ["pattern", "check", "{f}", "--sigma", _SIGMA]
_NORMALIZE = ["pattern", "normalize", "{f}", "--sigma", _SIGMA, "--chi-v",
              "1"]
# (id, argv, the faulty file's corpus name and edit, or the option at fault)
_INPUT_FAULTS = [
    ("invariant", ["invariant", "{f}"], _BAD_MU),
    ("cobordant-a", ["cobordant", "{f}", _FIG2], _BAD_MU),
    ("cobordant-b", ["cobordant", _FIG2, "{f}"], _BAD_MU),
    ("extendable", ["extendable", "{f}"], _BAD_MU),
    ("validate", ["pattern", "validate", "{f}"], _BAD_TAU),
    ("check", _CHECK, _BAD_TAU),
    ("normalize", _NORMALIZE, _BAD_TAU),
    ("sigma", ["pattern", "check", _PAT, "--sigma", "{f}"], _BAD_SIGN),
    ("invalid-descriptor", ["invariant", "{f}"], _INVALID_DESCRIPTOR),
    ("invalid-check", _CHECK, _INVALID_PATTERN),
    ("invalid-normalize", _NORMALIZE, _INVALID_PATTERN),
    ("grid", ["trace", "fold", "--n", "2", "--grid=0:1:1e3,0:0:1"], "--grid"),
    ("alpha", ["trace", "perturbed-fold", "--n", "2", "--alpha", "0:0:1"],
     "--alpha"),
    ("beta", ["trace", "perturbed-fold", "--n", "2", "--beta=0:1:x"],
     "--beta"),
    ("t", ["trace", "swallowtail", "--t", "nan"], "--t"),
    ("tol", ["trace", "fold", "--n", "2", "--tol", "1e-9x"], "--tol"),
]


@pytest.mark.parametrize("argv, fault", [c[1:] for c in _INPUT_FAULTS],
                         ids=[c[0] for c in _INPUT_FAULTS])
def test_every_input_error_names_its_input(argv, fault, tmp_path, capsys):
    name = fault
    if not isinstance(fault, str):
        corpus_name, edit = fault
        doc = json.loads((REPO_ROOT / "corpus" / corpus_name).read_text(
            encoding="utf-8"))
        edit(doc)
        name = str(tmp_path / corpus_name)
        with open(name, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    argv = [name if a == "{f}" else
            str(REPO_ROOT / a) if a.startswith("corpus/") else a
            for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {name}: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    if argv[0] == "cobordant" and argv[2] == name:
        # one fresh process: the parser runs before the command there too
        child = subprocess.run(
            [sys.executable, "-m", "cuspcobord.cli", *argv], cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            capture_output=True, text=True)
        assert (child.returncode, child.stdout, child.stderr) == (
            2, "", captured.err)


_NUMBER_FAULTS = [
    (["trace", "fold", "--n", "2", "--tol=-1"],
     "--tol: must be positive, got '-1'"),
    (["trace", "fold", "--n", "2", "--tol=0"],
     "--tol: must be positive, got '0'"),
    (["trace", "swallowtail", "--t", "x"], "--t: 'x' is not a number"),
    (["trace", "fold", "--n", "2", "--tol", "1e-9x"],
     "--tol: '1e-9x' is not a number"),
    (["trace", "perturbed-fold", "--n", "2", "--beta", "a:1:1"],
     "--beta: center 'a' is not a number"),
    (["trace", "perturbed-fold", "--n", "2", "--alpha", "0:1:h"],
     "--alpha: height 'h' is not a number"),
    (["trace", "perturbed-fold", "--alpha", "0:1"],
     "--alpha: expected center:radius:height, got '0:1'"),
    (["trace", "fold", "--n", "x"], "--n: 'x' is not an integer"),
    (["trace", "fold", "--n", "2", "--i", "1.5"],
     "--i: '1.5' is not an integer"),
    (["trace", "cusp", "--k", "k"], "--k: 'k' is not an integer"),
    (["pattern", "check", str(REPO_ROOT / "corpus/two_intervals_n2.json"),
      "--sigma", str(REPO_ROOT / "corpus/sigma_pp_pp.json"), "--chi-v", "0.5"],
     "--chi-v: '0.5' is not an integer"),
    (["trace", "fold", "--n", "2", "--grid", "-1:1"],
     "--grid: axis spec '-1:1' is not of the form lo:hi:count"),
    (["trace", "fold", "--n", "2", "--grid", "x:1:3,0:0:1"],
     "--grid: axis spec 'x:1:3': lo 'x' is not a number"),
    (["trace", "fold", "--n", "2", "--grid", "0:1:3,0:y:1"],
     "--grid: axis spec '0:y:1': hi 'y' is not a number"),
    (["trace", "fold", "--n", "2", "--grid", "0:1:3,0:0:1.5"],
     "--grid: axis spec '0:0:1.5': count '1.5' is not an integer"),
    # the model checks its own range
    (["trace", "fold", "--n", "1"], "ambient dimension must be >= 2, got 1"),
    (["trace", "fold", "--n", "3", "--i", "9"], "fold index 9 outside [0, 2]"),
]


@pytest.mark.parametrize("argv, message", _NUMBER_FAULTS,
                         ids=[message for _, message in _NUMBER_FAULTS])
def test_number_options_are_reported_in_the_tools_words(argv, message,
                                                         capsys):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_the_parser_is_built_without_the_numeric_library(monkeypatch):
    """Building the parser and reading a descriptor command's arguments
    touch nothing of ``normal_forms``: only a trace reads it."""
    class Untouchable:  # every name the module holds is missing here
        def __getattr__(self, name):
            raise AssertionError(f"normal_forms.{name} was read")

    monkeypatch.setattr(cli, "nf", Untouchable())
    args = cli._build_parser().parse_args(
        ["invariant", str(REPO_ROOT / "corpus" / "fig2.json")])
    assert args.file.n == 2


def test_an_element_without_an_id_is_refused(tmp_path, capsys):
    doc = json.loads((REPO_ROOT / "corpus" / "interval_0cusp.json").read_text(
        encoding="utf-8"))
    del doc["components"][0]["sequence"][0]["arc"]["id"]
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["pattern", "validate", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: pattern.components[0]"
                                       f".sequence[0].arc: missing keys "
                                       f"['id']\n")


def test_a_csv_without_samples_keeps_its_columns(capsys):
    assert main(["trace", "cusp", "--n", "2", "--k", "0",
                 "--grid=-1:1:2,0:0:1", "--csv"]) == 0
    assert capsys.readouterr() == ("t,z1,residual,class\n", "")


def _python(code: str, **env: str) -> list[str]:
    """Run ``code`` in a fresh interpreter, with OPENBLAS_NUM_THREADS unset
    unless ``env`` sets it; returns the words of its stdout."""
    child = {k: v for k, v in os.environ.items()
             if k != "OPENBLAS_NUM_THREADS"}
    child["PYTHONPATH"] = str(REPO_ROOT / "src")
    child.update(env)
    return subprocess.run([sys.executable, "-c", code], env=child,
                          capture_output=True, text=True, check=True,
                          cwd=REPO_ROOT).stdout.split()


class TestBlasThreads:
    """The CLI runs numpy's BLAS on one thread unless the user has chosen a
    count; importing the library changes nothing."""

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="needs /proc/self/task")
    def test_the_cli_starts_no_blas_worker_thread(self):
        assert _python("import os, cuspcobord.cli; "
                       "print(len(os.listdir('/proc/self/task')))") == ["1"]

    def test_a_preset_thread_count_wins(self):
        assert _python("import os, cuspcobord.cli; "
                       "print(os.environ['OPENBLAS_NUM_THREADS'])",
                       OPENBLAS_NUM_THREADS="2") == ["2"]

    def test_the_library_leaves_blas_threading_alone(self):
        # the CLI's setting only works because the package itself loads no
        # numpy before cli.py runs
        assert _python("import os, sys, cuspcobord; "
                       "print('numpy' in sys.modules); "
                       "import cuspcobord.normal_forms; "
                       "print(os.environ.get('OPENBLAS_NUM_THREADS'))"
                       ) == ["False", "None"]


class TestGcPolicy:
    """The CLI process keeps its start-up objects out of the collector's
    walks; importing the library changes nothing."""

    def test_entry_freezes_the_start_up_heap(self):
        assert _python(
            "import gc, cuspcobord.cli as cli; "
            "cli.main = lambda argv: "
            "print(gc.get_freeze_count() > 0, gc.isenabled()) or 0; "
            "cli.entry()") == ["True", "True"]

    def test_the_script_collects_again_in_main(self):
        # runpy runs cli.py as python -m does, so its imports run with the
        # collector suspended; main() is the first to call parse_args
        assert _python(
            "import argparse, gc, runpy, sys; "
            "argparse.ArgumentParser.parse_args = lambda self, argv: "
            "sys.exit(print(gc.get_freeze_count() > 0, gc.isenabled())); "
            "runpy.run_module('cuspcobord.cli', run_name='__main__')"
        ) == ["True", "True"]

    def test_the_library_leaves_the_collector_alone(self):
        assert _python("import gc, cuspcobord.cli; "
                       "print(gc.get_freeze_count(), gc.isenabled())"
                       ) == ["0", "True"]


class TestJsonMode:
    def test_invariant_payload(self, capsys):
        f = str(REPO_ROOT / "corpus" / "fig2.json")
        assert main(["invariant", f, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"n": 2, "chi_M": 1, "chi_plus": 0,
                           "invariant": 1, "group": "Z/2"}

    def test_extendable_payload(self, capsys):
        f = str(REPO_ROOT / "corpus" / "d3_sigma_pm.json")
        assert main(["extendable", f, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["necessary_condition"] == "pass"

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_extendable_agrees_with_morse_van_schaack(self, n, tmp_path,
                                                      capsys):
        # the generator under every sign pattern, the reverses, and every
        # disjoint union of two of those
        signed = [dataclasses.replace(generator(n), boundary=tuple(
            dataclasses.replace(p, sigma=s) for p, s in zip(
                generator(n).boundary, signs)))
            for signs in itertools.product((1, -1), repeat=2)]
        base = signed + [reverse(d) for d in signed]
        spread = base + [disjoint_union(a, b) for a in base for b in base]
        f = tmp_path / "d.json"
        verdicts = set()
        for d in spread:
            f.write_text(json.dumps(serialize.descriptor_to_json(d)))
            code = main(["extendable", str(f), "--json"])
            payload = json.loads(capsys.readouterr().out)
            # Morse-van Schaack: chi_plus agrees with chi_M mod 2 for even
            # n and equals it for odd n
            cp = sum((-1) ** p.mu for p in d.boundary if p.sigma == 1)
            ok = ((d.chi_M - cp) % 2 == 0 if d.n % 2 == 0
                  else d.chi_M == cp)
            assert code == (0 if ok else 1)
            assert payload["necessary_condition"] == ("pass" if ok
                                                      else "fail")
            verdicts.add(ok)
        assert verdicts == {True, False}

    def test_trace_embeds_artifact_when_no_out_path(self, capsys):
        assert main(["trace", "fold", "--n", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "fold"
        assert payload["content"].startswith("<svg")

    def test_trace_echoes_its_grid(self, capsys):
        assert main(["trace", "fold", "--n", "2", "--grid", "-1:1:3,0:2:2",
                     "--csv", "--json"]) == 0
        grid = json.loads(capsys.readouterr().out)["grid"]
        assert grid == [[-1.0, 1.0, 3], [0.0, 2.0, 2]]
        assert [type(v) for axis in grid for v in axis] == [float, float,
                                                           int] * 2

    def test_curve_distance_without_samples_is_null(self, capsys):
        # no seed of this one-point grid has an exactly zero residual
        assert main(["trace", "swallowtail", "--json", "--tol", "1e-300",
                     "--grid", "0.5:0.5:1,0.3:0.3:1,0:0:1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["samples"] == 0
        assert payload["max_curve_distance"] is None


def test_perturbed_fold_trace_detects_once(monkeypatch, tmp_path, capsys):
    from cuspcobord import normal_forms as nf
    calls = []
    detect = nf.detect_singular_set
    monkeypatch.setattr(nf, "detect_singular_set",
                        lambda *a, **k: calls.append(1) or detect(*a, **k))
    assert main(["trace", "perturbed-fold", "--n", "2", "--csv",
                 "--out", str(tmp_path / "pf.csv")]) == 0
    assert "samples=41" in capsys.readouterr().out
    assert len(calls) == 1


class TestNormalizeOutputs:
    def test_trace_file_replays(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main(["pattern", "normalize",
                     str(REPO_ROOT / "corpus" / "two_intervals_n3.json"),
                     "--sigma",
                     str(REPO_ROOT / "corpus" / "sigma_pp_pp.json"),
                     "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        from cuspcobord.moves import replay
        from cuspcobord.serialize import trace_from_json
        with open(out, encoding="utf-8") as fh:
            trace = trace_from_json(json.load(fh))
        assert replay(trace) == trace.final

    def test_a_trace_file_is_streamed(self, tmp_path):
        # the n = 6,401 two-interval ladder: a 4 MB trace document, whose
        # joined text alone took 29 MB to build
        from _enumeration import build_pattern
        from cuspcobord.moves import normalize_odd
        n = 6401
        p = build_pattern(n, (("interval", (n - 1,), (), 0, 0),
                              ("interval", (n - 1,), (), 0, 0)))
        doc = serialize.trace_to_json(normalize_odd(p, SignAssignment(
            {"x0": 1, "x1": 1, "x2": -1, "x3": -1})))
        out = tmp_path / "trace.json"
        tracemalloc.start()
        try:
            cli._write_json_file(str(out), doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert out.read_text(encoding="utf-8") == json.dumps(
            doc, sort_keys=True, indent=2, allow_nan=False) + "\n"

    def test_a_trace_is_built_only_to_be_written(self, monkeypatch):
        # in text mode without --out nothing writes the trace document, so
        # none is built, and the report is the golden one without its out=
        calls = []
        build = serialize.trace_to_json
        monkeypatch.setattr(cli.serialize, "trace_to_json",
                            lambda trace: calls.append(1) or build(trace))
        spec, = [spec for spec in load_manifest()
                 if spec["golden"] == "pat_norm_odd.txt"]
        argv, out = spec["argv"][:-2], spec["argv"][-2:]
        golden = (REPO_ROOT / "golden" / "pat_norm_odd.txt").read_text(
            encoding="utf-8")
        assert run_command(argv)[:2] == (0, golden.replace(
            "out={tmp}/trace_odd.json\n", ""))
        assert calls == []
        for flags in (["--json"], out):
            assert run_command(argv + flags)[0] == 0
        assert len(calls) == 2

    def test_an_obstruction_is_built_only_to_be_written(self, monkeypatch):
        # likewise the obstruction document: the golden text report is
        # printed without it, and --json or --out builds it once each
        calls = []
        build = serialize.obstruction_to_json
        monkeypatch.setattr(cli.serialize, "obstruction_to_json",
                            lambda obstruction: calls.append(1)
                            or build(obstruction))
        argv, = [spec["argv"] for spec in load_manifest()
                 if spec["golden"] == "pat_norm_obstruction.txt"]
        golden = (REPO_ROOT / "golden" / "pat_norm_obstruction.txt"
                  ).read_text(encoding="utf-8")
        assert run_command(argv)[:2] == (1, golden)
        assert calls == []
        for flags in (["--json"], ["--out", "{tmp}/obstruction.json"]):
            assert run_command(argv + flags)[0] == 1
        assert len(calls) == 2

    def test_obstruction_report_fields(self, capsys):
        code = main(["pattern", "normalize",
                     str(REPO_ROOT / "corpus" / "interval_0cusp.json"),
                     "--sigma", str(REPO_ROOT / "corpus" / "sigma_pp.json"),
                     "--chi-v", "1", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["status"] == "obstruction"
        assert payload["obstruction"]["kind"] == "parity_mismatch"


def _with_chi_ambient(tmp_path, name, chi):
    """The path of a copy of a corpus pattern that stores ``chi``."""
    doc = json.loads((REPO_ROOT / "corpus" / name).read_text(
        encoding="utf-8"))
    path = tmp_path / name
    path.write_text(json.dumps({**doc, "chi_ambient": chi}), encoding="utf-8")
    return str(path)


def _corpus(name):
    return str(REPO_ROOT / "corpus" / name)


def _golden_json(name):
    with open(REPO_ROOT / "golden" / name, encoding="utf-8") as fh:
        return json.load(fh)


class TestPatternJson:
    """The parsed ``pattern ... --json`` payloads, pinned whole."""

    def run(self, capsys, *argv):
        code = main(["pattern", *argv, "--json"])
        return code, json.loads(capsys.readouterr().out)

    def test_validate_valid(self, capsys):
        code, payload = self.run(capsys, "validate",
                                 _corpus("interval_0cusp.json"))
        assert code == 0
        assert payload == {"valid": True, "violations": [],
                           "components": 1, "cusps": 0}

    def test_validate_reports_laws_in_order(self, tmp_path, capsys):
        # one circle at n = 3: an arc outside [1, 2], a cusp outside
        # [0, 1], and a cusp whose arcs (tau 1, then tau 5 around the
        # wrap) break its transition
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"n": 3, "components": [{
            "kind": "circle", "sequence": [
                {"arc": {"id": "a0", "tau": 5}},
                {"cusp": {"id": "c0", "I": 7}},
                {"arc": {"id": "a1", "tau": 1}},
                {"cusp": {"id": "c1", "I": 0}}]}]}))
        code, payload = self.run(capsys, "validate", str(path))
        assert code == 1
        assert payload["violations"] == [
            {"code": "arc-index-range",
             "message": "component 0: arc 'a0' has tau=5, outside [1, 2]"},
            {"code": "cusp-index-range",
             "message": "component 0: cusp 'c0' has I=7, outside [0, 1]"},
            {"code": "cusp-transition",
             "message": "component 0: cusp 'c1' (I=0, tau=1) abuts arcs "
                        "of indices 1 and 5"}]

    def test_validate_reports_range_before_an_earlier_transition(
            self, tmp_path, capsys):
        # one circle at n = 3: cusp c0 abuts two arcs of index 1, and the
        # later cusp c1 has I outside [0, 1]
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"n": 3, "components": [{
            "kind": "circle", "sequence": [
                {"arc": {"id": "a0", "tau": 1}},
                {"cusp": {"id": "c0", "I": 0}},
                {"arc": {"id": "a1", "tau": 1}},
                {"cusp": {"id": "c1", "I": 7}}]}]}))
        code, payload = self.run(capsys, "validate", str(path))
        assert code == 1
        assert payload["violations"] == [
            {"code": "cusp-index-range",
             "message": "component 0: cusp 'c1' has I=7, outside [0, 1]"},
            {"code": "cusp-transition",
             "message": "component 0: cusp 'c0' (I=0, tau=1) abuts arcs "
                        "of indices 1 and 1"}]

    def test_validate_invalid(self, capsys):
        code, payload = self.run(capsys, "validate",
                                 _corpus("bad_pattern.json"))
        assert code == 1
        assert payload == {
            "valid": False, "components": 1, "cusps": 0,
            "violations": [
                {"code": "endpoint-index",
                 "message": f"component 0: end arc 'a0' has tau=1 but "
                            f"boundary point '{x}' (mu=0) forces 2"}
                for x in ("x0", "x1")]}

    def test_check_even(self, capsys):
        code, payload = self.run(capsys, "check",
                                 _corpus("interval_0cusp.json"), "--sigma",
                                 _corpus("sigma_pm.json"), "--chi-v", "1")
        assert code == 0
        assert payload == {
            "n": 2, "vector_field": True, "cusp_parity": True,
            "aggregate_lhs": 0, "aggregate_rhs": 0,
            "components": [{"kind": "interval", "cusps": 0,
                            "condition": True}]}

    def test_check_odd(self, capsys):
        code, payload = self.run(capsys, "check",
                                 _corpus("two_intervals_n3.json"), "--sigma",
                                 _corpus("sigma_pp_pp.json"))
        assert code == 1
        assert payload == {
            "n": 3, "vector_field": False,
            "aggregate_lhs": "0", "aggregate_rhs": "0",
            "components": [{"kind": "interval", "cusps": 0,
                            "condition": False}] * 2}

    def test_normalize_with_out(self, tmp_path, capsys):
        out = str(tmp_path / "trace.json")
        code, payload = self.run(capsys, "normalize",
                                 _corpus("two_intervals_n3.json"), "--sigma",
                                 _corpus("sigma_pp_pp.json"), "--out", out)
        assert code == 0
        assert payload == {"status": "normalized", "moves": 4,
                           "components": 2, "cusps": 4, "out": out}
        with open(out, encoding="utf-8") as fh:
            assert json.load(fh) == _golden_json("trace_odd.json")

    def test_normalize_without_out(self, capsys):
        code, payload = self.run(capsys, "normalize",
                                 _corpus("two_intervals_n2.json"), "--sigma",
                                 _corpus("sigma_pp_pp.json"), "--chi-v", "0")
        assert code == 0
        assert payload == {"status": "normalized", "moves": 7,
                           "components": 3, "cusps": 2,
                           "trace": _golden_json("trace_even.json")}

    def test_normalize_obstruction(self, capsys):
        code, payload = self.run(capsys, "normalize",
                                 _corpus("interval_0cusp.json"), "--sigma",
                                 _corpus("sigma_pp.json"), "--chi-v", "1")
        assert code == 1
        assert payload == {
            "status": "obstruction",
            "obstruction": {"kind": "parity_mismatch",
                            "witness": {"chi_V": 1, "chi_plus": 2,
                                        "lhs_mod2": 1, "rhs_mod2": 0}}}


    def test_normalize_obstruction_with_out(self, tmp_path, capsys):
        out = str(tmp_path / "obstruction.json")
        code, payload = self.run(capsys, "normalize",
                                 _corpus("interval_0cusp.json"), "--sigma",
                                 _corpus("sigma_pp.json"), "--chi-v", "1",
                                 "--out", out)
        assert code == 1
        obstruction = {"kind": "parity_mismatch",
                       "witness": {"chi_V": 1, "chi_plus": 2,
                                   "lhs_mod2": 1, "rhs_mod2": 0}}
        assert payload == {"status": "obstruction",
                           "obstruction": obstruction, "out": out}
        with open(out, encoding="utf-8") as fh:
            assert json.load(fh) == obstruction


@pytest.mark.parametrize("action, code", [("check", 1), ("normalize", 0)])
@pytest.mark.parametrize("as_json", [[], ["--json"]])
def test_chi_ambient_reads_as_an_equal_chi_v(action, code, as_json, tmp_path,
                                             capsys):
    f = _with_chi_ambient(tmp_path, "two_intervals_n2.json", 0)
    argv = ["pattern", action, f, "--sigma", _corpus("sigma_pp_pp.json"),
            *as_json]
    assert main(argv) == code
    stored = capsys.readouterr()
    assert main(argv + ["--chi-v", "0"]) == code
    assert capsys.readouterr() == stored
    assert stored.err == ""
    if action == "check":
        assert "cusp_parity" in stored.out


class TestArtifacts:
    def test_svg_golden_tracks_renderer(self, tmp_path, capsys):
        out = tmp_path / "st.svg"
        assert main(["trace", "swallowtail", "--t", "1",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        golden = (REPO_ROOT / "golden" / "st1.svg").read_text()
        assert out.read_text() == golden

    def test_csv_stdout_matches_golden(self, capsys):
        assert main(["trace", "fold", "--i", "1", "--n", "3", "--csv"]) == 0
        got = capsys.readouterr().out
        golden = (REPO_ROOT / "golden" / "trace_fold.csv").read_text()
        assert got == golden

    # the SVG curves that no golden file holds, pinned by the sha256 of
    # stdout; every cusp model draws the same image, as does every fold
    @pytest.mark.parametrize("argv, digest", [
        (f"cusp {dims}", "7eca7aa84f2f8e3bedf07f15c906f71d"
                         "df4b044d3d65cf40fb306542b48e3cb5")
        for dims in ("--n 2", "--n 3", "--k 1 --n 4")] + [
        (f"fold {dims}", "29d56e2fa2b00921d19c35cbb4ee26c0"
                         "30dbd1a10efdc4667b674667aac63f4c")
        for dims in ("--n 2", "--i 1 --n 3")] + [
        # zero samples: each kind draws its default range, unmarked
        ("fold --n 2 --grid 0:0:1,1.7e308:1.7e308:1",
         "29d56e2fa2b00921d19c35cbb4ee26c030dbd1a10efdc4667b674667aac63f4c"),
        ("cusp --n 2 --grid 1:1:1,1e-300:1e-300:1",
         "9b6cac8fce00a288edc9444a24a0cd95361a76fc969250fc9c8dbc012cb55d2f"),
        ("swallowtail --tol 1e-300 --grid 0.5:0.5:1,0.3:0.3:1,0:0:1",
         "1ba5477261ba9a96e650d05be6a6e2b0401d852ca8b9c64d36588525be5233b0")])
    def test_svg_stdout_digest(self, argv, digest, capsys):
        assert main(["trace", *argv.split()]) == 0
        got = capsys.readouterr().out
        assert hashlib.sha256(got.encode()).hexdigest() == digest

    # grids whose neighbouring samples have a Hessian determinant of
    # exactly 0.0 next to a nonzero one: the cusp hunt's zero guards decide
    # the n = 3 outputs (dropping either guard changes one of them)
    @pytest.mark.parametrize("argv, csv", [
        ("--n 2 --grid=-3:0:2,0:1:2",
         "t,z1,residual,class\n0,0,0,cusp-candidate\n-3,1,0,fold(0)\n"),
        ("--n 3 --k 1 --tol 1e-300 --grid=-3:0:2,-1:0:2,0:0:1",
         "t,z1,z2,residual,class\n-3,-1,0,0,fold(2)\n"
         "0,0,0,0,cusp-candidate\n"),
        ("--n 3 --k 0 --tol 1e-300 --grid=-3:0:2,0:1:2,0:0:1",
         "t,z1,z2,residual,class\n0,0,0,0,cusp-candidate\n"
         "-3,1,0,0,fold(0)\n"),
    ])
    def test_cusp_hunt_skips_a_zero_determinant(self, argv, csv, capsys):
        assert main(["trace", "cusp", *argv.split(), "--csv"]) == 0
        assert capsys.readouterr() == (csv, "")

    # the cusp polish stops at a residual of 5.0e-13: the default --tol
    # admits that cusp, and --tol 1e-13 leaves only the folds
    @pytest.mark.parametrize("argv, csv", [
        ("--n 2 --grid=-0.5:0.5:2,-0.5:0.5:2",
         "t,z1,residual,class\n"
         "-0.5,-0.408248290464,3.33066907388e-16,fold(1)\n"
         "-5.00044450291e-13,0,5.00044450291e-13,cusp-candidate\n"
         "-0.5,0.408248290464,3.33066907388e-16,fold(0)\n"),
        ("--n 2 --grid=-0.5:0.5:2,-0.5:0.5:2 --tol 1e-13",
         "t,z1,residual,class\n"
         "-0.5,-0.408248290464,3.33066907388e-16,fold(1)\n"
         "-0.5,0.408248290464,3.33066907388e-16,fold(0)\n"),
    ])
    def test_every_printed_sample_beats_tol(self, argv, csv, capsys):
        assert main(["trace", "cusp", *argv.split(), "--csv"]) == 0
        assert capsys.readouterr() == (csv, "")

    def test_a_perturbed_fold_marks_no_cusp(self, tmp_path, capsys):
        # beta is not centred at 0, so beta'(0) != 0: at t = z = 0 the
        # z-Hessian 2(eps + alpha(0) beta'(0)) is about diag(1.25e-5, -4),
        # which the relative rank test reads as a drop.  That one sample is
        # a cusp candidate, and the drawing still marks none (the exit code
        # is pinned in TestExitCodes)
        out = tmp_path / "edge.svg"
        main([*EDGE_PERTURBED_FOLD, "--out", str(out)])
        capsys.readouterr()
        main([*EDGE_PERTURBED_FOLD, "--csv"])
        rows = capsys.readouterr().out.splitlines()[1:]
        assert sum(row.endswith(",fold(1)") for row in rows) == 40
        assert [row for row in rows if not row.endswith(",fold(1)")] == [
            "0,-1.40771791831e-62,-1.2801881753e-09,1.60023521915e-14,"
            "cusp-candidate"]
        svg = out.read_text()
        assert svg.count("<path") == 1 and "<circle" not in svg

    def test_perturbed_fold_detects_and_judges_at_one_tol(self, tmp_path,
                                                           capsys):
        out = tmp_path / "pf.svg"
        assert main(["trace", "perturbed-fold", "--n", "2", "--tol", "1e-13",
                     "--out", str(out)]) == 0
        assert capsys.readouterr() == (
            "kind=perturbed-fold\nn=2\nsup_product=0.75\nsamples=41\n"
            "max_axis_distance=1.06223624e-14\n"
            "max_image_error=1.97215226e-31\nok=yes\n"
            f"out={out}\n", "")


# pattern files with a sign assignment each; only odd_circle_n2's does not
# cover its boundary points (it has none)
FUZZ_PATTERNS = [("two_intervals_n3.json", "sigma_pp_pp.json"),
                 ("two_intervals_n2.json", "sigma_pp_pp.json"),
                 ("interval_0cusp.json", "sigma_pm.json"),
                 ("interval_0cusp.json", "sigma_pp.json"),
                 ("odd_circle_n2.json", "sigma_pp.json")]
FUZZ_DESCRIPTORS = ["fig2.json", "d3_generator.json", "d3_sigma_pm.json",
                    "empty.json"]
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 6),
                 st.floats(allow_nan=True, allow_infinity=True),
                 st.sampled_from(["", "x0", "y1", "a0", "c0", "arc", "cusp",
                                  "interval", "circle"]),
                 st.just([]), st.just({}))
# center:radius:height strings: any floats, or near the accepted range
# (|center| <= 10 * radius, radius in [1e-3, 1e3], |height| <= 1e3)
BUMPS = st.one_of(
    st.none(),
    st.tuples(st.floats(), st.floats(), st.floats()),
    st.tuples(st.floats(-12.0, 12.0), st.floats(1e-3, 1e3),
              st.floats(-1.2e3, 1.2e3)).map(
        lambda v: (v[0] * v[1], v[1], v[2])),
).map(lambda v: v and ":".join(repr(x) for x in v))


@st.composite
def _mutated(draw, name):
    """A corpus document with up to three random edits: a node replaced by
    junk, deleted, or duplicated."""
    with open(REPO_ROOT / "corpus" / name, encoding="utf-8") as fh:
        doc = json.load(fh)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.sampled_from(list(json_nodes(doc))))
        if not at:
            doc = draw(JUNK)
            continue
        parent = doc
        for key in at[:-1]:
            parent = parent[key]
        key = at[-1]
        edit = draw(st.sampled_from(["junk", "delete", "duplicate"]))
        if edit == "junk":
            parent[key] = draw(JUNK)
        elif edit == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[f"{key}_copy"] = copy.deepcopy(parent[key])
    return doc


def _run(argv, files):
    """cli.main on argv with each {name} filled by a temporary JSON file."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in files.items():
            paths[name] = f"{tmp}/{name}.json"
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([a.format(**paths) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _assert_contract(code, out, err, as_json):
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err and err.count("\n") <= 1, err
    assert (code == 2) == err.startswith("error: "), (code, err)
    if as_json and code != 2:
        json.loads(out)


class TestInputContract:
    """Every input ends in exit 0, 1 or 2, with at most one stderr line and
    no traceback; --json output parses."""

    @given(data=st.data())
    def test_mutated_corpus_files(self, data):
        action = data.draw(st.sampled_from(
            ["invariant", "validate", "check", "normalize"]))
        as_json = data.draw(st.booleans())
        if action == "invariant":
            files = {"d": data.draw(_mutated(data.draw(
                st.sampled_from(FUZZ_DESCRIPTORS))))}
            argv = ["invariant", "{d}"]
        else:
            pattern, sigma = data.draw(st.sampled_from(FUZZ_PATTERNS))
            files = {"p": data.draw(_mutated(pattern))}
            argv = ["pattern", action, "{p}"]
            if action != "validate":
                files["s"] = data.draw(_mutated(sigma))
                argv += ["--sigma", "{s}"]
                chi_v = data.draw(st.one_of(st.none(), st.integers(-2, 3)))
                if chi_v is not None:
                    argv += ["--chi-v", str(chi_v)]
        if as_json:
            argv.append("--json")
        _assert_contract(*_run(argv, files), as_json)

    @given(t=st.floats(), tol=st.one_of(st.none(), st.floats()),
           spaced=st.booleans(), as_json=st.booleans())
    def test_float_arguments(self, t, tol, spaced, as_json):
        argv = ["trace", "swallowtail", "--grid=-1:1:3,-1:1:3,-1:1:3",
                "--csv"]
        for flag, value in (("--t", t), ("--tol", tol)):
            if value is not None:
                argv += [flag, repr(value)] if spaced else [
                    f"{flag}={value!r}"]
        if as_json:
            argv.append("--json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _assert_contract(*_run(argv, {}), as_json)

    @given(alpha=BUMPS, beta=BUMPS, spaced=st.booleans(),
           as_json=st.booleans())
    def test_bump_arguments(self, alpha, beta, spaced, as_json):
        argv = ["trace", "perturbed-fold", "--n", "2", "--csv"]
        for flag, value in (("--alpha", alpha), ("--beta", beta)):
            if value is not None:
                argv += [flag, value] if spaced else [f"{flag}={value}"]
        if as_json:
            argv.append("--json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _assert_contract(*_run(argv, {}), as_json)
