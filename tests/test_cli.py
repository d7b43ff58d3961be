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
        assert err.startswith(f"error: invalid descriptor {f}: chi_boundary")
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
            "", "error: axis spec '' is not of the form lo:hi:count\n")

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

    # the first Newton step of each seed overflows: the seed does not
    # converge, and that is all
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
        assert err.startswith("error: descriptor.interior[0].value: ")

    def test_check_requires_sigma(self, capsys):
        pat = str(REPO_ROOT / "corpus" / "interval_0cusp.json")
        assert main(["pattern", "check", pat]) == 2
        capsys.readouterr()

    def test_cobordant_dimension_mismatch(self, capsys):
        a = str(REPO_ROOT / "corpus" / "fig2.json")
        b = str(REPO_ROOT / "corpus" / "d3_generator.json")
        assert main(["cobordant", a, b]) == 2
        capsys.readouterr()


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

    def test_obstruction_report_fields(self, capsys):
        code = main(["pattern", "normalize",
                     str(REPO_ROOT / "corpus" / "interval_0cusp.json"),
                     "--sigma", str(REPO_ROOT / "corpus" / "sigma_pp.json"),
                     "--chi-v", "1", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["status"] == "obstruction"
        assert payload["obstruction"]["kind"] == "parity_mismatch"


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
        for dims in ("--n 2", "--i 1 --n 3")])
    def test_svg_stdout_digest(self, argv, digest, capsys):
        assert main(["trace", *argv.split()]) == 0
        got = capsys.readouterr().out
        assert hashlib.sha256(got.encode()).hexdigest() == digest


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
