"""Command-line interface: exit codes, formats, golden-file determinism."""

import json

import pytest

from cuspcobord.cli import main

from _corpus import REPO_ROOT, load_manifest, run_entry

MANIFEST = load_manifest()


@pytest.mark.parametrize(
    "spec", MANIFEST, ids=[" ".join(s["argv"]) for s in MANIFEST])
def test_corpus_command_matches_golden(spec):
    problems = run_entry(spec)
    assert not problems, problems


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
        assert "error:" in capsys.readouterr().err

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

    @pytest.mark.parametrize("argv", [
        ["pattern", "normalize", "corpus/two_intervals_n2.json", "--sigma",
         "corpus/sigma_pp_pp.json", "--chi-v", "0", "--assume-removable"],
        ["trace", "fold", "--n", "2", "--svg"],
    ])
    def test_removed_options_are_usage_errors(self, argv, capsys):
        argv = [str(REPO_ROOT / a) if a.startswith("corpus/") else a
                for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cuspcobord: unrecognized")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--t", "--tol"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_numbers_are_refused(self, flag, value, capsys):
        assert main(["trace", "swallowtail", f"{flag}={value}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err
        assert err.count("\n") == 1

    def test_check_requires_sigma(self, capsys):
        pat = str(REPO_ROOT / "corpus" / "interval_0cusp.json")
        assert main(["pattern", "check", pat]) == 2
        capsys.readouterr()

    def test_cobordant_dimension_mismatch(self, capsys):
        a = str(REPO_ROOT / "corpus" / "fig2.json")
        b = str(REPO_ROOT / "corpus" / "d3_generator.json")
        assert main(["cobordant", a, b]) == 2
        capsys.readouterr()


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
