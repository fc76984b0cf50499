import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import braidgate
from braidgate import enhancement, entangling_power, hietarinta
from braidgate.cli import main
from braidgate.enhancement import POINT_OUTCOMES
from braidgate.entangling_power import entangling_power_quadrature
from braidgate.hietarinta import hietarinta_assemble

# X-patterned but for one 1e-6 entry: X-type at --tol 1e-3, not at the default
NEAR_X = "[[1,1e-6,0,1],[0,1,1,0],[0,1,1,0],[1,0,0,1]]"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    return code, json.loads(out)


def run_traced(capsys, *argv):
    """run() plus the peak bytes allocated while the command ran."""
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        return code, out, err, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCatalogCommand:
    def test_full_listing(self, capsys):
        code, report = run_json(capsys, "catalog")
        assert code == 0
        assert report["count"] == 38
        assert report["classes"] == 12

    def test_class_filter(self, capsys):
        code, report = run_json(capsys, "catalog", "--class", "3")
        assert code == 0
        assert report["count"] == 8
        assert all(row["id"].startswith("C3.") for row in report["rows"])

    @pytest.mark.parametrize("cls", ["x", "13", "0", "C3.0"])
    def test_unknown_class_is_usage_error(self, capsys, cls):
        # not a bare int() message, and not an empty listing with exit 0
        code, out, err = run(capsys, "catalog", "--class", cls)
        assert code == 2 and out == ""
        assert err == f"error: unknown class {cls!r}; known: 1..12\n"

    def test_hietarinta_listing(self, capsys):
        code, report = run_json(capsys, "catalog", "--hietarinta")
        assert code == 0
        assert report["count"] == 11

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "catalog", "--class", "2", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2  # header + one row

    def test_text_lists_each_record(self, capsys):
        code, out, _ = run(capsys, "catalog", "--class", "2")
        assert code == 0
        assert out == ("command: catalog\ncount: 1\nrows:\n  id: C2.0\n  free_params:\n"
                       "    - h2\n    - h3\n    - h7\n  constraints:\n    h1: 0\n    h4: 0\n"
                       "    h5: 0\n    h8: 0\n    h6: h3\n"
                       "  eigenvalues: lam1+-=+-sqrt(h2*h7), lam2=h3 (x2)\n"
                       "  enhancements:\n    - C2.I\n\n")


class TestVerifyCommand:
    def test_class1_passes(self, capsys):
        code, report = run_json(
            capsys, "verify", "--class", "C1.0", "--params", "h1=1,h4=2,h5=3,h8=4"
        )
        assert code == 0
        assert report["checks"]["ybe"]["pass"]

    def test_scaled_down_non_solution_fails(self, capsys):
        # the residual, 2.1e-12, is judged against max|R|^3, not against 1
        m = 1e-4 * np.random.default_rng(1).normal(size=(4, 4))
        code, report = run_json(capsys, "verify", "--matrix", json.dumps(m.tolist()))
        ybe = report["checks"]["ybe"]
        assert code == 1 and not ybe["pass"]
        assert ybe["scale"] == np.abs(m).max() ** 3 and ybe["residual"] > 1e-9 * ybe["scale"]

    def test_all_ones_fails(self, capsys):
        code, report = run_json(capsys, "verify", "--xtype", "1,1,1,1,1,1,1,1")
        assert code == 1
        assert not report["checks"]["ybe"]["pass"]

    def test_residuals_judged_against_their_scale(self, capsys):
        # both residuals are rounding, about 1e-16 of max(1, max|R|)^3 and of
        # 16 max(1, max|R|)^2; judged absolutely at 1e-9 they would fail
        code, report = run_json(capsys, "verify", "--class", "C6.0",
                                "--params", "h1=1234.5,h8=2345.6,h2=345.7")
        assert code == 0
        ybe, ids = report["checks"]["ybe"], report["checks"]["invariant_identities"]
        assert ybe["pass"] and ids["pass"]
        assert ybe["residual"] > 1e-9 and max(ids["residuals"]) > 1e-9
        r_max = max(abs(v) for v in (1234.5, 2345.6, 345.7, (1234.5 + 2345.6) ** 2 / (4 * 345.7)))
        assert ybe["scale"] == pytest.approx(r_max**3)
        assert ids["scale"] == pytest.approx(16 * r_max**2)
        code, report = run_json(capsys, "invariants", "--class", "C6.0",
                                "--params", "h1=1234.5,h8=2345.6,h2=345.7")
        assert code == 0 and report["identity_scale"] == ids["scale"]

    def test_enhancements_flag(self, capsys):
        code, report = run_json(
            capsys, "verify", "--class", "C6.0",
            "--params", "h1=1,h8=2,h2=1", "--enhancements",
        )
        assert code == 0
        recipes = report["checks"]["enhancements"]
        assert len(recipes) == 5
        assert all(v["pass"] for v in recipes.values())
        # each pass can be checked from the output
        for v in recipes.values():
            assert len(v["scales"]) == 3
            assert all(r < report["tolerance"] * s for r, s in zip(v["residuals"], v["scales"]))

    def test_undefined_recipe_fails_its_check(self, capsys):
        # C4.mu5 divides by 2 h1 - h6; C4.I pins h6 = 0, so it does not
        # apply at h6 = 2; C4.Z (h6 = 2 h1) and C4.I+-Z pass
        code, report = run_json(capsys, "verify", "--class", "C4.0",
                                "--params", "h1=1,h4=1,h6=2", "--enhancements")
        assert code == 1
        recipes = report["checks"]["enhancements"]
        assert len(recipes) == 5
        assert {rid for rid, v in recipes.items() if v.get("pass")} == {
            "C4.Z", "C4.I+Z", "C4.I-Z"}
        assert recipes["C4.mu5"]["pass"] is False
        assert recipes["C4.mu5"]["error"].startswith("C4.mu5 is undefined")
        assert recipes["C4.I"] == {"applies": False}

    def test_enhancements_of_another_operator_do_not_apply(self, capsys):
        # C1.I and C1.Z pin h8 = h1 and h8 = -h1; neither enhances h8 = 4
        code, report = run_json(capsys, "verify", "--class", "C1.0",
                                "--params", "h1=1,h4=2,h5=3,h8=4", "--enhancements")
        assert code == 0
        recipes = report["checks"]["enhancements"]
        assert recipes["C1.I"] == recipes["C1.Z"] == {"applies": False}
        assert recipes["C1.I+Z"]["pass"] and recipes["C1.I-Z"]["pass"]

    def test_enhancements_verified_once_each(self, capsys, monkeypatch):
        # each verification inverts R once; the residuals printed are the
        # ones instantiate_recipe recorded when it verified the instance
        calls = []
        invert = enhancement.invert
        monkeypatch.setattr(enhancement, "invert", lambda m: calls.append(1) or invert(m))
        code, _ = run_json(capsys, "verify", "--class", "C6.0",
                           "--params", "h1=1,h8=2,h2=1", "--enhancements")
        assert code == 0
        assert len(calls) == 5

    def test_csv_is_one_row_per_leaf(self, capsys):
        code, out, _ = run(capsys, "verify", "--xtype", "1,0,0,1,1,0,0,1", "--csv")
        assert code == 0
        rows = out.splitlines()
        assert rows[0] == "key,value"
        assert 'command,"""verify"""' in rows and "checks.ybe.pass,true" in rows
        assert "checks.invariant_identities.scale,16.0" in rows

    def test_malformed_spec_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--class", "C1.0", "--params", "h1")
        assert code == 2
        code, _, err = run(capsys, "verify")
        assert code == 2
        code, _, err = run(capsys, "verify", "--class", "C77.0", "--params", "h1=1")
        assert code == 2


class TestOperatorSpecs:
    def test_complex_literal_forms(self, capsys):
        code1, rep1 = run_json(
            capsys, "invariants", "--class", "C12.0", "--params", "h1=2+0i,h2=1"
        )
        code2, rep2 = run_json(
            capsys, "invariants", "--class", "C12.0", "--params", "h1=[2,0],h2=[1,0]"
        )
        assert code1 == code2 == 0
        assert rep1["invariants"] == rep2["invariants"]

    def test_matrix_spec(self, capsys):
        rows = json.dumps([[[1, 0], [0, 0], [0, 0], [0, 0]],
                           [[0, 0], [1, 0], [0, 0], [0, 0]],
                           [[0, 0], [0, 0], [1, 0], [0, 0]],
                           [[0, 0], [0, 0], [0, 0], [1, 0]]])
        code, report = run_json(capsys, "invariants", "--matrix", rows)
        assert code == 0
        assert report["invariants"]["I1"] == [4.0, 0.0]

    @pytest.mark.parametrize("matrix", [
        "5",
        "[1,2,3,4]",
        "[[null,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]",
    ])
    def test_malformed_matrix_is_usage_error(self, capsys, matrix):
        code, out, err = run(capsys, "epower", "--matrix", matrix)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv,named", [
        (("epower", "--matrix", "nope"), "--matrix 'nope'"),
        (("invariants", "--class", "C12.0", "--params", "h1=[1,"), "complex literal '[1,'"),
        (("invariants", "--xtype", "1,0,0,1,1,0,0,[1,"), "complex literal '[1,'"),
    ], ids=["matrix", "params", "xtype"])
    def test_malformed_json_names_its_input(self, capsys, argv, named):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {named} is not valid JSON: ") and err.count("\n") == 1

    @pytest.mark.parametrize("params,message", [
        ("h1=[1,,h2=1", "error: complex literal '[1,,h2=1' is not valid JSON: "
                        "its '[' is never closed\n"),
        ("h1=1],h2=2", "error: unbalanced ']' in 'h1=1]'\n"),
    ], ids=["unclosed", "unopened"])
    def test_unbalanced_brackets_are_named(self, capsys, params, message):
        assert run(capsys, "invariants", "--class", "C12.0", "--params", params) == (2, "", message)

    @pytest.mark.parametrize("value", ["inf", "-inf", "infinity", "nan"])
    def test_non_finite_literals_are_refused_as_non_finite(self, capsys, value):
        # only the imaginary unit i is read as j, so inf is a float, not "jnf"
        assert run(capsys, "invariants", "--class", "C12.0", "--params", f"h1={value},h2=1") \
            == (2, "", "error: matrix entries must be finite\n")

    def test_malformed_complex_pair_is_usage_error(self, capsys):
        code, out, err = run(capsys, "invariants", "--class", "C12.0",
                             "--params", "h1=[null,0],h2=1")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_xtype_detection_uses_tol(self, capsys):
        code, report = run_json(capsys, "invariants", "--tol", "1e-3", "--matrix", NEAR_X)
        assert code == 0
        assert "xtype_closed_forms" in report
        code, report = run_json(capsys, "invariants", "--matrix", NEAR_X)
        assert code == 0 and "xtype_closed_forms" not in report

    @pytest.mark.parametrize("argv", [
        ("invariants", "--xtype", "1,0,0,1,1,0,0,zz"),
        ("invariants", "--xtype", "1,0,0,1,1,0,0"),
        ("verify", "--xtype", "1,0,0,1,1,0,0,1", "--enhancements"),
        ("classify",),
        ("orbit", "--matrix", "[[1,1,0,1],[0,1,1,0],[0,1,1,0],[1,0,0,1]]"),
        ("epower", "--matrix", f"[[1{'0' * 399},0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]"),
        ("verify", "--class", "C3.2", "--params", "h1=1,h2=1,h8=2", "--enhancements"),
        # the recipes enhance the representative; C6.mu2..C6.mu5 fail on C6.1
        ("verify", "--class", "C6.1", "--params", "h1=1,h2=1,h8=2", "--enhancements"),
        ("verify", "--hietarinta", "H1,3", "--params", "k=1,p=2,q=3,typo=5"),
    ], ids=["complex-literal", "xtype-count", "enhancements-class", "classify-class",
            "orbit-xtype", "matrix-range", "recipe-param", "enhancements-variant",
            "family-param"])
    def test_usage_error_is_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        # the operator takes no names, so h1 would be dropped
        (("epower", "--xtype", "1,0,0,0,0,1,0,1", "--params", "h1=5"),
         "error: --params applies to --class and --hietarinta, not --xtype\n"),
        (("epower", "--matrix", "[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]", "--params", "h1=5"),
         "error: --params applies to --class and --hietarinta, not --matrix\n"),
        # a repeated name, not its last value
        (("invariants", "--class", "C1.0", "--params", "h1=1,h4=1,h5=1,h8=1,h8=2"),
         "error: parameter 'h8' given twice\n"),
    ], ids=["xtype", "matrix", "repeated"])
    def test_params_that_would_be_dropped_are_usage_errors(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", message)

    def test_two_specs_rejected(self, capsys):
        code, _, _ = run(capsys, "invariants", "--class", "C1.0",
                         "--xtype", "1,0,0,0,0,0,0,1", "--params", "h1=1")
        assert code == 2


class TestLinkpolyCommand:
    def test_class1_value(self, capsys):
        code, report = run_json(
            capsys, "linkpoly", "--recipe", "C1.I",
            "--params", "h1=1,h4=2,h5=2", "--word", "s1^2",
        )
        assert code == 0
        assert report["value"] == [10.0, 0.0]
        assert report["writhe"] == 2
        assert report["strands"] == 2

    def test_class7_three_strand_closed_form(self, capsys):
        # h1=1, h3=2: lam ratio -1/3, so L(s1^2 s2^2) = 2 (10/9)^2 = 200/81
        code, report = run_json(
            capsys, "linkpoly", "--recipe", "C7.I",
            "--params", "h1=1,h2=1,h3=2", "--word", "s1^2 s2^2",
        )
        assert code == 0
        assert abs(report["value"][0] - 200 / 81) < 1e-9
        assert abs(report["value"][1]) < 1e-9
        assert report["strands"] == 3

    def test_class3_vanishes(self, capsys):
        code, report = run_json(
            capsys, "linkpoly", "--recipe", "C3.Z",
            "--params", "h1=1,h7=2,h8=3", "--word", "s1^5",
        )
        assert code == 0
        assert abs(report["value"][0]) < 1e-9 and abs(report["value"][1]) < 1e-9

    def test_unknown_recipe(self, capsys):
        code, _, _ = run(capsys, "linkpoly", "--recipe", "C1.X", "--word", "s1^2")
        assert code == 2

    def test_missing_recipe_params(self, capsys):
        code, _, _ = run(capsys, "linkpoly", "--recipe", "C1.I",
                         "--params", "h1=1", "--word", "s1^2")
        assert code == 2

    def test_undefined_recipe_point_is_domain_error(self, capsys):
        # C4.mu5 divides by 2 h1 - h6, which vanishes here
        code, out, err = run(capsys, "linkpoly", "--recipe", "C4.mu5",
                             "--params", "h1=1,h4=1,h6=2", "--word", "s1")
        assert code == 3
        assert out == ""
        assert err.startswith("error: C4.mu5") and err.count("\n") == 1

    def test_strand_bound_is_usage_error(self, capsys):
        # the full twist on 14 strands would hold more than 2^25 entries at
        # once; it is refused before anything is allocated
        twist = " ".join(f"s{g}" for _ in range(14) for g in range(1, 14))
        code, out, err, peak = run_traced(
            capsys, "linkpoly", "--recipe", "C1.I", "--params", "h1=1,h4=2,h5=2",
            "--word", twist,
        )
        assert code == 2 and out == ""
        assert err.startswith("error: contracting this 14-strand") and err.count("\n") == 1
        assert "at once, above the limit of 2^25" in err
        assert peak < 2**20

    def test_many_strands_are_not_refused(self, capsys):
        # 40 strands, 38 of them untouched: (tr mu / y)^39 = 2^39 for C1.I
        code, report = run_json(
            capsys, "linkpoly", "--recipe", "C1.I", "--params", "h1=1,h4=2,h5=2",
            "--word", "s1", "--strands", "40",
        )
        assert code == 0 and report["value"] == [2.0**39, 0.0]

    def test_overflowing_value_is_usage_error(self, capsys):
        code, out, err = run(capsys, "linkpoly", "--recipe", "C7.I",
                             "--params", "h1=0.5,h2=1,h3=0.2", "--word", "s1",
                             "--strands", "100000")
        assert code == 2 and out == ""
        assert err.startswith("error: the link value") and err.count("\n") == 1

    @pytest.mark.parametrize("recipe,params", [("C6.mu2", "h1=1,h2=1,h8=1"),
                                               ("C12.mu2", "h1=0,h2=1")])
    def test_undefined_recipe_point_warns_nothing(self, capsys, recipe, params):
        # the recipes' square roots are Python complex values, so a division
        # by zero raises at once instead of warning and going on with nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "linkpoly", "--recipe", recipe,
                                 "--params", params, "--word", "s1")
        assert code == 3 and out == ""
        assert err.startswith(f"error: {recipe} is undefined") and err.count("\n") == 1

    @pytest.mark.parametrize("word", ["s1^", "s^2", "sx"])
    def test_bad_token_is_named(self, capsys, word):
        code, out, err = run(capsys, "linkpoly", "--recipe", "C1.I", "--params",
                             "h1=1,h4=2,h5=2", "--word", word)
        assert code == 2 and out == ""
        assert err == f"error: bad braid token {word!r}\n"

    @pytest.mark.parametrize("word", ["s0", "s0^2"])
    def test_generator_zero_is_named(self, capsys, word):
        # an inferred strand count is at least 2, so s0 is named as out of
        # range, as it is with --strands, not taken for a one-strand word
        code, out, err = run(capsys, "linkpoly", "--recipe", "C1.I", "--params",
                             "h1=1,h4=2,h5=2", "--word", word)
        assert code == 2 and out == ""
        assert err == "error: generator s0 out of range for 2 strands\n"

    def test_help_names_planned_bound(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["linkpoly", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "2^25 entries at once" in out and "2^28 terms in one step" in out


class TestEpowerCommand:
    BELL = ("0.7071067811865476,0.7071067811865476,0.7071067811865476,"
            "0.7071067811865476,-0.7071067811865476,0.7071067811865476,"
            "-0.7071067811865476,0.7071067811865476")

    def test_bell(self, capsys):
        code, report = run_json(capsys, "epower", "--xtype", self.BELL)
        assert code == 0
        assert abs(report["closed"] - 1 / 9) < 1e-10
        assert abs(report["entangling_power"] - 1 / 9) < 1e-10
        assert report["difference"] < 1e-10

    def test_swap(self, capsys):
        code, report = run_json(capsys, "epower", "--xtype", "1,0,0,1,1,0,0,1")
        assert code == 0
        assert report["closed"] < 1e-14

    def test_hietarinta_h13(self, capsys):
        code, report = run_json(
            capsys, "epower", "--hietarinta", "H1,3", "--params", "k=1,p=1,q=0"
        )
        assert code == 0
        assert abs(report["entangling_power"] - 1 / 9) < 1e-9

    def test_non_xtype_reports_exact_value(self, capsys):
        code, report = run_json(
            capsys, "epower", "--hietarinta", "H2,3", "--params", "k=1,p=1,q=2,s=0"
        )
        assert code == 0
        assert "closed" not in report and "difference" not in report
        r = hietarinta_assemble("H2,3", {"k": 1, "p": 1, "q": 2, "s": 0})
        quad = entangling_power_quadrature(r)
        assert abs(report["entangling_power"] - quad) < 1e-12 * np.linalg.norm(r) ** 4 / 36

    @pytest.mark.parametrize("flag", [["--nodes", "16"], ["--mc", "1000"], ["--closed-only"]],
                             ids=["nodes", "mc", "closed-only"])
    def test_quadrature_flags_are_gone(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["epower", "--xtype", "1,0,0,1,1,0,0,1", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("xtype", [
        "223.4,156.7+8i,99.1,23.5,144,13.3-2i,97.7,199",
        "1000,2000,3000,4000,5000,6000,7000,8100",
    ])
    def test_large_norm_judged_against_scale(self, capsys, xtype):
        code, report = run_json(capsys, "epower", "--xtype", xtype)
        assert code == 0
        h = np.array(report["operator"]["xtype"])  # [re, im] rows
        assert report["scale"] == pytest.approx(np.sum(h**2) ** 2 / 36, rel=1e-12)
        assert report["difference"] <= 1e-9 * report["scale"]

    def test_off_pattern_disagreement_fails(self, capsys):
        # every entry lies within --tol of zero, but the off-pattern entries
        # are as large as the rest: judged against max|R|, the matrix is not
        # X-type, so no closed form is reported to disagree with the exact value
        rows = "[[1,1,1,1],[1,2,1,1],[1,1,3,1],[1,1,1,4]]"
        matrix = json.dumps((np.array(json.loads(rows)) * 1e-3).tolist())
        code, report = run_json(capsys, "epower", "--tol", "1e-3", "--matrix", matrix)
        assert code == 0
        assert "closed" not in report

    def test_xtype_detection_uses_tol(self, capsys):
        code, report = run_json(capsys, "epower", "--tol", "1e-3", "--matrix", NEAR_X)
        assert code == 0
        assert report["closed"] == 4 / 9
        assert report["difference"] < 1e-3
        code, report = run_json(capsys, "epower", "--matrix", NEAR_X)
        assert code == 0 and "closed" not in report


class TestClassifyCommand:
    @pytest.mark.parametrize(
        "entry,family",
        [("C1.0", "H3,1"), ("C2.0", "H1,4"), ("C12.0", "H1,1")],
    )
    def test_families(self, capsys, entry, family):
        code, report = run_json(capsys, "classify", "--class", entry)
        assert code == 0
        assert report["family"] == family

    def test_unknown_is_flagged(self, capsys):
        code, _, _ = run(capsys, "classify", "--class", "C99.0")
        assert code == 2  # unknown id is a spec error

    def test_recipe_residual(self, capsys):
        code, report = run_json(capsys, "classify", "--class", "C6.0",
                                "--params", "h1=1,h2=1,h8=2")
        assert code == 0
        assert report["recipe_residual"] < 1e-12
        # the scale is max|target|, here C6.0's h7 = (h1 + h8)^2 / (4 h2)
        assert report["recipe_scale"] == 2.25 and report["recipe_pass"] is True

    def test_failing_recipe_is_exit_1(self, capsys, monkeypatch):
        # C6.0 read as its own source with h1 and h8 swapped is not C6.0
        wrong = hietarinta.EquivalenceRecipe("C6.0", "C6.0", ("h1", "h2", "h8"),
                                             target_params={"h1": "h8", "h2": "h2", "h8": "h1"})
        monkeypatch.setattr(hietarinta, "RECIPE_TABLE", (wrong,))
        code, report = run_json(capsys, "classify", "--class", "C6.0",
                                "--params", "h1=1,h2=1,h8=2")
        assert code == 1 and report["recipe_pass"] is False
        assert report["recipe_residual"] > 1e-9 * report["recipe_scale"]

    @pytest.mark.parametrize("params,named", [
        ("h1=1", "missing ['h2', 'h8']"),
        ("h1=1,h2=1,h8=2,sqrt=1", "unknown ['sqrt']"),
    ])
    def test_recipe_params_checked(self, capsys, params, named):
        code, out, err = run(capsys, "classify", "--class", "C6.0", "--params", params)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and named in err and err.count("\n") == 1


class TestEnhanceCommand:
    def test_starts_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enhance", "--class", "C2.0", "--params", "h2=1,h3=2,h7=3", "--starts", "20"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --starts 20" in capsys.readouterr().err

    def test_imaginary_x_is_one_family(self, capsys):
        # C11.0's one family has x = 2i; rounding in Re x must not split it
        # into (x, y) and (-x, -y)
        code, report = run_json(capsys, "enhance", "--class", "C11.0",
                                "--params", "h7=1,h8=2")
        assert code == 0 and report["count"] == 1

    def test_start_outcomes_reported(self, capsys):
        # one record per root of the exact enumeration, which replaced the starts
        code, report = run_json(capsys, "enhance", "--class", "C6.0",
                                "--params", "h1=1,h8=2,h2=1")
        assert code == 0
        points = report["points"]
        assert len(points) == report["nullity"] == 5
        assert all(set(p) == {"mu", "lambda", "nu", "multiplicity", "outcome", "residuals",
                              "scales"} for p in points)
        assert sum(p["multiplicity"] for p in points) == report["nullity"]
        outcomes = [p["outcome"] for p in points]
        assert set(outcomes) <= set(POINT_OUTCOMES)
        assert outcomes.count("family") == report["count"] == len(report["families"]) == 5
        # every checked point's verdict can be read off its residuals and scales
        for p in points:
            passed = all(r < report["tolerance"] * s for r, s in zip(p["residuals"], p["scales"]))
            assert passed == (p["outcome"] == "family")

    @pytest.mark.parametrize("argv", [
        ("--class", "C6.0", "--params", "h1=1,h8=2,h2=1"),
        ("--class", "C3.0", "--params", "h1=1,h7=2,h8=3"),
        ("--class", "C12.0", "--params", "h1=1,h2=2"),
    ], ids=["C6.0", "C3.0", "C12.0"])
    def test_family_mu_is_its_point_mu(self, capsys, argv):
        # families[].mu is mu_coeffs() of the quadruple made from its point's
        # coefficients, X and Y parts included
        code, report = run_json(capsys, "enhance", *argv)
        found = [p for p in report["points"] if p["outcome"] == "family"]
        assert code == 0 and len(found) == report["count"] > 1
        for family, point in zip(report["families"], found):
            got, want = (np.array(v) @ [1, 1j] for v in (family["mu"], point["mu"]))
            assert np.abs(got - want).max() <= 1e-12

    def test_degenerate_points_are_not_checked(self, capsys):
        code, report = run_json(capsys, "enhance", "--class", "C9.2", "--params", "h1=1,h7=2")
        assert code == 0
        assert [p["outcome"] for p in report["points"]].count("degenerate") == 1
        for p in report["points"]:
            assert (p["residuals"] is None) == (p["scales"] is None) == (p["outcome"] == "degenerate")

    def test_tolerance_below_rounding_rejects_every_root(self, capsys):
        # at 1e-17 only exact-zero residuals pass, so each of C6.0's five
        # roots is found and then fails verify_enhancement
        code, report = run_json(capsys, "enhance", "--class", "C6.0",
                                "--params", "h1=1,h8=2,h2=1", "--tol", "1e-17")
        assert code == 0
        assert report["count"] == 0 and report["families"] == []
        assert report["nullity"] == 5
        assert [p["outcome"] for p in report["points"]] == ["rejected_verification"] * 5

    def test_dense_operator_has_no_roots(self, capsys):
        rng = np.random.default_rng(0)
        r = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        matrix = json.dumps(np.stack([r.real, r.imag], axis=-1).tolist())
        code, report = run_json(capsys, "enhance", "--matrix", matrix)
        assert code == 0
        assert report["count"] == report["nullity"] == 0
        assert report["families"] == report["points"] == []

    def test_text_lists_each_record(self, capsys):
        code, out, _ = run(capsys, "enhance", "--class", "C11.0", "--params", "h7=1,h8=2")
        assert code == 0
        lines = out.splitlines()
        # one family and two root records, the second a double root, each
        # followed by a blank line
        assert lines.count("families:") == lines.count("points:") == 1
        assert lines.count("") == 3
        assert [ln for ln in lines if ln.startswith("  outcome: ")] == [
            "  outcome: family", "  outcome: degenerate"]
        assert [ln for ln in lines if ln.startswith("  multiplicity: ")] == [
            "  multiplicity: 1", "  multiplicity: 2"]

    def test_small_operator_is_not_singular(self, capsys):
        # 1e-3 times the operator above: |det| is 1e-12 smaller, the
        # condition number the same
        code, report = run_json(capsys, "enhance", "--class", "C6.0",
                                "--params", "h1=1e-3,h8=2e-3,h2=1e-3")
        assert code == 0 and report["count"] == 5

    @pytest.mark.parametrize("scale", ("1e-300", "1", "1e160", "1e300"))
    def test_scaled_operator_keeps_its_families(self, capsys, scale):
        # the solver's scale is sqrt(max|R|) / sqrt(max|R^-1|): the ratio
        # under one root overflowed at 1e160 and refused the operator
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, report = run_json(capsys, "enhance", "--class", "C10.1",
                                    "--params", f"h1={scale},h2={scale}")
        assert code == 0 and report["count"] == 3

    def test_double_roots_are_not_split(self, capsys):
        # class 10 has three recipes; two of these roots are double
        code, report = run_json(
            capsys, "enhance", "--class", "C10.1", "--params",
            "h1=-0.009371273325325004+0.598379178802324j,"
            "h2=0.4824090158347269+0.15585777321063388j")
        assert code == 0 and report["count"] == 3
        points = report["points"]
        assert [p["outcome"] for p in points] == ["family"] * 3
        assert sorted(p["multiplicity"] for p in points) == [1, 2, 2]
        assert report["nullity"] == 5

    def test_ill_conditioned_operator_has_five_families(self, capsys):
        # condition number 5.9e6: four of the five families have |lambda|
        # far below the other roots', and none is taken for degenerate
        code, report = run_json(
            capsys, "enhance", "--class", "C6.0", "--params",
            "h1=1.7542572626457837-1.1579199401531195j,"
            "h2=-0.16029849480925135-0.00679052399149432j,"
            "h8=1.7415135206979793-1.1392194199075927j")
        assert code == 0 and report["count"] == 5

    def test_jordan_cluster_is_one_degenerate_point(self, capsys):
        code, report = run_json(capsys, "enhance", "--class", "C9.2",
                                "--params", "h1=1,h7=2")
        assert code == 0 and report["count"] == 1 and report["nullity"] == 6
        assert sorted((p["multiplicity"], p["outcome"]) for p in report["points"]) == [
            (1, "family"), (5, "degenerate")]

    def test_positive_dimensional_is_refused(self, capsys):
        # for R = I every mu with tr mu = x y is an enhancement; diag(1, 2, 2, 1)
        # has a curve of roots
        for r, degree3, degree4 in ((np.eye(4), 20, 35), (np.diag([1, 2, 2, 1]), 7, 8)):
            code, out, err = run(capsys, "enhance", "--matrix", json.dumps(r.tolist()), "--json")
            assert code == 2 and out == ""
            assert err.startswith("error: ") and "positive-dimensional" in err
            assert f"nullity {degree3} at degree 3, {degree4} at degree 4" in err
            assert err.count("\n") == 1


@pytest.mark.parametrize("argv,code", [
    (("verify", "--class", "C6.0", "--params", "h1=1,h8=2,h2=1"), 0),
    # a valid operator at any scale: no absolute guard on h2 refuses it
    (("verify", "--class", "C6.0", "--params", "h1=1e-13,h8=2e-13,h2=1e-13"), 0),
    (("verify", "--xtype", "1,1,1,1,1,1,1,1"), 1),
    (("verify", "--class", "C6.0", "--params", "h1=1,h8=2"), 2),
    (("verify", "--class", "C6.0", "--params", "h1=1,h8=1,h2=0"), 3),
    (("enhance", "--matrix", json.dumps(np.diag([1, 1, 1, 0]).tolist())), 3),
    (("linkpoly", "--recipe", "C4.mu5", "--params", "h1=1,h4=1,h6=2", "--word", "s1"), 3),
], ids=["pass", "pass-scaled-down", "check-failed", "missing-param", "inadmissible",
        "singular", "invalid-enhancement"])
def test_exit_codes(capsys, argv, code):
    # 0 pass, 1 a failed check, 2 a usage error, 3 a singular or inadmissible
    # operator or an invalid enhancement; every error is one line
    got, out, err = run(capsys, *argv, "--json")
    assert got == code
    if code >= 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("fmt", [(), ("--json",)], ids=["text", "json"])
def test_closed_stdout_is_exit_1_without_traceback(fmt):
    # the read end of the pipe is closed before the command writes
    env = dict(os.environ, PYTHONPATH=str(Path(braidgate.__file__).parents[1]))
    read, write = os.pipe()
    os.close(read)
    try:
        run = subprocess.run([sys.executable, "-m", "braidgate.cli", "catalog", "--class", "3",
                              *fmt], stdout=write, stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(write)
    assert run.returncode == 1 and run.stderr == ""


def test_help_lists_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "exit codes: 0 pass, 1 check failed, 2 usage error, 3 singular or inadmissible" in out


@pytest.mark.parametrize("argv,message", [
    (("classify", "--class", "C99.0"), "error: unknown catalog id 'C99.0'; known: C1.0 .. C12.1\n"),
    (("epower", "--hietarinta", "H9,9"), "error: unknown family 'H9,9'; known: ['H0,1', "),
], ids=["classify", "epower"])
def test_unknown_name_is_printed_plainly(capsys, argv, message):
    # a KeyError's message is printed as it is, not as its repr
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(message) and err.count("\n") == 1 and "\\" not in err


C1_LARGE = ("--class", "C1.0", "--params", "h1=1e200,h4=1,h5=1,h8=1")


@pytest.mark.parametrize("argv", [
    ("verify", "--class", "C6.0", "--params", "h1=1e308,h8=2,h2=1"),
    ("verify", *C1_LARGE),
    ("invariants", *C1_LARGE),
    ("epower", *C1_LARGE, "--json"),
    # inf - inf inside the exact entangling power, not an overflow of one product
    ("epower", "--matrix", "[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1e308]]"),
], ids=["verify-fill", "verify-checks", "invariants", "epower", "epower-invalid"])
def test_overflow_is_one_error_line(capsys, argv):
    # no traceback, no numpy warning, and no inf or NaN residual that a
    # verdict compares
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: this input overflows a float64") and err.count("\n") == 1


@pytest.mark.parametrize("argv, code, message", [
    # C3.mu2 and C3.mu3 give y = 0 here: not an enhancement, as x = 0 is not
    (("linkpoly", "--recipe", "C3.mu3", "--params", "h1=1,h7=1,h8=1", "--word", "s1^-5"),
     3, "error: an enhancement needs y != 0"),
    (("linkpoly", "--recipe", "C3.mu2", "--params", "h1=1,h7=1,h8=1", "--word", "s1^-5"),
     3, "error: an enhancement needs y != 0"),
    # x and y near 1e-150: x^-writhe y^-n underflows in its intermediate powers
    (("linkpoly", "--recipe", "C10.mu2", "--params", "h1=1e-150,h7=1e-150",
      "--word", "s2^3 s1"),
     2, "error: the link value of this 3-strand word leaves the float64 range"),
    # every entry of R^-1 is below the float64 range, so R has no solver scale
    (("enhance", "--class", "C10.1", "--params", "h1=[1e308,1e308],h2=1e-8"),
     2, "error: R^-1 underflows a float64"),
    (("enhance", "--class", "C9.2", "--params", "h1=[1e308,1e308],h7=1e-8"),
     2, "error: R^-1 underflows a float64"),
], ids=["zero-y-mu3", "zero-y-mu2", "prefactor-underflow", "solver-c10", "solver-c9"])
def test_out_of_range_scalar_is_one_error_line(capsys, argv, code, message):
    # each raised ZeroDivisionError with a traceback before
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run(capsys, *argv)
    assert got == code and out == ""
    assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("verify", "--xtype", "1,0,0,1,1,0,0,1", "--seed", "7"),
    ("enhance", "--class", "C11.0", "--params", "h7=1,h8=2", "--seed", "7"),
    ("catalog", "--tol", "1e-3"),
    ("classify", "--class", "C12.0", "--tol", "1e-3"),
    ("report-all", "--json"),
    ("report-all", "--csv"),
], ids=["verify-seed", "enhance-seed", "catalog-tol", "classify-tol", "report-json",
        "report-csv"])
def test_inert_flags_are_gone(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestOrbitCommand:
    def test_generic_rank(self, capsys):
        code, report = run_json(capsys, "orbit", "--xtype", "1,2,3,4,5,6,7,8")
        assert code == 0
        assert report["rank"] == 6
        assert report["generators"]["Z1"]["preserves_xtype"]
        assert not report["generators"]["X1"]["preserves_xtype"]


class TestDeterminism:
    def test_identical_json_reruns(self, capsys):
        argv = ["enhance", "--class", "C11.0", "--params", "h7=1,h8=2", "--json"]
        code1 = main(argv)
        out1 = capsys.readouterr().out
        code2 = main(argv)
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2

    def test_env_tolerance(self, capsys, monkeypatch):
        monkeypatch.setenv("BRAIDGATE_TOL", "1e-2")
        code, report = run_json(capsys, "verify", "--xtype", "1,0,0,1,1,0,0,1")
        assert code == 0
        assert report["tolerance"] == 1e-2

    def test_env_tolerance_reaches_every_check(self, capsys, monkeypatch):
        argv = ("verify", "--class", "C6.0", "--params", "h1=1,h8=2,h2=1", "--enhancements")
        flagged = run(capsys, *argv, "--tol", "1e-2", "--json")[1]
        monkeypatch.setenv("BRAIDGATE_TOL", "1e-2")
        assert run(capsys, *argv, "--json")[1] == flagged

    def test_malformed_env_tolerance_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("BRAIDGATE_TOL", "abc")
        code, out, err = run(capsys, "verify", "--xtype", "1,0,0,1,1,0,0,1")
        assert code == 2
        assert out == ""
        assert err == "error: BRAIDGATE_TOL must be a number, got 'abc'\n"
        # an explicit --tol does not need the variable
        code, _, _ = run(capsys, "verify", "--xtype", "1,0,0,1,1,0,0,1", "--tol", "1e-9")
        assert code == 0

    @pytest.mark.parametrize("source", ["flag", "env"])
    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf", "1"])
    def test_meaningless_tolerance_is_usage_error(self, capsys, monkeypatch, tol, source):
        # at tol <= 0 every check fails and at tol >= 1 the X-type closed form
        # of a dense operator passes; a NaN fails every comparison
        argv = ["epower", "--matrix", "[[1,2,3,4],[5,6,7,8],[9,1,2,3],[4,5,6,7]]", "--json"]
        if source == "flag":
            argv += ["--tol", tol]
        else:
            monkeypatch.setenv("BRAIDGATE_TOL", tol)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: the tolerance must lie strictly between 0 and 1, got {float(tol)!r}\n"

    def test_empty_env_tolerance_means_default(self, capsys, monkeypatch):
        monkeypatch.setenv("BRAIDGATE_TOL", "")
        code, report = run_json(capsys, "verify", "--xtype", "1,0,0,1,1,0,0,1")
        assert code == 0
        assert report["tolerance"] == 1e-9


class TestReportAll(object):
    def test_writes_golden_file(self, capsys, tmp_path):
        code, out, _ = run(capsys, "report-all", "--outdir", str(tmp_path), "--seed", "3")
        assert code == 0
        blob = json.loads((tmp_path / "catalog_report.json").read_text())
        assert len(blob["entries"]) == 38
        assert all(v["ybe_pass"] for v in blob["entries"].values())
        written = []
        for run_dir in ("first", "second"):
            outdir = tmp_path / run_dir
            code, _, _ = run(capsys, "report-all", "--outdir", str(outdir), "--seed", "0")
            assert code == 0
            written.append((outdir / "catalog_report.json").read_bytes())
        assert written[0] == written[1]

    def test_failed_epower_formula_fails_the_run(self, capsys, tmp_path, monkeypatch):
        # a per-class entangling-power formula that disagrees with the closed
        # form is a failed check: exit 1, with the report still written
        monkeypatch.setitem(entangling_power._CLASS_EPOWER, 3,
                            entangling_power._CLASS_EPOWER[3] + "+1")
        code, out, _ = run(capsys, "report-all", "--outdir", str(tmp_path), "--seed", "0")
        assert code == 1 and out == f"wrote {tmp_path / 'catalog_report.json'}\n"
        entries = json.loads((tmp_path / "catalog_report.json").read_text())["entries"]
        assert abs(entries["C3.0"]["epower"]["difference"] - 1) < 1e-9
        assert all(v["ybe_pass"] and v["eigen_report_pass"] for v in entries.values())

    def test_blocked_output_path_is_usage_error(self, capsys, tmp_path):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        (tmp_path / "dir" / "catalog_report.json").mkdir(parents=True)
        for outdir, blocked, reason in (
                (blocker, blocker, "File exists"),
                (blocker / "sub", blocker / "sub", "Not a directory"),
                (tmp_path / "dir", tmp_path / "dir" / "catalog_report.json", "Is a directory")):
            code, out, err = run(capsys, "report-all", "--outdir", str(outdir))
            assert code == 2 and out == ""
            assert err == f"error: cannot write {blocked}: {reason}\n"
