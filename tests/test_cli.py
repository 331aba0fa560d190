"""End-to-end tests of the ``legendrian-lab`` command-line driver (in-process)."""

import json
import math
import os
import pathlib
import re
import resource
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import CONTROL
from legendrian_lab import ambient, cli, exprlang, geometry, operators, surfaces

CALABI_TWIN_EXPR = """\
# flat-torus family written out as an expression surface
f1 = r1*r3*exp(i*((r2/r1)*x + (r4/r3)*y))
f2 = r1*r4*exp(i*((r2/r1)*x - (r3/r4)*y))
f3 = r2*exp(-i*(r1/r2)*x)
params = r1=0.8, r2=0.6, r3=0.6, r4=0.8
periodic = true, true
"""

#: F = (cos y * gamma(x), sin y) with gamma a Legendrian curve in S^3:
#: Legendrian, but neither csL nor csL-Willmore.
CONTROL_EXPR = """\
f1 = cos(y)*cos(x)*exp(i*(x/2 - sin(2*x)/4))
f2 = cos(y)*sin(x)*exp(-i*(x/2 + sin(2*x)/4))
f3 = sin(y)
periodic = true, false
y_range = -1.2, 1.2
"""


def _run_json(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_verify_calabi_json_passes(capsys):
    rc, payload = _run_json(
        capsys, ["verify", "--surface", "calabi", "--grid", "8x8", "--format", "json"]
    )
    assert rc == 0
    assert payload["schema_version"] == 1
    assert payload["command"] == "verify"
    assert payload["surface"] == "calabi"
    assert payload["grid"] == [8, 8]
    assert payload["aggregates"]["all_pass"] is True
    assert payload["aggregates"]["n_failed"] == 0
    by_name = {row["name"]: row for row in payload["checks"]}
    for row in payload["checks"]:
        assert set(row) == {"name", "paper_ref", "value", "tolerance", "status"}
    assert by_name["csl_willmore_residual"]["value"] < 1e-6
    assert by_name["legendrian_defect"]["value"] < 1e-12
    assert "8x8" in payload["descriptor"]


def test_verify_mironov_with_parameter_overrides(capsys):
    rc, payload = _run_json(
        capsys,
        [
            "verify",
            "--surface",
            "mironov",
            "--params",
            "a=1,b=2,c=1",
            "--grid",
            "8x8",
            "--format",
            "json",
        ],
    )
    assert rc == 0
    assert payload["params"] == {"a": 1.0, "b": 2.0, "c": 1.0}
    assert payload["aggregates"]["all_pass"] is True


def test_verify_text_format_smoke(capsys):
    rc = cli.main(["verify", "--surface", "calabi", "--grid", "8x8"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "legendrian-lab verify" in out
    assert "result: PASS" in out


@pytest.mark.parametrize("command", ["verify", "classify", "energy", "table"])
def test_the_text_report_prints_the_json_report_values(capsys, command):
    # Every number the text prints is the JSON value of the same run, in the text's format.
    argv = [command, "--surface", "mironov", "--grid", "8x8"]
    rc, payload = _run_json(capsys, [*argv, "--format", "json"])
    assert cli.main(argv) == rc
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        f"legendrian-lab {command} -- mironov(a=1, b=2, c=1)",
        "grid 8x8, seed 0, workers 1, tolerance scale 1",
    ]
    rows = payload["checks"]
    names = [row["name"] for row in rows]
    families = ("grid", "identity") if command == "verify" else (command,)
    registry = [c.name for family in families for c in operators.checks_in(family)]
    if command == "table":
        assert names == [row["name"] for row in payload["table"]]
        registry = [name for name in registry if name in names]
    assert names == registry
    if command == "classify":
        assert {row["status"] for row in rows} == {"yes", "no"}
        assert lines[2:] == [
            f"  {r['name']:<22} {r['status']:<3} ({r['paper_ref']} = {r['value']:.5e}, "
            f"threshold {r['tolerance']:.1e})"
            for r in rows
        ]
        return
    body, check_lines, result = lines[2 : -len(rows) - 1], lines[-len(rows) - 1 : -1], lines[-1]
    for line, r in zip(check_lines, rows):
        assert line.startswith(
            f"[{r['status']:^4}] {r['name']:<28} value={r['value']:12.5e} tol={r['tolerance']:8.1e}"
        )
        assert line.endswith(f"  {r['paper_ref']}")
    agg = payload["aggregates"]
    assert result == (
        f"result: {'PASS' if agg['all_pass'] else 'FAIL'} ({agg['n_checks']} checks, "
        f"{agg['n_failed']} failed, {agg['n_skipped']} skipped)"
    )
    if command == "verify":
        assert {row["status"] for row in rows} == {"PASS", "SKIP"}
        assert body == [payload["descriptor"]]
    elif command == "energy":
        q = payload["quantities"]
        assert [row["status"] for row in rows] == ["FAIL"]
        assert body == [
            f"area   = {q['area']!r}",
            f"energy = {q['energy']!r}",
            f"refined (16x16): area = {q['area_refined']!r}, energy = {q['energy_refined']!r}",
        ]
    else:
        assert body == ["representative point: (x, y) = (0, 0)"] + [
            line
            for row, check in zip(payload["table"], rows)
            for line in (
                f"  {row['name']}:",
                f"    closed form: {row['closed_form']}",
                f"    computed:    {row['computed']}",
                f"    grid-max deviation: {check['value']:.5e}",
            )
        ]


def test_tolerance_scale_environment_variable_fails_the_run(capsys, monkeypatch):
    monkeypatch.setenv("LEGLAB_TOLERANCE_SCALE", "1e-6")
    rc, payload = _run_json(
        capsys, ["verify", "--surface", "calabi", "--grid", "8x8", "--format", "json"]
    )
    assert rc == 1
    assert payload["tolerance_scale"] == 1e-6
    assert payload["aggregates"]["n_failed"] >= 1


def test_negative_tolerance_scale_is_a_configuration_error(capsys, monkeypatch):
    monkeypatch.setenv("LEGLAB_TOLERANCE_SCALE", "-1")
    rc = cli.main(["verify", "--surface", "calabi", "--grid", "8x8"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error:" in err


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_tolerance_scale_is_a_configuration_error(capsys, monkeypatch, value):
    monkeypatch.setenv("LEGLAB_TOLERANCE_SCALE", value)
    rc = cli.main(["verify", "--surface", "calabi", "--grid", "8x8", "--format", "json"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "ERR_VALIDATION" in captured.err and "finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "body",
    ["csl_residual = inf", "csl_residual = nan", "scale = 10\ncsl_residual = 1e308"],
    ids=["inf", "nan", "overflow"],
)
def test_non_finite_tolerance_override_is_a_configuration_error(capsys, tmp_path, body):
    cfg = tmp_path / "loose.cfg"
    cfg.write_text(f"[tolerances]\n{body}\n")
    rc = cli.main(["verify", "--surface", "calabi", "--grid", "8x8", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "[tolerances] csl_residual" in err and "finite" in err


def test_tolerance_override_section_can_fail_a_check(capsys, tmp_path):
    cfg = tmp_path / "strict.cfg"
    cfg.write_text("[tolerances]\ncsl_residual = 1e-30\n")
    rc, payload = _run_json(
        capsys,
        ["verify", "--surface", "calabi", "--grid", "8x8", "--config", str(cfg), "--format", "json"],
    )
    assert rc == 1
    by_name = {row["name"]: row for row in payload["checks"]}
    assert by_name["csl_residual"]["status"] == "FAIL"
    assert by_name["csl_residual"]["tolerance"] == 1e-30


def test_one_override_sets_both_legendrian_defect_rows(capsys, tmp_path):
    cfg = tmp_path / "strict.cfg"
    cfg.write_text("[tolerances]\nlegendrian_defect = 1e-30\n")
    rc, payload = _run_json(
        capsys,
        ["verify", "--surface", "calabi", "--grid", "8x8", "--config", str(cfg), "--format", "json"],
    )
    assert rc == 1
    rows = [row for row in payload["checks"] if row["name"] == "legendrian_defect"]
    assert [(row["tolerance"], row["status"]) for row in rows] == [(1e-30, "FAIL")] * 2
    assert payload["aggregates"]["n_failed"] == 2


def test_unknown_tolerance_name_is_a_configuration_error(capsys, tmp_path):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("[tolerances]\ncsl_residul = 1e-30\n")
    rc = cli.main(["verify", "--surface", "calabi", "--grid", "8x8", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "ERR_VALIDATION" in captured.err and "csl_residul" in captured.err
    assert captured.out == ""


def test_the_removed_agreement_check_is_an_unknown_tolerance_name(capsys, tmp_path):
    # csl_willmore_agreement compared two forms of one derivation and is gone;
    # a config that still sets it exits 2 like any other unknown name.
    cfg = tmp_path / "old.cfg"
    cfg.write_text("[tolerances]\ncsl_willmore_agreement = 1e-4\n")
    rc = cli.main(["verify", "--surface", "calabi", "--grid", "8x8", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "[tolerances] csl_willmore_agreement: no check has this name" in captured.err


def test_tolerances_resolve_to_override_or_default_times_scale(capsys, tmp_path):
    # Every command judges its rows against the run's resolved registry: the
    # override (or the registry default) times the scale, status by value < tolerance.
    overrides = {"legendrian_defect": 1e-30, "minimal": 1e-30, "metric": 1e-9,
                 "quadrature_doubling": 1e-30}
    cfg = tmp_path / "scaled.cfg"
    cfg.write_text(
        "[tolerances]\nscale = 1e3\n" + "".join(f"{k} = {v!r}\n" for k, v in overrides.items())
    )
    defaults = {row.name: row.tolerance for row in operators.CHECKS}
    verdict = {"verify": ("PASS", "FAIL"), "classify": ("yes", "no")}
    for argv in (
        ["verify", "--surface", "calabi", "--grid", "6x6"],
        ["classify", "--surface", "calabi", "--grid", "6x6"],
        ["table", "--surface", "calabi", "--grid", "6x6"],
        ["energy", "--surface", "calabi", "--grid", "8x8"],
    ):
        _, payload = _run_json(capsys, argv + ["--config", str(cfg), "--format", "json"])
        yes, no = verdict.get(argv[0], verdict["verify"])
        assert payload["tolerance_scale"] == 1e3
        for row in payload["checks"]:
            expected = overrides.get(row["name"], defaults[row["name"]]) * 1e3
            assert row["tolerance"] == expected, (argv[0], row["name"])
            if row["status"] != "SKIP":
                passed = row["value"] < row["tolerance"]
                assert row["status"] == (yes if passed else no), (argv[0], row["name"])
        names = {row["name"] for row in payload["checks"]}
        assert names & set(overrides), argv[0]


def test_every_registry_name_is_a_valid_override_for_every_command(capsys, tmp_path):
    # One config file serves all four commands, and each applies its rows'
    # overrides, mixed-case names such as norm_H_sq included.
    cfg = tmp_path / "all.cfg"
    names = sorted({row.name for row in operators.CHECKS})
    cfg.write_text("[tolerances]\n" + "".join(f"{name} = 1e-30\n" for name in names))
    for argv in (
        ["verify", "--surface", "calabi", "--grid", "6x6"],
        ["classify", "--surface", "calabi", "--grid", "6x6"],
        ["table", "--surface", "calabi", "--grid", "6x6"],
        ["energy", "--surface", "calabi", "--grid", "8x8"],
    ):
        _, payload = _run_json(capsys, argv + ["--config", str(cfg), "--format", "json"])
        assert {row["tolerance"] for row in payload["checks"]} == {1e-30}, argv


def test_classify_labels_and_thresholds(capsys):
    rc, payload = _run_json(
        capsys, ["classify", "--surface", "calabi", "--grid", "6x6", "--format", "json"]
    )
    assert rc == 0
    assert [(row["name"], row["tolerance"]) for row in payload["checks"]] == [
        ("legendrian", 1e-10),
        ("minimal", 1e-8),
        ("csl", 1e-7),
        ("willmore_legendrian", 1e-8),
        ("csl_willmore", 1e-5),
    ]


def test_syntax_error_in_expression_file(capsys, tmp_path):
    bad = tmp_path / "bad.expr"
    bad.write_text("f1 = x + * y\nf2 = x\nf3 = y\n")
    rc = cli.main(["verify", "--expr-file", str(bad), "--grid", "8x8"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "ERR_SYNTAX" in err
    assert "offset 4" in err


@pytest.mark.parametrize(
    "f1, named",
    [
        # A constant divisor is named where it is written: the offset of its "/".
        ("x/(a-a)", "constant divisor a-a has magnitude 0.000e+00 <= 1e-14 at offset 1 on "),
        # A divisor that varies is named at the chart point where it vanishes.
        ("a*(x-1)/(x-1)", "at chart point (x, y) = (1, 0.10000000000000001) on "),
    ],
)
def test_a_zero_divisor_exits_2_naming_where_it_vanishes(capsys, tmp_path, f1, named):
    err = _divide_error(capsys, tmp_path, f1, "0*x")
    assert f"{named}expression(divide.expr)" in err
    assert ("(component f1)" in err) == ("constant" in named)


def test_a_constant_zero_divisor_names_its_component(capsys, tmp_path):
    err = _divide_error(capsys, tmp_path, "0*x", "y/(a-a)")
    assert (
        "constant divisor a-a has magnitude 0.000e+00 <= 1e-14 at offset 1 on "
        "expression(divide.expr) (component f2)"
    ) in err


def _divide_error(capsys, tmp_path, f1, f2):
    """stderr of verify on a definition file whose f1 or f2 divides by zero; exit 2."""
    path = tmp_path / "divide.expr"
    path.write_text(
        f"f1 = {f1}\nf2 = {f2}\nf3 = 0*y\na = 1\n"
        "x_range = 0.5, 1.5\ny_range = 0, 1\nperiodic = false, false\n"
    )
    rc = cli.main(["verify", "--expr-file", str(path), "--grid", "5x5"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "ERR_DIVIDE_BY_ZERO_JET: " in captured.err
    return captured.err


@pytest.mark.parametrize("command", ["verify", "energy"])
def test_a_nan_value_of_F_is_off_the_sphere(capsys, tmp_path, command):
    # exp(800x)*exp(-800x) overflows to inf*0 = NaN for x > 0.89; NaN must
    # fail the unit-norm gate, not print "value": NaN (invalid JSON) or nan.
    path = tmp_path / "nan.expr"
    # numpy's overflow warnings (errors under this suite) must not reach stderr.
    path.write_text(CONTROL_EXPR.replace("f3 = sin(y)", "f3 = sin(y)*exp(800*x)*exp(-800*x)"))
    rc = cli.main([command, "--expr-file", str(path), "--format", "json"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith(
        "error: ERR_NOT_ON_SPHERE: |F| deviates from 1 by nan at chart point"
    )
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "classify", "energy"])
def test_an_overflowing_derivative_of_F_is_not_finite(capsys, tmp_path, command):
    # F's values stay finite on x < 2.36, but the Taylor coefficients
    # 300^n exp(300 x) / n! overflow there: without the gate classify printed
    # "value": NaN (invalid JSON) and energy exited 1 with NaN.
    path = tmp_path / "overflow.expr"
    path.write_text(
        CONTROL_EXPR.replace("f1 = cos(y)", "f1 = exp(300*x)*exp(-300*x)*cos(y)")
        + "x_range = 2.29, 2.36\n"
    )
    rc = cli.main([command, "--expr-file", str(path), "--format", "json"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert re.fullmatch(
        r"error: ERR_NOT_FINITE: F has a non-finite derivative at chart point "
        r"\(x, y\) = \(2\.\d+, -?\d\.\d+\) on expression\(overflow\.expr\)\n",
        captured.err,
    )


def test_a_huge_exponent_is_refused_before_any_evaluation(capsys, tmp_path):
    path = tmp_path / "power.expr"
    path.write_text(CONTROL_EXPR.replace("f3 = sin(y)", "f3 = sin(y)*(x/x)^1000000000"))
    start = time.perf_counter()
    rc = cli.main(["classify", "--expr-file", str(path), "--grid", "4x4"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == (
        "error: ERR_VALIDATION: invalid expression(s): offset 12: exponent above the limit of "
        f"{exprlang.MAX_EXPONENT}\n"
    )
    assert elapsed < 1.0


def test_surface_and_expr_file_flags_conflict(capsys, tmp_path):
    twin = tmp_path / "calabi.expr"
    twin.write_text(CALABI_TWIN_EXPR)
    rc = cli.main(
        ["classify", "--surface", "calabi", "--expr-file", str(twin), "--grid", "6x6"]
    )
    assert rc == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_classify_expression_twin_matches_builtin_verdicts(capsys, tmp_path):
    twin = tmp_path / "calabi.expr"
    twin.write_text(CALABI_TWIN_EXPR)
    rc, payload = _run_json(
        capsys, ["classify", "--expr-file", str(twin), "--grid", "6x6", "--format", "json"]
    )
    assert rc == 0
    assert payload["surface"] == "expression"
    assert payload["aggregates"]["verdicts"] == {
        "legendrian": "yes",
        "minimal": "no",
        "csl": "yes",
        "willmore_legendrian": "no",
        "csl_willmore": "yes",
    }


def test_non_csl_control_fails_exactly_the_csl_family(capsys, tmp_path):
    control = tmp_path / "control.expr"
    control.write_text(CONTROL_EXPR)
    rc, payload = _run_json(capsys, ["verify", "--expr-file", str(control), "--format", "json"])
    assert rc == 1
    failing = {row["name"] for row in payload["checks"] if row["status"] == "FAIL"}
    assert failing == {"csl_residual", "csl_willmore_residual", "obstruction_trace"}
    rc, payload = _run_json(capsys, ["classify", "--expr-file", str(control), "--format", "json"])
    assert rc == 0
    verdicts = payload["aggregates"]["verdicts"]
    assert verdicts["legendrian"] == "yes"
    assert verdicts["csl"] == "no" and verdicts["csl_willmore"] == "no"


#: The positive control: the suspension (cos y * gamma(x), sin y) of the
#: torus-knot curve gamma = (r1 e^{i (r2/r1) x}, r2 e^{-i (r1/r2) x}).  It is
#: csL and csL-Willmore but not minimal (|H| reaches about 1.35).
KNOT_EXPR = """\
f1 = cos(y)*r1*exp(i*(r2/r1)*x)
f2 = cos(y)*r2*exp(-i*(r1/r2)*x)
f3 = sin(y)
params = r1=0.8, r2=0.6
periodic = true, false
y_range = -1.2, 1.2
"""


def test_non_minimal_csl_suspension_passes_verify(capsys, tmp_path):
    knot = tmp_path / "knot.expr"
    knot.write_text(KNOT_EXPR)
    rc, payload = _run_json(capsys, ["verify", "--expr-file", str(knot), "--format", "json"])
    assert rc == 0
    assert payload["aggregates"] == {
        "all_pass": True, "n_checks": 20, "n_failed": 0, "n_skipped": 1
    }
    by_name = {row["name"]: row for row in payload["checks"]}
    assert by_name["csl_willmore_residual"]["value"] < 1e-12
    assert by_name["willmore_implies_minimal"]["status"] == "SKIP"
    rc, payload = _run_json(capsys, ["classify", "--expr-file", str(knot), "--format", "json"])
    assert rc == 0
    verdicts = payload["aggregates"]["verdicts"]
    assert (verdicts["csl"], verdicts["csl_willmore"], verdicts["minimal"]) == ("yes", "yes", "no")


def test_classify_always_exits_zero_even_for_plain_legendrian(capsys):
    rc, payload = _run_json(
        capsys,
        ["classify", "--surface", "mironov", "--params", "a=1,b=2,c=1.5",
         "--grid", "6x6", "--format", "json"],
    )
    assert rc == 0
    verdicts = payload["aggregates"]["verdicts"]
    assert verdicts["legendrian"] == "yes"
    assert verdicts["csl"] == "yes"
    assert verdicts["minimal"] == "no"


def test_classify_minimal_member_is_everything(capsys):
    rc, payload = _run_json(
        capsys,
        ["classify", "--surface", "mironov", "--params", "a=1,b=2,c=3",
         "--grid", "6x6", "--format", "json"],
    )
    assert rc == 0
    assert all(v == "yes" for v in payload["aggregates"]["verdicts"].values())


def test_table_calabi_defaults(capsys):
    rc, payload = _run_json(capsys, ["table", "--surface", "calabi", "--format", "json"])
    assert rc == 0
    assert payload["grid"] == [32, 32]
    rows = {row["name"]: row for row in payload["table"]}
    assert list(rows) == [
        "metric",
        "shape_operator_nu1",
        "shape_operator_nu2",
        "mean_curvature_mu",
        "norm_H_sq",
        "gauss_curvature",
    ]
    g = np.array(rows["metric"]["closed_form"])
    assert np.max(np.abs(g - np.diag([1.0, 0.64]))) < 1e-12
    mu = rows["mean_curvature_mu"]["closed_form"]
    assert mu[0] == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert mu[1] == pytest.approx(35.0 / 48.0, abs=1e-15)
    assert rows["norm_H_sq"]["closed_form"][0] == pytest.approx(1289.0 / 2304.0, abs=1e-15)
    assert rows["gauss_curvature"]["closed_form"] == [0.0]
    for check in payload["checks"]:
        assert check["value"] < 1e-10, check["name"]
        assert check["status"] == "PASS"


def test_table_mironov_closed_forms_track_the_computed_matrices(capsys):
    rc, payload = _run_json(
        capsys,
        ["table", "--surface", "mironov", "--params", "a=1,b=2,c=1",
         "--grid", "8x8", "--format", "json"],
    )
    assert rc == 0
    rows = {row["name"]: row for row in payload["table"]}
    # Representative point x = 0: closed forms reduce to simple rationals.
    assert np.allclose(rows["metric"]["computed"], np.diag([0.5, 2.0]), atol=1e-12)
    assert np.allclose(rows["shape_operator_iFx"]["computed"], [[0, 0.5], [0.5, 0]], atol=1e-12)
    assert np.allclose(rows["shape_operator_iFy"]["computed"], [[0.5, 0], [0, 2.0]], atol=1e-12)
    assert np.allclose(rows["mean_curvature_components"]["computed"], [0.0, 2.0], atol=1e-12)
    for check in payload["checks"]:
        assert check["value"] < 1e-10, check["name"]


@pytest.mark.parametrize("x", [0.0, math.pi / 6.0, math.pi / 4.0])
def test_mironov_closed_forms_at_generic_chart_points(x):
    params = {"a": 1.0, "b": 2.0, "c": 1.0}
    closed = cli._mironov_closed(params, np.array([x]))
    pf = geometry.point_report(surfaces.mironov(1, 2, 1), x, 0.7)
    iFx = ambient.apply_J(pf.Fx_v)
    iFy = ambient.apply_J(pf.Fy_v)
    A_x = np.array(
        [[ambient.real_inner(pf.B[i, j], iFx) for j in range(2)] for i in range(2)]
    )
    A_y = np.array(
        [[ambient.real_inner(pf.B[i, j], iFy) for j in range(2)] for i in range(2)]
    )
    assert pf.g[0, 0] == pytest.approx(closed["g11"][0], abs=1e-12)
    assert pf.g[1, 1] == pytest.approx(closed["g22"][0], abs=1e-12)
    assert A_x[0, 1] == pytest.approx(closed["w"][0], abs=1e-11)
    assert abs(A_x[0, 0]) < 1e-11 and abs(A_x[1, 1]) < 1e-11
    assert A_y[0, 0] == pytest.approx(closed["w"][0], abs=1e-11)
    assert A_y[1, 1] == pytest.approx(closed["a22"][0], abs=1e-11)
    assert ambient.real_inner(pf.H, iFy) == pytest.approx(closed["h2"][0], abs=1e-11)


def test_table_minimal_mironov_has_zero_mean_curvature_row(capsys):
    rc, payload = _run_json(
        capsys,
        ["table", "--surface", "mironov", "--params", "a=1,b=2,c=3",
         "--grid", "8x8", "--format", "json"],
    )
    assert rc == 0
    rows = {row["name"]: row for row in payload["table"]}
    assert rows["mean_curvature_components"]["closed_form"] == [0.0, 0.0]
    assert np.max(np.abs(rows["mean_curvature_components"]["computed"])) < 1e-10


def test_table_rejects_surfaces_without_closed_forms(capsys):
    rc = cli.main(["table", "--surface", "geodesic_sphere"])
    assert rc == 2
    assert "table requires" in capsys.readouterr().err


def test_energy_reports_frozen_calabi_values(capsys):
    rc, payload = _run_json(capsys, ["energy", "--surface", "calabi", "--format", "json"])
    assert rc == 0
    q = payload["quantities"]
    assert q["area"] == pytest.approx(3.2 * math.pi**2, rel=1e-13)
    assert q["energy"] == pytest.approx((10505.0 / 9216.0) * 3.2 * math.pi**2, rel=1e-12)
    assert abs(q["energy_refined"] - q["energy"]) < 1e-10
    assert payload["checks"][0]["name"] == "quadrature_doubling"
    assert payload["checks"][0]["status"] == "PASS"


def test_energy_is_spectrally_accurate_on_a_non_periodic_chart(capsys):
    # Gauss-Legendre nodes on the non-periodic axis: the chart covers the
    # band |u| <= 1.2 of the unit sphere, of area 4 pi sin 1.2.
    rc, payload = _run_json(
        capsys, ["energy", "--surface", "geodesic_sphere", "--format", "json"]
    )
    assert rc == 0
    q = payload["quantities"]
    assert q["area"] == pytest.approx(4.0 * math.pi * math.sin(1.2), abs=1e-12)
    assert q["area_refined"] == pytest.approx(4.0 * math.pi * math.sin(1.2), abs=1e-12)
    assert payload["checks"][0]["status"] == "PASS"


@pytest.mark.parametrize(
    "surface, swept",
    [
        ("calabi", 128 * 128),
        ("mironov", 128 * 128),
        ("geodesic_sphere", 64 * 64 + 128 * 128),
        ("control", 64 * 64 + 128 * 128),
    ],
)
def test_energy_sweeps_each_node_once_and_reports_two_willmore_energy_calls(
    frame_widths, capsys, tmp_path, surface, swept
):
    # A both-periodic chart sweeps only the doubled grid; a Gauss-Legendre
    # axis (the sphere's x, the control's y) sweeps both grids.  Either way
    # the report is bitwise willmore_energy on the two grids.
    if surface == "control":
        path = tmp_path / "control.expr"
        path.write_text(CONTROL_EXPR)
        source, spec = ["--expr-file", str(path)], CONTROL
    else:
        source, spec = ["--surface", surface], surfaces.surface_by_name(surface)
    _, payload = _run_json(capsys, ["energy", *source, "--format", "json"])
    assert sum(frame_widths) == swept
    q = payload["quantities"]
    assert (q["area"], q["energy"]) == operators.willmore_energy(spec, (64, 64))
    assert (q["area_refined"], q["energy_refined"]) == operators.willmore_energy(spec, (128, 128))


#: Three mironov 64x64 energy calls through cli.main in one fresh
#: interpreter; prints the minor page faults of each.
_FAULTS_PER_CALL = """\
import contextlib, io, json, resource
from legendrian_lab import cli

argv = ["energy", "--surface", "mironov", "--grid", "64x64", "--format", "json"]
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(not cli._glibc(), reason="the heap thresholds are pinned on glibc only")
def test_repeated_energy_calls_reuse_their_heap_pages():
    # With glibc's dynamic thresholds every 4096-point block refaulted the
    # memory the previous block freed: 5,300 minor faults per repeated call.
    # Pinned, a repeated call faults a dozen pages.
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _FAULTS_PER_CALL],
        cwd=root, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    first, *repeated = json.loads(done.stdout)
    assert all(faults < 500 for faults in repeated), (first, repeated)


def test_without_glibc_the_heap_is_left_alone_and_stdout_is_the_same(capsys, monkeypatch):
    argv = ["energy", "--surface", "calabi", "--grid", "8x8", "--format", "json"]
    assert cli.main(argv) == 0
    pinned = capsys.readouterr().out

    def no_glibc(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    def no_call(*args):
        raise AssertionError("libc was loaded off glibc")

    monkeypatch.setattr(os, "confstr", no_glibc)
    monkeypatch.setattr(cli.ctypes, "CDLL", no_call)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == pinned


def _limit_address_space():
    # 2 GiB: a run that still tried to allocate its whole grid fails inside
    # this child instead of taking the machine's memory.
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_an_oversized_grid_is_refused_before_anything_is_allocated():
    # A 10^6 x 10^6 grid used to end in numpy's "Unable to allocate 7.28 TiB"
    # traceback, exit 1; the bound refuses it as a configuration error.
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "legendrian_lab.cli", "verify", "--grid", "1000000x1000000"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=_limit_address_space,
    )
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert done.stderr == (
        "error: ERR_VALIDATION: grid 1000000x1000000 sweeps 1000000000000 points, "
        "more than the limit of 1048576\n"
    )


@pytest.mark.parametrize(
    "command, grid, refused",
    [
        ("verify", "16x16", False),
        ("verify", "16x17", True),
        ("energy", "8x8", False),  # energy counts its doubled grid, 4 nx ny points
        ("energy", "8x9", True),
    ],
)
def test_the_grid_bound_counts_the_points_a_command_sweeps(
    capsys, monkeypatch, tmp_path, command, grid, refused
):
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 256)
    nx, ny = grid.split("x")
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(f"[grid]\nnx = {nx}\nny = {ny}\n")
    for source in (["--grid", grid], ["--config", str(cfg)]):
        rc = cli.main([command, "--surface", "calabi", *source, "--format", "json"])
        err = capsys.readouterr().err
        if refused:
            points = int(nx) * int(ny) * (4 if command == "energy" else 1)
            assert rc == 2
            assert err == (
                f"error: ERR_VALIDATION: grid {grid} sweeps {points} points, "
                "more than the limit of 256\n"
            )
        else:
            assert (rc, err) == (0, "")


def test_config_file_supplies_surface_and_run_options(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[surface]\n"
        "kind = mironov\n"
        "params = a=1, b=2, c=1\n"
        "[grid]\n"
        "nx = 8\n"
        "ny = 10\n"
        "[run]\n"
        "seed = 3\n"
        "format = json\n"
    )
    rc, payload = _run_json(capsys, ["classify", "--config", str(cfg)])
    assert rc == 0
    assert payload["surface"] == "mironov"
    assert payload["params"] == {"a": 1.0, "b": 2.0, "c": 1.0}
    assert payload["grid"] == [8, 10]
    assert payload["seed"] == 3

    # Flags override file values.
    rc, payload = _run_json(capsys, ["classify", "--config", str(cfg), "--grid", "6x6"])
    assert rc == 0
    assert payload["grid"] == [6, 6]


@pytest.mark.parametrize("command, grid", [("table", [8, 32]), ("energy", [8, 64])])
def test_a_partial_grid_section_takes_the_command_default(capsys, tmp_path, command, grid):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("[grid]\nnx = 8\n")
    rc, payload = _run_json(
        capsys, [command, "--surface", "calabi", "--config", str(cfg), "--format", "json"]
    )
    assert rc == 0
    assert payload["grid"] == grid


@pytest.mark.parametrize(
    "flag, body, named",
    [
        ("--config", "[run]\nseed = 1\nseed = 2\n", ":3: seed: repeated key"),
        ("--expr-file", CALABI_TWIN_EXPR + "f1 = r2*exp(i*x)\n", ":7: f1: repeated key"),
    ],
    ids=["config", "expression"],
)
def test_a_repeated_key_is_a_configuration_error(capsys, tmp_path, flag, body, named):
    path = tmp_path / "twice.ini"
    path.write_text(body)
    rc = cli.main(["classify", "--grid", "6x6", flag, str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "ERR_VALIDATION" in captured.err and f"{path}{named}" in captured.err
    assert captured.out == ""


def test_an_expression_parameter_no_component_reads_is_a_configuration_error(capsys, tmp_path):
    twin = tmp_path / "typo.expr"
    twin.write_text(CALABI_TWIN_EXPR.replace("r4=0.8", "r4=0.8, zz=3"))
    rc = cli.main(["classify", "--expr-file", str(twin), "--grid", "6x6"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "ERR_VALIDATION" in captured.err and "parameter zz" in captured.err
    assert captured.out == ""


def test_a_surface_flag_over_an_expression_surface_section_is_a_configuration_error(
    capsys, tmp_path
):
    # Either flag would drop the config's expression without a word.
    cfg = tmp_path / "expr.cfg"
    cfg.write_text("[surface]\nkind = expression\n" + CONTROL_EXPR)
    twin = tmp_path / "calabi.expr"
    twin.write_text(CALABI_TWIN_EXPR)
    for flag, value in (("--surface", "mironov"), ("--expr-file", str(twin))):
        rc = cli.main(["classify", flag, value, "--config", str(cfg), "--grid", "6x6"])
        captured = capsys.readouterr()
        assert rc == 2, flag
        assert "ERR_VALIDATION" in captured.err
        assert flag in captured.err and f"kind = expression in {cfg}" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize(
    "body, line",
    [
        (CALABI_TWIN_EXPR + "[other]\nf1 = 0\n", ":7: [other]"),
        ("[surface]\n" + CALABI_TWIN_EXPR, ":1: [surface]"),
    ],
    ids=["after_the_keys", "first_line"],
)
def test_a_section_header_in_an_expression_file_is_a_configuration_error(
    capsys, tmp_path, body, line
):
    # Sections used to be merged into one set of keys, so the f1 under
    # [other] silently replaced the twin's and the run failed elsewhere.
    path = tmp_path / "sections.expr"
    path.write_text(body)
    rc = cli.main(["classify", "--expr-file", str(path), "--grid", "6x6"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "ERR_VALIDATION" in captured.err and f"{path}{line}" in captured.err
    assert captured.out == ""


def test_expression_surface_from_config_file(capsys, tmp_path):
    cfg = tmp_path / "expr.cfg"
    cfg.write_text(
        "[surface]\n"
        "kind = expression\n"
        + CALABI_TWIN_EXPR.replace("# flat-torus family written out as an expression surface\n", "")
        + "[run]\nformat = json\n"
    )
    rc, payload = _run_json(capsys, ["classify", "--config", str(cfg), "--grid", "6x6"])
    assert rc == 0
    assert payload["surface"] == "expression"
    assert payload["aggregates"]["verdicts"]["csl"] == "yes"


def test_json_output_is_deterministic_in_process(capsys):
    argv = ["classify", "--surface", "mironov", "--grid", "6x6", "--format", "json"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def _readme_ini_blocks():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    return re.findall(r"```ini\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)


def test_readme_ini_examples_run(capsys, tmp_path):
    # The --config example and the --expr-file example, inline comments and all.
    blocks = _readme_ini_blocks()
    assert len(blocks) == 2
    for n, block in enumerate(blocks):
        path = tmp_path / f"readme_{n}.ini"
        path.write_text(block)
        flag = "--config" if "[surface]" in block else "--expr-file"
        rc = cli.main(["verify", flag, str(path), "--grid", "8x8"])
        captured = capsys.readouterr()
        assert rc == 0, (flag, captured.err)


def test_inline_comments_are_stripped(tmp_path):
    text = "[run]\nseed = 3   # a comment\n# a whole-line comment\nformat=json#no space\n"
    assert cli._parse_flat_config(text, "cfg") == {
        "": {}, "run": {"seed": "3", "format": "json"}
    }


@pytest.mark.parametrize(
    "body, named",
    [
        ("[run]\nreeb_sin = -1\n", "reeb_sin"),
        ("[run]\nreeb_sign = -1\n", "reeb_sign"),
        ("[tolerence]\ncsl_residual = 1e-9\n", "[tolerence]"),
        ("[grid]\nnx = 8\nnz = 8\n", "nz"),
        ("seed = 3\n[run]\nworkers = 1\n", "seed"),
        ("[surface]\nkind = mironov\nparms = a=2,b=5,c=1\n", "parms"),
    ],
)
def test_unknown_config_sections_and_keys_are_configuration_errors(capsys, tmp_path, body, named):
    cfg = tmp_path / "unknown.cfg"
    cfg.write_text(body)
    rc = cli.main(["verify", "--surface", "calabi", "--grid", "6x6", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "ERR_VALIDATION" in captured.err and named in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--surface", "calabi", "--params", "r9=1"], "r9"),
        (["--surface", "mironov", "--params", "a=1,b=2,c=1,d=5"], "'d'"),
        (["--surface", "geodesic_sphere", "--params", "a=1"], "'a'"),
        (["--expr-file", "TWIN", "--params", "r1=0.5"], "--params"),
        (["--config", "CFG"], "r9"),
        (["--surface", "mironov", "--params", "a=5,a=1"], "parameter a is given twice"),
        (["--expr-file", "TWICE"], "parameter r4 is given twice"),
        (["--surface", "mironov", "--params", "a=1_0"], "parameter a: expected a number"),
    ],
)
def test_unknown_surface_parameters_are_configuration_errors(capsys, tmp_path, argv, named):
    names = {"TWIN": "calabi.expr", "CFG": "params.cfg", "TWICE": "twice.expr"}
    files = {key: tmp_path / name for key, name in names.items()}
    files["TWIN"].write_text(CALABI_TWIN_EXPR)
    files["TWICE"].write_text(CALABI_TWIN_EXPR + "r4 = 0.8\n")
    files["CFG"].write_text("[surface]\nkind = calabi\nparams = r1=0.8, r9=1\n")
    argv = [str(files[a]) if a in files else a for a in argv]
    rc = cli.main(["verify", "--grid", "6x6"] + argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert "ERR_VALIDATION" in captured.err and named in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "flag, section, key",
    [
        (["--seed", "abc"], "[run]\nseed = abc\n", "[run] seed"),
        (["--seed", "-1"], "[run]\nseed = -1\n", "[run] seed"),
        (["--workers", "x"], "[run]\nworkers = x\n", "[run] workers"),
        (["--workers", "0"], "[run]\nworkers = 0\n", "[run] workers"),
        (["--format", "xml"], "[run]\nformat = xml\n", "[run] format"),
        (["--grid", "3x8"], "[grid]\nnx = 3\n", "[grid] nx"),
        (["--grid", "16x"], "[grid]\nnx = 16\nny =\n", "[grid] ny"),
        (["--seed", "1_0"], "[run]\nseed = 1_0\n", "[run] seed"),
        (["--grid", "1_6x16"], "[grid]\nnx = 1_6\n", "[grid] nx"),
        (["--seed", "\u0663"], "[run]\nseed = \u0663\n", "[run] seed"),
    ],
    ids=["seed_abc", "seed_negative", "workers_x", "workers_0", "format_xml", "grid_3x8",
         "grid_16x", "seed_separator", "grid_separator", "seed_arabic_indic_digit"],
)
def test_a_flag_is_read_like_its_config_key(capsys, tmp_path, flag, section, key):
    # A flag is the top layer of its key: one parser and one bound for both.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(section, encoding="utf-8")
    errors = []
    for source in (flag, ["--config", str(cfg)]):
        rc = cli.main(["verify", "--surface", "calabi", *source])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, ""), source
        assert captured.err.startswith(f"error: ERR_VALIDATION: {key}")
        assert captured.err.count("\n") == 1
        errors.append(captured.err)
    assert errors[0] == errors[1]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", "--surface", "calabi", "--grd", "3"], "unrecognized arguments: --grd 3"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        ([], "the following arguments are required: command"),
    ],
    ids=["unknown_flag", "unknown_command", "no_command"],
)
def test_a_usage_error_is_one_validation_line(capsys, argv, message):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert (rc, captured.out) == (2, "")
    assert captured.err.startswith(f"error: ERR_VALIDATION: {message}")
    assert captured.err.count("\n") == 1


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as stop:
        cli.main(["verify", "--help"])
    captured = capsys.readouterr()
    assert stop.value.code == 0 and captured.err == ""
    assert captured.out.startswith("usage: legendrian-lab verify [-h] [--surface SURFACE]")
    assert "catalog family: calabi, mironov, geodesic_sphere" in captured.out


_CONTROL_F1 = CONTROL_EXPR.splitlines()[0]


@pytest.mark.parametrize(
    "flag, edit, code, fragment",
    [
        (["--grid", "16"], None, "ERR_VALIDATION", "grid '16' is not of the form NXxNY"),
        ([], ("", "x_range = 1\n"), "ERR_VALIDATION", "x_range: expected 'lo, hi', got '1'"),
        ([], ("periodic = true, false", "periodic = true"), "ERR_VALIDATION",
         "control.expr: periodic must be 'bool, bool'"),
        ([], ("periodic = true, false", "periodic = true, maybe"), "ERR_VALIDATION",
         "periodic y: expected true/false, got 'maybe'"),
        ([], ("f3 = sin(y)\n", ""), "ERR_VALIDATION", "control.expr: missing expression keys f3"),
        ([], ("", "params = a\n"), "ERR_VALIDATION",
         "parameter 'a' is not of the form name=value"),
        ([], ("", "junk\n"), "ERR_VALIDATION",
         "control.expr:6: expected 'key = value', got 'junk'"),
        ([], (_CONTROL_F1, "f1 = sin(x"), "ERR_SYNTAX",
         "expected ')', found 'end of input' (at offset 5)"),
        ([], (_CONTROL_F1, "f1 = x)"), "ERR_SYNTAX", "unexpected trailing ')' (at offset 1)"),
        ([], ("", "x_range = 1, 1\n"), "ERR_PARAM_CONSTRAINT",
         "chart_domain must be a nondegenerate rectangle"),
    ],
    ids=["grid_side", "x_range_one_number", "periodic_one_flag", "periodic_not_bool",
         "missing_f3", "params_not_name_value", "junk_line", "unclosed_call",
         "trailing_paren", "degenerate_x_range"],
)
def test_a_refused_setting_exits_2_with_one_error_line(
    capsys, tmp_path, flag, edit, code, fragment
):
    old, new = edit or ("", "")
    path = tmp_path / "control.expr"
    path.write_text(CONTROL_EXPR.replace(old, new, 1) if old else CONTROL_EXPR + new)
    rc = cli.main(["verify", "--expr-file", str(path), *flag])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (2, "")
    assert captured.err.startswith(f"error: {code}: ") and fragment in captured.err
    assert captured.err.count("\n") == 1
