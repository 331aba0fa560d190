"""Acceptance gate: the nine binding checks, one test and summary line each.

Each test records a ``criterion N: PASS/FAIL`` line (printed in the terminal
summary) and then asserts, so a red run still reports every criterion's state.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np

from legendrian_lab import cli, jets, operators, surfaces

from conftest import MINIMAL, NON_MINIMAL

TWO_PI = 2.0 * math.pi

#: Identity checks whose tolerances are part of the public contract.
PINNED_IDENTITY_TOLERANCES = {
    "tri_symmetry": 1e-11,
    "reeb_normal": 1e-11,
    "gauss_claim": 1e-10,
    "gauss_vs_brioschi": 1e-7,
    "ricci_identity": 1e-5,
    "normal_laplacian": 1e-4,
    "div_jb_identity": 1e-5,
    "bochner": 1e-5,
    "log_h_curvature": 1e-5,
    "sasakian_reeb": 1e-11,
    "sasakian_J": 1e-11,
    "closedness": 1e-6,
}


def _table_payload(capsys, argv):
    rc = cli.main(argv)
    assert rc == 0
    return json.loads(capsys.readouterr().out)


def test_criterion_1_calabi_closed_form_table(capsys, acceptance_record):
    payload = _table_payload(
        capsys,
        ["table", "--surface", "calabi", "--grid", "32x32", "--format", "json"],
    )
    rows = {row["name"]: row for row in payload["table"]}
    closed_ok = (
        np.max(np.abs(np.array(rows["metric"]["closed_form"]) - np.diag([1.0, 0.64]))) < 1e-12
        and abs(rows["mean_curvature_mu"]["closed_form"][0] - 1.0 / 6.0) < 1e-12
        and abs(rows["mean_curvature_mu"]["closed_form"][1] - 35.0 / 48.0) < 1e-12
        and rows["gauss_curvature"]["closed_form"] == [0.0]
    )
    worst = max(check["value"] for check in payload["checks"])
    ok = closed_ok and worst < 1e-10
    assert acceptance_record(
        1, ok, f"calabi table on 32x32: grid-max deviation {worst:.3e} (< 1e-10)"
    )


def test_criterion_2_mironov_closed_form_table(capsys, acceptance_record):
    payload = _table_payload(
        capsys,
        ["table", "--surface", "mironov", "--params", "a=1,b=2,c=1",
         "--grid", "32x32", "--format", "json"],
    )
    rows = {row["name"]: row for row in payload["table"]}
    rep_ok = (
        np.allclose(rows["metric"]["computed"], np.diag([0.5, 2.0]), atol=1e-10)
        and np.allclose(rows["shape_operator_iFx"]["computed"], [[0.0, 0.5], [0.5, 0.0]], atol=1e-10)
        and np.allclose(rows["shape_operator_iFy"]["computed"], [[0.5, 0.0], [0.0, 2.0]], atol=1e-10)
        and np.allclose(rows["mean_curvature_components"]["computed"], [0.0, 2.0], atol=1e-10)
    )
    worst = max(check["value"] for check in payload["checks"])
    ok = rep_ok and worst < 1e-10
    assert acceptance_record(
        2, ok, f"mironov(1,2,1) table on 32x32: grid-max deviation {worst:.3e} (< 1e-10)"
    )


def test_criterion_3_csl_equation_on_both_families(residual_maps, acceptance_record):
    worst = max(float(np.max(residual_maps[name]["csl_residual"])) for name in NON_MINIMAL)
    ok = worst < 1e-7
    assert acceptance_record(
        3, ok, f"grid-max |Div(JH)| over both non-minimal members {worst:.3e} (< 1e-7)"
    )


def test_criterion_4_csl_willmore_equation_and_obstruction(residual_maps, acceptance_record):
    worst_res = max(
        float(np.max(residual_maps[name]["csl_willmore_residual"])) for name in NON_MINIMAL
    )
    worst_obs = max(
        float(np.max(residual_maps[name]["obstruction_trace"])) for name in NON_MINIMAL
    )
    ok = worst_res < 1e-5 and worst_obs < 1e-6
    assert acceptance_record(
        4,
        ok,
        f"csL-Willmore residual {worst_res:.3e} (< 1e-5), "
        f"obstruction trace {worst_obs:.3e} (< 1e-6)",
    )


def test_criterion_5_willmore_legendrian_separation(residual_maps, acceptance_record):
    fractions = [
        float(np.mean(residual_maps[name]["willmore_legendrian_residual"] > 0.01))
        for name in NON_MINIMAL
    ]
    worst_residual = max(
        float(np.max(residual_maps[name]["willmore_legendrian_residual"])) for name in MINIMAL
    )
    worst_h = max(float(np.max(residual_maps[name]["norm_H"])) for name in MINIMAL)
    ok = min(fractions) >= 0.95 and worst_residual < 1e-8 and worst_h < 1e-10
    assert acceptance_record(
        5,
        ok,
        f"non-minimal residual > 0.01 at {100 * min(fractions):.1f}% of points (>= 95%); "
        f"minimal members: residual {worst_residual:.3e} (< 1e-8), |H| {worst_h:.3e} (< 1e-10)",
    )


def test_criterion_6_identity_suite_on_all_members(identity_reports, acceptance_record):
    identity_tolerances = {row.name: row.tolerance for row in operators.checks_in("identity")}
    for name, tol in PINNED_IDENTITY_TOLERANCES.items():
        assert identity_tolerances[name] == tol, name
    failed = [
        f"{member}/{check.name}"
        for member, report in identity_reports.items()
        for check in report.checks
        if check.status == "FAIL"
    ]
    n_checks = sum(len(report.checks) for report in identity_reports.values())
    ok = not failed
    assert acceptance_record(
        6,
        ok,
        f"identity suite, 100 points x {len(identity_reports)} members: "
        f"{n_checks} checks, failures: {failed or 'none'}",
    ), failed


def test_criterion_7_calabi_willmore_energy(calabi_energy, acceptance_record):
    (area, energy), (area2, energy2) = calabi_energy
    exact = (10505.0 / 9216.0) * 3.2 * math.pi**2
    rel = abs(energy - exact) / exact
    drift = abs(energy2 - energy)
    ok = rel < 1e-9 and drift < 1e-10
    assert acceptance_record(
        7,
        ok,
        f"energy {energy!r} vs closed form {exact!r}: rel {rel:.3e} (< 1e-9), "
        f"doubling drift {drift:.3e} (< 1e-10)",
    )


def _partial_field(spec, comp: int, j: int, k: int):
    """Vectorized (j,k)-partial of one component of F via degree-3 jets."""

    def f(xs, ys):
        F = surfaces.evaluate_jet_batch(spec, xs, ys, degree=3)
        return jets.extract_partial(F, j, k)[comp]

    return f


def test_criterion_8_jet_derivatives_vs_finite_differences(members, acceptance_record):
    worst = 0.0
    for spec in members.values():
        xs, ys = surfaces.sample_points(spec, 10, seed=8)
        exact_jets = surfaces.evaluate_jet_batch(spec, xs, ys, degree=3)
        for comp in range(3):
            for j in range(4):
                for k in range(4 - j):
                    if not 1 <= j + k <= 3:
                        continue
                    exact = jets.extract_partial(exact_jets, j, k)[comp]
                    if j > 0:
                        field, axis = _partial_field(spec, comp, j - 1, k), 0
                    else:
                        field, axis = _partial_field(spec, comp, j, k - 1), 1
                    fd = operators.partial_derivative(spec, field, xs, ys, axis)
                    rel = np.max(np.abs(fd - exact) / (1.0 + np.abs(exact)))
                    worst = max(worst, float(rel))
    fd_ok = worst < 1e-7

    # The same chain evaluated through the expression pipeline must agree
    # with the built-in torus to near machine precision.
    builtin = members["calabi_default"]
    twin = surfaces.from_expression(
        (
            "r1*r3*exp(i*((r2/r1)*x + (r4/r3)*y))",
            "r1*r4*exp(i*((r2/r1)*x - (r3/r4)*y))",
            "r2*exp(-i*(r1/r2)*x)",
        ),
        dict(builtin.params),
        ((0.0, TWO_PI), (0.0, TWO_PI)),
        periodic=(True, True),
    )
    xs, ys = surfaces.sample_points(builtin, 100, seed=8)
    ref = surfaces.evaluate_jet_batch(builtin, xs, ys, degree=3)
    alt = surfaces.evaluate_jet_batch(twin, xs, ys, degree=3)
    twin_gap = float(np.max(np.abs(ref.coeffs - alt.coeffs)))
    twin_ok = twin_gap < 1e-13

    ok = fd_ok and twin_ok
    assert acceptance_record(
        8,
        ok,
        f"jet vs Richardson FD: rel {worst:.3e} (< 1e-7); "
        f"expression twin gap {twin_gap:.3e} (< 1e-13)",
    )


def _cli_command() -> list[str]:
    exe = shutil.which("legendrian-lab")
    if exe:
        return [exe]
    return [sys.executable, "-m", "legendrian_lab.cli"]


def test_criterion_9_cli_determinism_and_exit_codes(tmp_path, acceptance_record):
    base = _cli_command()
    argv = base + [
        "verify", "--surface", "mironov", "--seed", "7", "--workers", "1",
        "--format", "json",
    ]
    first = subprocess.run(argv, capture_output=True, timeout=300)
    second = subprocess.run(argv, capture_output=True, timeout=300)
    deterministic = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and len(first.stdout) > 0
    )

    failing = subprocess.run(
        base + ["verify", "--surface", "mironov", "--grid", "8x8"],
        capture_output=True,
        timeout=300,
        env={**os.environ, "LEGLAB_TOLERANCE_SCALE": "1e-6"},
    )
    bad = tmp_path / "bad.expr"
    bad.write_text("f1 = x + * y\nf2 = x\nf3 = y\n")
    syntax = subprocess.run(
        base + ["verify", "--expr-file", str(bad)], capture_output=True, timeout=300
    )
    codes_ok = (
        failing.returncode == 1
        and syntax.returncode == 2
        and b"ERR_SYNTAX" in syntax.stderr
    )
    ok = deterministic and codes_ok
    assert acceptance_record(
        9,
        ok,
        "verify --seed 7 twice byte-identical "
        f"({deterministic}); exit codes 0/{failing.returncode}/{syntax.returncode}",
    )
