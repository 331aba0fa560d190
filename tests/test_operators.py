"""Differential operators and variational residuals on chart fields."""

import math
import os

import numpy as np
import pytest

from conftest import ALL_MEMBERS, CONTROL, build_members
from legendrian_lab import ambient, cli, geometry, jets, operators, surfaces
from legendrian_lab.errors import GridError, StencilOutOfDomainError

TWO_PI = 2.0 * math.pi

CALABI = surfaces.calabi(0.8, 0.6, 0.6, 0.8)
MIRONOV = surfaces.mironov(1, 2, 1)

# Frozen residual values, produced by an independent high-resolution run and
# stable to the last digit because the whole pipeline is deterministic.
CALABI_WL_RESIDUAL = 0.49680527818357045
MIRONOV_WL_RESIDUAL_AT_04_09 = 0.13059612731801856
CALABI_AREA = 31.58273408348595
CALABI_ENERGY = 36.00006744216796


# -- Richardson finite differences, the independent check on the jets ----------


def _frame(spec, xs, ys, degree=2):
    return geometry.ChartFrame.of(spec, xs, ys, degree=degree)


def _fd_partials(spec, field, xs, ys):
    """Stacked Richardson partials [d_x f, d_y f] of a vectorized field."""
    return np.stack([operators.partial_derivative(spec, field, xs, ys, axis) for axis in (0, 1)])


def _fd_divergence(spec, field, xs, ys):
    """(1/sqrt g) d_i (sqrt g c^i) of chart components field(xs, ys) -> (2, n)."""

    def flux(px, py):
        return np.sqrt(_frame(spec, px, py, degree=1).det_g) * np.asarray(field(px, py))

    d = _fd_partials(spec, flux, xs, ys)
    return (d[0, 0] + d[1, 1]) / np.sqrt(_frame(spec, xs, ys, degree=1).det_g)


def _chart_components(fr, vec):
    """g^{ij} real_inner(vec, F_j) of an ambient vector field."""
    w = np.stack([ambient.real_inner(vec, fr.Fx_v), ambient.real_inner(vec, fr.Fy_v)])
    return np.einsum("ij...,j...->i...", fr.g_inv, w)


def _jh_components(spec):
    return lambda xs, ys: _frame(spec, xs, ys).a


def _fd_normal_laplacian_H(spec, xs, ys):
    """Delta^nu H by nested differences of H, projected with the orthonormal frame."""

    def projector(fr):
        e1, e2, p = fr.e1, fr.e2, fr.F_v
        return lambda v: v - sum(ambient.real_inner(v, e) * e for e in (e1, e2, p))

    def nabla_nu_H(px, py):
        project = projector(_frame(spec, px, py))
        dH = _fd_partials(spec, lambda qx, qy: _frame(spec, qx, qy).H, px, py)
        return np.stack([project(d) for d in dH])

    base = _frame(spec, xs, ys)
    W, dW = nabla_nu_H(xs, ys), _fd_partials(spec, nabla_nu_H, xs, ys)
    project = projector(base)
    out = 0.0
    for i in range(2):
        for j in range(2):
            second = project(dW[i, j]) - sum(base.gamma[k, i, j] * W[k] for k in range(2))
            out = out + base.g_inv[i, j] * second
    return out


def _jh_at(spec, x, y):
    """Chart components (a^1, a^2) of JH at one point; JH must be a^i F_i to 1e-10."""
    fr = _frame(spec, [x], [y])
    a = fr.a
    JH = ambient.apply_J(fr.H)
    assert np.max(np.abs(JH - (a[0] * fr.Fx_v + a[1] * fr.Fy_v))) < 1e-10
    return a[0, 0], a[1, 0]


def test_field_JH_matches_the_closed_mean_curvature():
    a1, a2 = _jh_at(CALABI, 0.3, 0.7)
    # JH = -mu1 e1 - mu2 e2 with e1 = F_x and e2 = F_y / r1.
    assert a1 == pytest.approx(-1.0 / 6.0, abs=1e-9)
    assert a2 == pytest.approx(-(35.0 / 48.0) / 0.8, abs=1e-9)

    a1, a2 = _jh_at(MIRONOV, 0.4, 0.9)
    u = geometry.point_report(MIRONOV, 0.4, 0.9).g[1, 1]
    assert abs(a1) < 1e-10
    assert a2 * u == pytest.approx(-2.0, abs=1e-9)  # -(a + b - c)/u

    minimal = surfaces.mironov(1, 2, 3)
    a1, a2 = _jh_at(minimal, 0.4, 0.9)
    assert abs(a1) < 1e-10 and abs(a2) < 1e-10


def test_divergence_of_JH_vanishes_on_both_families(residual_maps):
    assert np.max(residual_maps["calabi_default"]["csl_residual"]) < 1e-9
    assert np.max(residual_maps["mironov_121"]["csl_residual"]) < 1e-7


def test_log_mean_curvature_laplacian_reproduces_the_curvature():
    # |H| is constant and the metric flat on the torus with closed-form H...
    fr = geometry.ChartFrame.of(CALABI, [0.3], [0.7], degree=5)
    assert abs(fr.laplace_log_H[0]) < 1e-8
    assert abs(geometry.point_report(CALABI, 0.3, 0.7).kappa) < 1e-8
    # ... while the twisted family has Delta log|H| = kappa pointwise.
    lap = geometry.ChartFrame.of(MIRONOV, [0.4], [0.9], degree=5).laplace_log_H[0]
    kappa = geometry.point_report(MIRONOV, 0.4, 0.9).kappa
    assert lap == pytest.approx(kappa, abs=1e-5)


def test_covariant_derivative_of_parallel_fields_vanishes():
    nabla = _frame(CALABI, [0.3], [0.7], degree=4).nabla_a
    assert np.max(np.abs(nabla)) < 1e-8
    # The coordinate field d_x is parallel too: nabla_i d_x = Gamma^j_{i0} d_j.
    gamma = geometry.ChartFrame.of(CALABI, [0.3], [0.7], degree=2).gamma
    assert np.max(np.abs(gamma[:, :, 0])) < 1e-10


def test_covariant_derivative_agrees_with_the_jet_exact_route():
    # Finite differences of the chart components against the jet-exact pack:
    # nabla_i a^j = d_i a^j + Gamma^j_{ik} a^k.
    xs, ys = np.array([0.4]), np.array([0.9])
    fr = _frame(MIRONOV, xs, ys)
    da = _fd_partials(MIRONOV, _jh_components(MIRONOV), xs, ys)
    fd = (da + np.einsum("jik...,k...->ij...", fr.gamma, fr.a))[..., 0]
    exact = _frame(MIRONOV, xs, ys, degree=4)
    assert np.max(np.abs(fd - exact.nabla_a[..., 0])) < 1e-8
    assert exact.norm_nabla_JH_sq[0] >= 0.0
    calabi_norm_sq = _frame(CALABI, [0.3], [0.7], degree=4).norm_nabla_JH_sq[0]
    assert abs(calabi_norm_sq) < 1e-16


def test_willmore_operator_values():
    W = _frame(CALABI, [0.3], [0.7], degree=4).willmore[:, 0]
    norm_W = math.sqrt(ambient.real_inner(W, W))
    assert norm_W == pytest.approx(0.5 * CALABI_WL_RESIDUAL, rel=1e-9)
    assert norm_W > 0.05

    # <W, R> = -Div(JH), the Reeb component of the variational vector.
    pf = geometry.point_report(MIRONOV, 0.4, 0.9)
    xs, ys = np.array([0.4]), np.array([0.9])
    W = _frame(MIRONOV, xs, ys, degree=4).willmore[:, 0]
    div = _fd_divergence(MIRONOV, _jh_components(MIRONOV), xs, ys)[0]
    assert abs(ambient.real_inner(W, ambient.reeb(pf.F_v)) + div) < 1e-6


def test_willmore_legendrian_residual_frozen_values(residual_maps):
    value = _frame(CALABI, [0.3], [0.7], degree=4).willmore_legendrian_residual[0]
    assert value == pytest.approx(CALABI_WL_RESIDUAL, rel=1e-9)
    value = _frame(MIRONOV, [0.4], [0.9], degree=4).willmore_legendrian_residual[0]
    assert value == pytest.approx(MIRONOV_WL_RESIDUAL_AT_04_09, rel=1e-9)
    for name in ("geodesic_sphere", "calabi_minimal", "mironov_123"):
        assert np.max(residual_maps[name]["willmore_legendrian_residual"]) < 1e-8


def test_csl_willmore_residuals_on_the_catalog(residual_maps):
    assert np.max(residual_maps["calabi_default"]["csl_willmore_residual"]) < 1e-6
    assert np.max(residual_maps["mironov_121"]["csl_willmore_residual"]) < 1e-5
    for name in ("geodesic_sphere", "calabi_minimal", "mironov_123"):
        assert np.max(residual_maps[name]["csl_willmore_residual"]) < 1e-8


def test_obstruction_trace_vanishes_on_catalog_members(residual_maps):
    assert np.max(residual_maps["calabi_default"]["obstruction_trace"]) < 1e-8
    assert np.max(residual_maps["mironov_121"]["obstruction_trace"]) < 1e-6
    for name in ("geodesic_sphere", "calabi_minimal", "mironov_123"):
        assert np.max(residual_maps[name]["obstruction_trace"]) < 1e-10


def test_identity_suite_passes_on_every_member(identity_reports):
    for name, report in identity_reports.items():
        for check in report.checks:
            assert check.status != "FAIL", f"{name}/{check.name}: {check.max_residual:.3e}"
        assert report.all_pass


def test_identity_suite_residuals_collapse_on_the_geodesic_sphere(identity_reports):
    report = identity_reports["geodesic_sphere"]
    for check in report.checks:
        if check.name == "log_h_curvature":
            assert check.status == "SKIP" and check.n_skipped == 100
        else:
            assert check.max_residual < 1e-8


def test_identity_suite_gates_log_h_points(identity_reports):
    # |H| on the default twisted torus never enters the cutoff band, so the
    # check runs everywhere; on minimal members it is skipped wholesale.
    by_name = {c.name: c for c in identity_reports["mironov_121"].checks}
    assert by_name["log_h_curvature"].status == "PASS"
    assert by_name["log_h_curvature"].n_skipped == 0
    by_name = {c.name: c for c in identity_reports["calabi_minimal"].checks}
    assert by_name["log_h_curvature"].status == "SKIP"


def test_identity_suite_handles_stencils_across_the_chart_seam():
    # Ambient vector fields of the flat-torus family pick up a unitary phase
    # across the chart period; stencil evaluation must stay on the universal
    # cover. Points hugging the seam used to break the nested FD checks.
    xs = np.array([TWO_PI - 1e-4, TWO_PI - 2e-3, 5e-4])
    ys = np.array([2.0, 0.7, 3.1])
    report = operators.identity_suite(CALABI, (xs, ys))
    by_name = {c.name: c for c in report.checks}
    assert by_name["normal_laplacian"].max_residual < 1e-4
    assert by_name["sasakian_J"].max_residual <= 1e-15
    assert report.all_pass


def test_residual_norms_are_chart_invariant():
    swapped = surfaces.from_expression(
        (
            "r1*r3*exp(i*((r2/r1)*y + (r4/r3)*x))",
            "r1*r4*exp(i*((r2/r1)*y - (r3/r4)*x))",
            "r2*exp(-i*(r1/r2)*y)",
        ),
        dict(CALABI.params),
        ((0.0, TWO_PI), (0.0, TWO_PI)),
        periodic=(True, True),
    )
    for x, y in [(0.3, 0.7), (4.0, 1.9)]:
        direct = _frame(CALABI, [x], [y], degree=4).willmore_legendrian_residual[0]
        flipped = _frame(swapped, [y], [x], degree=4).willmore_legendrian_residual[0]
        assert direct == pytest.approx(flipped, abs=1e-10)


def test_willmore_energy_frozen_values(calabi_energy):
    (area, energy), (area2, energy2) = calabi_energy
    assert area == pytest.approx(CALABI_AREA, rel=1e-13)
    assert energy == pytest.approx(CALABI_ENERGY, rel=1e-13)
    assert area == pytest.approx(3.2 * math.pi**2, rel=1e-13)
    assert energy == pytest.approx((10505.0 / 9216.0) * 3.2 * math.pi**2, rel=1e-12)
    assert abs(energy2 - energy) < 1e-10
    assert abs(area2 - area) < 1e-10


def test_energy_equals_area_for_minimal_surfaces():
    area, energy = operators.willmore_energy(surfaces.geodesic_sphere(), (32, 32))
    assert energy == area


@pytest.mark.parametrize(
    "spec, grid", [(CALABI, (128, 128)), (surfaces.geodesic_sphere(), (70, 90))]
)
def test_willmore_energy_in_blocks_is_bitwise_one_whole_grid_frame(frame_widths, spec, grid):
    # 128x128 is four full blocks.  70x90 ends in a partial block and puts
    # Gauss-Legendre nodes on its non-periodic x axis.
    area, energy = operators.willmore_energy(spec, grid)
    assert max(frame_widths) <= operators.BLOCK_POINTS
    assert sum(frame_widths) == grid[0] * grid[1] and len(frame_widths) > 1

    def axis_nodes(axis, m):
        lo, hi = spec.chart_domain[axis]
        if spec.periodic[axis]:
            step = (hi - lo) / m
            return lo + step * np.arange(m), np.full(m, step)
        t, w = np.polynomial.legendre.leggauss(m)
        return lo + 0.5 * (hi - lo) * (t + 1.0), 0.5 * (hi - lo) * w

    (xn, xw), (yn, yw) = axis_nodes(0, grid[0]), axis_nodes(1, grid[1])
    gx, gy = np.meshgrid(xn, yn, indexing="ij")
    fr = geometry.ChartFrame.of(spec, gx.ravel(), gy.ravel(), degree=2)
    sd = np.sqrt(fr.det_g)
    w2 = np.outer(xw, yw).ravel()
    assert area == math.fsum((w2 * sd).tolist())
    assert energy == math.fsum((w2 * sd * (0.25 * fr.norm_H_sq + 1.0)).tolist())


def test_energy_grid_is_validated():
    # energy_doubling judges the coarse grid first, though it sweeps only 6x16.
    for energy in (operators.willmore_energy, operators.energy_doubling):
        with pytest.raises(GridError, match="integration grid 3x8 too small"):
            energy(CALABI, (3, 8))


def test_the_verification_grid_is_validated():
    with pytest.raises(GridError, match="verification grid 3x8 too small") as err:
        operators.grid_residuals(CALABI, 3, 8)
    assert err.value.code == "ERR_GRID"


#: A both-periodic expression chart whose x axis starts off zero: the flat
#: torus with x rescaled to the period 4.2 of x_range = -1.3, 2.9.
SHIFTED_TORUS = surfaces.from_expression(
    (
        f"r1*r3*exp(i*((r2/r1)*{TWO_PI / 4.2!r}*x + (r4/r3)*y))",
        f"r1*r4*exp(i*((r2/r1)*{TWO_PI / 4.2!r}*x - (r3/r4)*y))",
        f"r2*exp(-i*(r1/r2)*{TWO_PI / 4.2!r}*x)",
    ),
    {"r1": 0.8, "r2": 0.6, "r3": 0.6, "r4": 0.8},
    ((-1.3, 2.9), (0.0, TWO_PI)),
    periodic=(True, True),
)


@pytest.mark.parametrize("grid", [(4, 4), (7, 5), (64, 64), (100, 36)])
@pytest.mark.parametrize("spec", [CALABI, SHIFTED_TORUS], ids=["calabi", "shifted_torus"])
def test_periodic_quadrature_nodes_nest_under_doubling(spec, grid):
    # The doubled step is exactly half the coarse one, so lo + step/2 * 2k
    # is the float lo + step * k: energy_doubling's coarse nodes are bitwise
    # the doubled grid's [::2, ::2] nodes.
    nx, ny = grid
    xs, ys, _ = operators._quadrature(spec, nx, ny)
    xs2, ys2, _ = operators._quadrature(spec, 2 * nx, 2 * ny)
    assert np.array_equal(xs, xs2.reshape(2 * nx, 2 * ny)[::2, ::2].ravel())
    assert np.array_equal(ys, ys2.reshape(2 * nx, 2 * ny)[::2, ::2].ravel())


@pytest.mark.parametrize(
    "spec", [CALABI, MIRONOV, SHIFTED_TORUS], ids=["calabi", "mironov", "shifted_torus"]
)
def test_energy_doubling_is_bitwise_two_willmore_energy_calls(frame_widths, spec):
    # Only the doubled grid is swept.
    coarse, fine = operators.energy_doubling(spec, (64, 64))
    assert sum(frame_widths) == 128 * 128
    assert coarse == operators.willmore_energy(spec, (64, 64))
    assert fine == operators.willmore_energy(spec, (128, 128))


@pytest.mark.parametrize(
    "spec", [surfaces.geodesic_sphere(), CONTROL], ids=["geodesic_sphere", "control"]
)
def test_energy_doubling_refuses_a_gauss_legendre_axis(spec):
    with pytest.raises(ValueError, match="both chart axes periodic"):
        operators.energy_doubling(spec, (8, 8))


def test_stencils_refuse_to_leave_non_periodic_charts():
    sphere = surfaces.geodesic_sphere()
    with pytest.raises(StencilOutOfDomainError):
        operators.partial_derivative(
            sphere, _jh_components(sphere), np.array([1.2 - 1e-5]), np.array([0.0]), 0
        )


@pytest.mark.parametrize(
    "command, surface, n_points",
    [
        ("grid_residuals", "mironov", 96 * 64),
        ("table", "calabi", 96 * 64),
        ("table", "mironov", 96 * 64 + 1),
    ],
)
def test_no_grid_frame_is_wider_than_one_block(frame_widths, capsys, command, surface, n_points):
    # 96x64 is one full block and a partial one; mironov's table prepends
    # its representative point (0, 0).  verify and classify sweep through
    # grid_residuals, energy is held above.
    if command == "grid_residuals":
        operators.grid_residuals(surfaces.surface_by_name(surface), 96, 64)
    else:
        assert cli.main([command, "--surface", surface, "--grid", "96x64"]) == 0
        capsys.readouterr()
    assert max(frame_widths) <= operators.BLOCK_POINTS
    assert sum(frame_widths) == n_points and len(frame_widths) == 2


def test_grid_residuals_are_worker_count_independent():
    # 128x64 is two full blocks, so two workers really start, and the pooled
    # maps are bitwise the serial ones.
    for spec in (MIRONOV, CONTROL):
        serial = operators.grid_residuals(spec, 128, 64, workers=1)
        parallel = operators.grid_residuals(spec, 128, 64, workers=2)
        for key, values in serial.items():
            assert np.array_equal(values, parallel[key]), (spec.label, key)


def _residual_maps(spec, xs, ys):
    return operators._residual_maps(geometry.ChartFrame.of(spec, xs, ys, degree=5))


@pytest.mark.parametrize("name", ["mironov", "control"])
def test_grid_residuals_do_not_depend_on_the_batch(name):
    # Bitwise, every point's residuals are the same in the whole 16x16 batch,
    # in contiguous sub-batches of 7 and 64 points, in one-point batches
    # (every 17th point, to keep the test fast) and for one point alone as
    # scalars.  So they cannot depend on how a grid is cut into blocks either.
    spec = MIRONOV if name == "mironov" else CONTROL
    xs, ys = surfaces.grid_points(spec, 16, 16)
    whole = _residual_maps(spec, xs, ys)
    for size in (7, 64):
        parts = [
            _residual_maps(spec, xs[a : a + size], ys[a : a + size])
            for a in range(0, xs.size, size)
        ]
        for key, values in whole.items():
            assert np.array_equal(np.concatenate([p[key] for p in parts]), values), (size, key)
    for i in range(0, xs.size, 17):
        single = _residual_maps(spec, xs[i : i + 1], ys[i : i + 1])
        for key, values in whole.items():
            assert np.array_equal(single[key], values[i : i + 1]), (i, key)
    alone = _residual_maps(spec, xs[100], ys[100])
    for key, values in whole.items():
        assert np.shape(alone[key]) == () and alone[key] == values[100], key


@pytest.mark.parametrize(
    "spec", [surfaces.mironov(1.3, 2.1, 0.9), CALABI], ids=["mironov", "calabi"]
)
def test_one_whole_frame_above_5462_points_is_bitwise_the_block_sweep(spec):
    # 128x64 is 8,192 points in one frame against two blocks of 4,096.  From
    # 5,462 points numpy would reuse a (3, n) complex temporary of a value-level
    # hermitian product in place with swapped operands, which rounds
    # differently; legendrian_defect moved at about 3,000 points by 2.2e-16.
    xs, ys = surfaces.grid_points(spec, 128, 64)
    whole = _residual_maps(spec, xs, ys)
    blocks = operators.grid_residuals(spec, 128, 64)
    for key, values in whole.items():
        assert np.array_equal(values, blocks[key]), key


def test_pool_size_is_clamped_to_cores_and_points():
    # Pure function: a huge request is never launched, only sized.  One
    # worker per full block, so a 64x64 sweep (4096 points) runs in-process.
    cores = os.cpu_count() or 1
    block = operators.BLOCK_POINTS
    assert operators._pool_size(10**9, 4096) == 1
    assert operators._pool_size(10**9, 2 * block - 1) == 1
    assert operators._pool_size(10**9, 2 * block) == min(cores, 2)
    assert operators._pool_size(10**9, 10**9) == cores
    assert operators._pool_size(10**9, 1) == 1
    assert operators._pool_size(1, 10**9) == 1
    assert operators._pool_size(2, 256) == 1


def test_run_verification_bundles_grid_and_identity_checks():
    report = operators.run_verification(CALABI, nx=8, ny=8, n_sample=25)
    assert report.all_pass
    assert "8x8" in report.descriptor
    names = [c.name for c in report.checks]
    assert "willmore_implies_minimal" in names


#: The ordered (name, tolerance) rows of run_verification: the grid rows, then
#: the identity suite.  legendrian_defect is in both, at 1e-10 and at 1e-11.
VERIFY_ROWS = [
    ("legendrian_defect", 1e-10),
    ("csl_residual", 1e-7),
    ("csl_willmore_residual", 1e-5),
    ("obstruction_trace", 1e-6),
    ("willmore_implies_minimal", 1e-6),
    ("legendrian_defect", 1e-11),
    ("tri_symmetry", 1e-11),
    ("reeb_normal", 1e-11),
    ("gauss_claim", 1e-10),
    ("gauss_vs_brioschi", 1e-7),
    ("gauss_vs_brioschi_fd", 1e-7),
    ("ricci_identity", 1e-5),
    ("normal_laplacian", 1e-4),
    ("div_jb_identity", 1e-5),
    ("bochner", 1e-5),
    ("log_h_curvature", 1e-5),
    ("four_symmetry", 1e-6),
    ("closedness", 1e-6),
    ("sasakian_reeb", 1e-11),
    ("sasakian_J", 1e-11),
]


@pytest.mark.parametrize("name", ["calabi", "control"])
def test_run_verification_rows_names_tolerances_and_statuses(name):
    # On the non-csL control exactly the csL family fails and the csL-gated
    # identities skip; willmore_implies_minimal skips on both (non-minimal).
    spec = CALABI if name == "calabi" else CONTROL
    failed, skipped = set(), {"willmore_implies_minimal"}
    if name == "control":
        failed = {"csl_residual", "csl_willmore_residual", "obstruction_trace"}
        skipped |= {"bochner", "log_h_curvature"}
    report = operators.run_verification(spec, nx=8, ny=8, n_sample=25)
    expected = [
        (check, tol, "FAIL" if check in failed else "SKIP" if check in skipped else "PASS")
        for check, tol in VERIFY_ROWS
    ]
    assert [(c.name, c.tolerance, c.status) for c in report.checks] == expected


def test_sasakian_rows_are_jet_exact_on_every_member(identity_reports):
    # Jets differentiate along the great circle exactly, so both rows sit at
    # roundoff on the catalog and on the control (the stencil read 3e-9).
    reports = dict(identity_reports)
    reports["control"] = operators.identity_suite(CONTROL, surfaces.sample_points(CONTROL, 100, 0))
    for name, report in reports.items():
        for check in report.checks:
            if check.name.startswith("sasakian"):
                assert check.max_residual <= 1e-15, (name, check.name, check.max_residual)


def test_sasakian_rows_fire_on_a_scaled_contact_J(monkeypatch):
    # Scaling ambient.contact_extended_J by 1 + 1e-9 breaks both Sasakian
    # identities; no other identity row reads it, so none changes status.
    points = surfaces.sample_points(MIRONOV, 100, seed=0)
    before = {c.name: c.status for c in operators.identity_suite(MIRONOV, points).checks}
    contact_J = ambient.contact_extended_J

    def scaled(p, v):
        out = contact_J(p, v)
        if isinstance(out, tuple):  # a jet-vector along the great circle
            return tuple(c * (1.0 + 1e-9) for c in out)
        return out * (1.0 + 1e-9)

    monkeypatch.setattr(ambient, "contact_extended_J", scaled)
    after = {c.name: c.status for c in operators.identity_suite(MIRONOV, points).checks}
    assert before["sasakian_reeb"] == before["sasakian_J"] == "PASS"
    assert after == {**before, "sasakian_reeb": "FAIL", "sasakian_J": "FAIL"}


def test_masked_out_rows_do_not_compute_their_residual(monkeypatch):
    # On the non-csL control the csL-gated rows select no point, so neither
    # Delta|H|^2 (bochner) nor Delta log|H| (log_h_curvature) is evaluated.
    def refuse(self):
        raise AssertionError("residual of a masked-out row was computed")

    for prop in ("laplace_norm_H_sq", "laplace_log_H"):
        monkeypatch.setattr(geometry.ChartFrame, prop, property(refuse))
    report = operators.identity_suite(CONTROL, surfaces.sample_points(CONTROL, 10, seed=0))
    by_name = {c.name: c for c in report.checks}
    for name in ("bochner", "log_h_curvature"):
        assert (by_name[name].status, by_name[name].n_skipped) == ("SKIP", 10)


def test_a_row_with_no_residual_reads_its_own_name_from_a_dict_source():
    row = operators.Check("drift", "energy", 1e-3, "a row of no residual")
    source = {"drift": np.array([[1e-4, -2e-3], [0.0, 5e-4]]), "other": np.ones(4)}
    result = row.evaluate(source)
    assert (result.name, result.status, result.max_residual) == ("drift", "FAIL", 2e-3)
    assert (result.n_points, result.n_skipped) == (4, 0)
    assert row.evaluate({"drift": -5e-4}).status == "PASS"
    named = [row for row in operators.checks_in("grid") if row.residual is None]
    assert [row.name for row in named] == [
        "legendrian_defect", "csl_residual", "csl_willmore_residual", "obstruction_trace",
    ]


def test_an_empty_batch_is_a_batch_of_zero_points():
    # A row with no point left is SKIP, whether its mask selected none or its
    # batch held none; the evaluation gates look for a worst point only to
    # name one that fails.
    assert surfaces.evaluate_jet_batch(CALABI, [], [], 2).value.shape == (3, 0)
    suite = operators.identity_suite(MIRONOV, ([], []))
    assert len(suite.checks) == 15
    assert {(c.status, c.n_points, c.n_skipped) for c in suite.checks} == {("SKIP", 0, 0)}
    report = operators.run_verification(MIRONOV, 4, 4, n_sample=0)
    assert report.checks[-15:] == suite.checks


@pytest.mark.parametrize("name", ALL_MEMBERS + ("control",))
def test_willmore_implies_minimal_skips_when_no_point_is_gated(name):
    # The check reads |H| only where the Willmore-Legendrian residual is
    # below 1e-6: every point of a minimal member, none of the others.  With
    # no point gated it is SKIP with every point skipped, not a vacuous PASS.
    spec = CONTROL if name == "control" else build_members()[name]
    report = operators.run_verification(spec, nx=8, ny=8, n_sample=10)
    check = next(c for c in report.checks if c.name == "willmore_implies_minimal")
    gated = operators.grid_residuals(spec, 8, 8)["willmore_legendrian_residual"] < 1e-6
    assert gated.all() or not gated.any()
    if gated.any():
        assert (check.status, check.n_skipped) == ("PASS", 0)
        assert check.max_residual < 1e-10
    else:
        assert (check.status, check.n_skipped, check.n_points) == ("SKIP", 64, 64)


@pytest.mark.parametrize("name", ALL_MEMBERS + ("control",))
def test_fourth_order_jets_match_nested_finite_differences(name):
    # The jet-exact fourth-order terms against the nested Richardson stencils
    # they replaced, at 10 seeded points; the control's values are about 1e3.
    spec = CONTROL if name == "control" else build_members()[name]
    xs, ys = surfaces.sample_points(spec, 10, seed=3)
    fr = geometry.ChartFrame.of(spec, xs, ys, degree=5)

    def grad_div(px, py):
        return _frame(spec, px, py, degree=4).grad_div_JH

    def jb(px, py):
        frp = _frame(spec, px, py)
        b_jh_jh = np.einsum("i...,j...,ijm...->m...", frp.a, frp.a, frp.B)
        return _chart_components(frp, ambient.apply_J(b_jh_jh))

    pairs = {
        "laplace_div_JH": (fr.laplace_div_JH, _fd_divergence(spec, grad_div, xs, ys)),
        "div_JB_JH_JH": (fr.div_JB_JH_JH, _fd_divergence(spec, jb, xs, ys)),
    }
    for key, (jet, fd) in pairs.items():
        assert np.all(np.abs(jet - fd) < 1e-7 * (1.0 + np.abs(jet))), key
    jet, fd = fr.normal_laplacian_H, _fd_normal_laplacian_H(spec, xs, ys)
    size = np.sqrt(np.sum(np.abs(jet) ** 2, axis=0))
    gap = np.sqrt(np.sum(np.abs(jet - fd) ** 2, axis=0))
    assert np.all(gap < 1e-7 * (1.0 + size))


def test_each_frame_makes_its_shared_jet_products_once(monkeypatch):
    # One reciprocal of det g and one of sqrt(det g) per frame, the yx entry
    # of every symmetric tensor is the xy object, and the product counts stay
    # at or below what that sharing gives (119 and 249 when this was written,
    # 77 and 135 once a jet-vector's three components multiply in one product).
    # Each jet is differentiated at most once per direction: 21 partials.
    calls = {"reciprocal": 0, "product": 0}
    reciprocal, product = jets.Jet2.reciprocal, jets._product
    partials = []  # (jet, direction): the jets stay alive, so their ids stay unique

    def counted_partial(direction):
        take = getattr(jets.Jet2, direction)

        def partial(self):
            partials.append((self, direction))
            return take(self)

        return partial

    def counted_reciprocal(self):
        calls["reciprocal"] += 1
        return reciprocal(self)

    def counted_product(*args):
        calls["product"] += 1
        return product(*args)

    monkeypatch.setattr(jets.Jet2, "reciprocal", counted_reciprocal)
    monkeypatch.setattr(jets, "_product", counted_product)
    for direction in ("dx", "dy"):
        monkeypatch.setattr(jets.Jet2, direction, counted_partial(direction))
    xs, ys = surfaces.grid_points(MIRONOV, 16, 16)
    _residual_maps(MIRONOV, xs, ys)
    assert calls["reciprocal"] == 2
    assert calls["product"] <= 80
    assert len(partials) == 21
    assert len({(id(jet), direction) for jet, direction in partials}) == 21

    calls["product"] = 0
    operators.identity_suite(MIRONOV, surfaces.sample_points(MIRONOV, 100, seed=0))
    assert calls["product"] <= 140

    fr = geometry.ChartFrame.of(MIRONOV, xs[:5], ys[:5], degree=2)
    pairs = [fr.gj, fr.ginv_j, *fr.gamma_j, fr.B_j, fr.sigma_chart_j]
    assert all(t[1][0] is t[0][1] for t in pairs)


def test_identity_suite_builds_its_frame_and_two_stencil_frames(monkeypatch):
    # gauss_vs_brioschi_fd reads g and dg off the suite's degree-5 frame; only
    # the x and y stencils of the metric's first derivatives build frames.
    degrees = []
    init = geometry.ChartFrame.__init__

    def recorded_init(self, F, xs, ys, degree):
        degrees.append(degree)
        init(self, F, xs, ys, degree)

    monkeypatch.setattr(geometry.ChartFrame, "__init__", recorded_init)
    operators.identity_suite(MIRONOV, surfaces.sample_points(MIRONOV, 100, seed=0))
    assert degrees == [5, 2, 2]


@pytest.mark.parametrize("name", ALL_MEMBERS + ("control",))
def test_fd_brioschi_reads_the_same_metric_from_any_frame_degree(name):
    # Orders <= 2 of F do not depend on the jet degree, so the degree-5 frame
    # the suite hands brioschi_curvature_fd holds a degree-2 frame's g and dg,
    # and so does a degree-2 frame given the degree-5 frame's jets.
    spec = CONTROL if name == "control" else build_members()[name]
    xs, ys = surfaces.sample_points(spec, 100, seed=0)
    deep, shallow = (geometry.ChartFrame.of(spec, xs, ys, degree=d) for d in (5, 2))
    given = geometry.ChartFrame(deep.F, xs, ys, 2)
    for fr in (deep, given):
        assert np.array_equal(fr.g, shallow.g) and np.array_equal(fr.dg, shallow.dg)
    fd = [operators.brioschi_curvature_fd(fr) for fr in (deep, shallow)]
    assert np.array_equal(*fd)
