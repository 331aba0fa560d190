"""Pointwise calculus: metric, frames, second fundamental form, curvature."""

import itertools
import math

import numpy as np
import pytest

from conftest import CONTROL
from legendrian_lab import ambient, geometry, surfaces
from legendrian_lab.errors import DegenerateMetricError, DegreeError, DomainError, OrderError

TWO_PI = 2.0 * math.pi
DOM = ((0.0, TWO_PI), (0.0, TWO_PI))

CALABI = surfaces.calabi(0.8, 0.6, 0.6, 0.8)
MIRONOV = surfaces.mironov(1, 2, 1)


def _assert_point_invariants(pf):
    assert pf.det_g > 1e-12
    assert np.allclose(pf.g, pf.g.T, atol=1e-14)
    # B is normal-valued: orthogonal to the tangent frame and to F.
    for i, j in itertools.product(range(2), range(2)):
        for t in (pf.e1, pf.e2, pf.F_v):
            assert abs(ambient.real_inner(pf.B[i, j], t)) < 1e-11
    # sigma is symmetric under all six index permutations.
    for perm in itertools.permutations(range(3)):
        assert np.max(np.abs(pf.sigma_frame - np.transpose(pf.sigma_frame, perm))) < 1e-11
    R = ambient.reeb(pf.F_v)
    assert abs(ambient.real_inner(pf.H, R)) < 1e-11
    assert np.max(np.abs(pf.form(R))) < 1e-11


def _frame(spec, x, y, degree):
    return geometry.ChartFrame.of(spec, [x], [y], degree=degree)


def test_first_fundamental_closed_forms():
    fr = _frame(CALABI, 1.1, 0.4, 2)
    g, g_inv = fr.g[..., 0], fr.g_inv[..., 0]
    assert np.allclose(g, np.diag([1.0, 0.64]), atol=1e-13)
    assert np.allclose(g @ g_inv, np.eye(2), atol=1e-13)
    assert fr.det_g[0] == pytest.approx(0.64, abs=1e-13)

    g = _frame(MIRONOV, 0.0, 0.9, 2).g[..., 0]
    assert np.allclose(g, np.diag([0.5, 2.0]), atol=1e-13)

    g = _frame(surfaces.geodesic_sphere(), 0.0, 0.0, 2).g[..., 0]
    assert np.allclose(g, np.eye(2), atol=1e-14)


def test_legendrian_defect_detects_scaling_and_twisting():
    fr = _frame(CALABI, 0.3, 0.7, 2)
    assert fr.legendrian_defect[0] < 1e-13
    scaled = geometry.ChartFrame(fr.F * 1.01, fr.xs, fr.ys, 2)
    assert scaled.legendrian_defect[0] == pytest.approx(0.0201, abs=1e-12)

    # Multiplying the first coordinate by exp(i*x*y) keeps |F| = 1 but breaks
    # the Legendrian condition at generic points.
    twisted = surfaces.from_expression(
        (
            "r1*r3*exp(i*((r2/r1)*x + (r4/r3)*y))*exp(i*x*y)",
            "r1*r4*exp(i*((r2/r1)*x - (r3/r4)*y))",
            "r2*exp(-i*(r1/r2)*x)",
        ),
        dict(CALABI.params),
        DOM,
        periodic=(False, False),
    )
    assert _frame(twisted, 1.0, 1.3, 2).legendrian_defect[0] > 0.1


def test_frames_match_the_flat_torus_normalization():
    pf = geometry.point_report(CALABI, 0.0, 0.0)
    assert np.max(np.abs(pf.e1 - pf.Fx_v)) < 1e-13
    assert np.max(np.abs(pf.e2 - pf.Fy_v / 0.8)) < 1e-13
    # Pairwise products of the five frame vectors follow the identity pattern.
    frame = [pf.e1, pf.e2, ambient.apply_J(pf.e1), ambient.apply_J(pf.e2), ambient.reeb(pf.F_v)]
    gram = np.array([[ambient.real_inner(u, v) for v in frame] for u in frame])
    assert np.max(np.abs(gram - np.eye(5))) < 1e-13


def test_cubic_form_norm_is_chart_independent():
    # The same torus with the chart variables exchanged: sigma transforms,
    # its full-symmetrization norm does not.
    swapped = surfaces.from_expression(
        (
            "r1*r3*exp(i*((r2/r1)*y + (r4/r3)*x))",
            "r1*r4*exp(i*((r2/r1)*y - (r3/r4)*x))",
            "r2*exp(-i*(r1/r2)*y)",
        ),
        dict(CALABI.params),
        DOM,
        periodic=(True, True),
    )
    for x, y in [(0.3, 0.7), (2.0, 5.1)]:
        a = geometry.point_report(CALABI, x, y)
        b = geometry.point_report(swapped, y, x)
        assert np.sum(a.sigma_frame**2) == pytest.approx(np.sum(b.sigma_frame**2), abs=1e-11)


def test_flat_torus_shape_data_matches_the_printed_values():
    mu_expected = np.array([1.0 / 6.0, 35.0 / 48.0])
    for x, y in [(0.0, 0.0), (2.7, 1.1), (6.0, 4.4)]:
        pf = geometry.point_report(CALABI, x, y)
        assert np.allclose(pf.mu, mu_expected, atol=1e-12)
        # Shape operators in the orthonormal frame: A^{nu_c}[a, b] = sigma[a, b, c].
        assert np.allclose(
            pf.sigma_frame[:, :, 0], np.array([[-7.0 / 12.0, 0.0], [0.0, 0.75]]), atol=1e-12
        )
        assert np.allclose(
            pf.sigma_frame[:, :, 1],
            np.array([[0.0, 0.75], [0.75, 35.0 / 48.0]]),
            atol=1e-12,
        )
        assert pf.norm_H_sq == pytest.approx(1289.0 / 2304.0, abs=1e-12)


def test_twisted_torus_shape_data_at_the_symmetry_slice():
    pf = geometry.point_report(MIRONOV, 0.0, 0.9)
    iFx = ambient.apply_J(pf.Fx_v)
    iFy = ambient.apply_J(pf.Fy_v)
    A_x = np.array(
        [[ambient.real_inner(pf.B[i, j], iFx) for j in range(2)] for i in range(2)]
    )
    A_y = np.array(
        [[ambient.real_inner(pf.B[i, j], iFy) for j in range(2)] for i in range(2)]
    )
    assert np.allclose(A_x, np.array([[0.0, 0.5], [0.5, 0.0]]), atol=1e-11)
    assert np.allclose(A_y, np.array([[0.5, 0.0], [0.0, 2.0]]), atol=1e-11)
    h = np.array(
        [ambient.real_inner(pf.H, iFx), ambient.real_inner(pf.H, iFy)]
    )
    assert np.allclose(h, [0.0, 2.0], atol=1e-11)


def test_gauss_curvature_closed_cases():
    for x, y in [(0.4, 0.4), (3.3, 1.0)]:
        pf = geometry.point_report(CALABI, x, y)
        assert abs(pf.kappa_brioschi) < 1e-9
        assert abs(pf.kappa) < 1e-9
    pf = geometry.point_report(surfaces.geodesic_sphere(), 0.3, 2.0)
    assert pf.kappa_brioschi == pytest.approx(1.0, abs=1e-10)
    assert pf.kappa == pytest.approx(1.0, abs=1e-10)


def test_gauss_curvature_requires_enough_jet_degree():
    # Brioschi needs second metric derivatives, i.e. jets of F of degree >= 3.
    with pytest.raises(OrderError):
        _ = _frame(CALABI, 0.3, 0.7, 2).kappa_brioschi


def test_curvature_claim_links_kappa_H_and_B(members):
    for spec in members.values():
        xs, ys = surfaces.sample_points(spec, 20, seed=5)
        for x, y in zip(xs, ys):
            pf = geometry.point_report(spec, float(x), float(y))
            claim = 2.0 * pf.kappa - 2.0 - pf.norm_H_sq + pf.norm_B_sq
            assert abs(claim) < 1e-10


def test_point_report_invariants_hold_on_catalog_members():
    _assert_point_invariants(geometry.point_report(CALABI, 0.0, 0.0))
    _assert_point_invariants(geometry.point_report(MIRONOV, math.pi / 4.0, 1.0))


#: Every pointwise quantity a point report is read for, as read off a frame.
POINT_QUANTITIES = {
    "F": lambda fr: fr.F_v,
    "F_x": lambda fr: fr.Fx_v,
    "F_y": lambda fr: fr.Fy_v,
    "F_xx": lambda fr: fr.Fx.dx().value,
    "F_xy": lambda fr: fr.Fx.dy().value,
    "F_yy": lambda fr: fr.Fy.dy().value,
    "g": lambda fr: fr.g,
    "g_inv": lambda fr: fr.g_inv,
    "det_g": lambda fr: fr.det_g,
    "gamma": lambda fr: fr.gamma,
    "e1": lambda fr: fr.e1,
    "e2": lambda fr: fr.e2,
    "nu1": lambda fr: ambient.apply_J(fr.e1),
    "nu2": lambda fr: ambient.apply_J(fr.e2),
    "R": lambda fr: ambient.reeb(fr.F_v),
    "B": lambda fr: fr.B,
    "sigma_frame": lambda fr: fr.sigma_frame,
    "H": lambda fr: fr.H,
    "mu": lambda fr: fr.mu,
    "A_nu1": lambda fr: fr.form(ambient.apply_J(fr.e1)),
    "A_nu2": lambda fr: fr.form(ambient.apply_J(fr.e2)),
    "A_R": lambda fr: fr.form(ambient.reeb(fr.F_v)),
    "kappa": lambda fr: fr.kappa,
    "kappa_brioschi": lambda fr: fr.kappa_brioschi,
    "norm_H_sq": lambda fr: fr.norm_H_sq,
    "norm_B_sq": lambda fr: fr.norm_B_sq,
    "legendrian_defect": lambda fr: fr.legendrian_defect,
}

#: A surface, an in-chart point on it, and the axis a period is added along.
REPORTED = {
    "calabi": (CALABI, (0.3, 0.7), 0),
    "mironov": (MIRONOV, (0.4, 0.9), 0),
    "sphere": (surfaces.geodesic_sphere(), (0.2, 1.1), 1),
    "control": (CONTROL, (0.4, 0.5), 0),
}


@pytest.mark.parametrize("shifted", [False, True], ids=["in_chart", "one_period_on"])
@pytest.mark.parametrize("name", sorted(REPORTED))
def test_point_report_is_the_wrapped_one_point_frame(name, shifted):
    spec, point, axis = REPORTED[name]
    point = list(point)
    if shifted:
        point[axis] += TWO_PI
    pf = geometry.point_report(spec, *point)
    assert isinstance(pf, geometry.ChartFrame) and pf.degree == 4
    assert pf.xs.shape == () and pf.ys.shape == () and pf.g.shape == (2, 2)
    assert isinstance(pf.kappa, np.float64)
    lo, hi = spec.chart_domain[axis]
    assert (pf.xs, pf.ys)[axis] == surfaces.wrap_coordinate(point[axis], lo, hi - lo)
    one = geometry.ChartFrame.of(spec, [pf.xs], [pf.ys], degree=4)
    for key, quantity in POINT_QUANTITIES.items():
        assert np.array_equal(quantity(pf), quantity(one)[..., 0]), key


def test_a_frame_of_given_jets_evaluates_nothing_and_needs_their_degree(monkeypatch):
    # The constructor keeps the jets it is given, truncated to its degree; only
    # ChartFrame.of evaluates and records a spec.  Jets shallower than the
    # degree raise.
    deep = geometry.ChartFrame.of(CALABI, [0.3], [0.7], degree=4)

    def refuse(*args):
        raise AssertionError("a frame of given jets evaluated a surface")

    monkeypatch.setattr(geometry, "evaluate_jet_batch", refuse)
    given = geometry.ChartFrame(deep.F, deep.xs, deep.ys, 2)
    assert given.spec is None and deep.spec is CALABI
    assert given.F.degree == 2 and given.F.batch_shape == (3, 1)
    assert np.array_equal(given.F_v, deep.F_v) and np.array_equal(given.g, deep.g)
    with pytest.raises(DegreeError) as err:
        geometry.ChartFrame(given.F, given.xs, given.ys, 3)
    assert err.value.code == "ERR_DEGREE"


def test_point_report_wraps_periodic_coordinates():
    # The flat-torus family is equivariant, not periodic, under a chart
    # period, so these agree only because point_report wraps x + 2 pi first.
    a = geometry.point_report(CALABI, 0.3, 0.7)
    b = geometry.point_report(CALABI, 0.3 + TWO_PI, 0.7)
    assert b.xs == pytest.approx(0.3, abs=1e-14) and b.ys == 0.7
    for key, quantity in POINT_QUANTITIES.items():
        assert np.allclose(quantity(b), quantity(a), rtol=0.0, atol=1e-12), key


def test_point_report_rejects_points_outside_a_non_periodic_chart():
    sphere = surfaces.geodesic_sphere()
    for x in (-1.3, 1.2 + 1e-9):
        with pytest.raises(DomainError):
            geometry.point_report(sphere, x, 0.5)


def test_point_report_rejects_degenerate_expression_surfaces():
    degenerate = surfaces.from_expression(("1", "0", "0"), {}, DOM)
    with pytest.raises(DegenerateMetricError, match=r"at chart point \(x, y\) = \(0\.5, 0\.5\)"):
        geometry.point_report(degenerate, 0.5, 0.5)
