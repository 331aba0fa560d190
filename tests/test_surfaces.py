"""Immersion catalog: constructors, chart handling, jet evaluation."""

import math

import numpy as np
import pytest

from legendrian_lab import ambient, exprlang, geometry, jets, surfaces
from legendrian_lab.errors import (
    DivideByZeroJetError,
    DomainError,
    NotOnSphereError,
    ParamConstraintError,
    UnsupportedSurfaceError,
)

TWO_PI = 2.0 * math.pi
DOM = ((0.0, TWO_PI), (0.0, TWO_PI))


def test_every_member_lands_on_the_unit_sphere(members):
    for spec in members.values():
        xs, ys = surfaces.sample_points(spec, 100, seed=1)
        F = surfaces.evaluate_jet_batch(spec, xs, ys, 0)
        norms = ambient.real_inner(F.value, F.value)
        assert np.max(np.abs(norms - 1.0)) < 1e-13


def test_every_member_satisfies_the_legendrian_conditions(members):
    for spec in members.values():
        xs, ys = surfaces.sample_points(spec, 100, seed=2)
        fr = geometry.ChartFrame.of(spec, xs, ys, degree=1)
        assert np.max(fr.legendrian_defect) < 1e-12


def test_flat_torus_value_and_first_derivatives_at_the_origin():
    spec = surfaces.calabi(0.8, 0.6, 0.6, 0.8)
    F = surfaces.evaluate_jet_batch(spec, [0.0], [0.0], 1)
    assert np.allclose(F.value[:, 0], [0.48, 0.64, 0.6], atol=1e-15)
    d_t = jets.extract_partial(F, 1, 0)[:, 0]
    assert np.allclose(d_t, [0.36j, 0.48j, -0.8j], atol=1e-15)


def test_flat_torus_metric_is_constant_diagonal():
    spec = surfaces.calabi(0.8, 0.6, 0.6, 0.8)
    for x, y in [(0.0, 0.0), (1.3, 2.2), (5.9, 0.4)]:
        pf = geometry.point_report(spec, x, y)
        assert np.allclose(pf.g, np.diag([1.0, 0.64]), atol=1e-13)


def test_twisted_torus_metric_at_the_symmetry_slice():
    pf = geometry.point_report(surfaces.mironov(1, 2, 1), 0.0, 1.7)
    assert np.allclose(pf.g, np.diag([0.5, 2.0]), atol=1e-13)


def test_minimal_members_have_vanishing_mean_curvature(members):
    for name in ("calabi_minimal", "mironov_123"):
        spec = members[name]
        xs, ys = surfaces.sample_points(spec, 50, seed=3)
        fr = geometry.ChartFrame.of(spec, xs, ys, degree=2)
        assert np.max(np.sqrt(fr.norm_H_sq)) < 1e-10


def test_geodesic_sphere_is_totally_geodesic():
    spec = surfaces.geodesic_sphere()
    assert np.allclose(
        surfaces.evaluate_jet_batch(spec, [0.0], [0.0], 0).value[:, 0],
        [1.0, 0.0, 0.0],
        atol=1e-15,
    )
    xs, ys = surfaces.sample_points(spec, 100, seed=4)
    fr = geometry.ChartFrame.of(spec, xs, ys, degree=4)
    assert np.max(np.sqrt(fr.norm_B_sq)) < 1e-11
    assert np.max(np.abs(fr.kappa - 1.0)) < 1e-10
    assert np.max(geometry.ChartFrame.of(spec, xs, ys, degree=1).legendrian_defect) < 1e-14


def test_parameter_constraints_are_enforced():
    with pytest.raises(ParamConstraintError, match="r1"):
        surfaces.calabi(0.5, 0.5, 0.6, 0.8)
    with pytest.raises(ParamConstraintError, match="r3"):
        surfaces.calabi(0.8, 0.6, 0.5, 0.5)
    with pytest.raises(ParamConstraintError, match="nonzero"):
        surfaces.calabi(1.0, 0.0, 0.6, 0.8)
    with pytest.raises(ParamConstraintError):
        surfaces.mironov(0, 2, 1)
    with pytest.raises(ParamConstraintError):
        surfaces.mironov(1, 2, -3)
    with pytest.raises(ParamConstraintError, match="exactly 3 components"):
        surfaces.from_expression(("cos(x)", "sin(x)"), {}, DOM)


def test_surface_by_name_fills_documented_defaults():
    spec = surfaces.surface_by_name("calabi")
    assert spec.params == {"r1": 0.8, "r2": 0.6, "r3": 0.6, "r4": 0.8}
    spec = surfaces.surface_by_name("mironov", {"c": 3.0})
    assert spec.params == {"a": 1.0, "b": 2.0, "c": 3.0}
    with pytest.raises(UnsupportedSurfaceError):
        surfaces.surface_by_name("klein")


def test_every_catalog_source_is_a_valid_expression_of_its_family_parameters():
    # A family is its row: the default surface carries the row's definition.
    for kind, row in surfaces.CATALOG.items():
        exprlang.require_valid(row.expressions, row.defaults)
        spec = surfaces.surface_by_name(kind)
        assert spec.expressions is row.expressions
        assert (spec.chart_domain, spec.periodic) == (row.chart_domain, row.periodic)
        assert list(spec.params.items()) == list(row.defaults.items())
        label = ", ".join(f"{name}={value:g}" for name, value in row.defaults.items())
        assert spec.label == f"{kind}({label})"


def test_expression_surfaces_are_gated_at_evaluation_time():
    off = surfaces.from_expression(("1.1", "0", "0"), {}, DOM)
    with pytest.raises(NotOnSphereError):
        surfaces.evaluate_jet_batch(off, [0.5], [0.5], 2)
    # The error names the chart point where |F| is farthest from 1.
    squashed = surfaces.from_expression(("1.1*cos(x)", "sin(x)", "0"), {}, DOM)
    with pytest.raises(NotOnSphereError, match=r"\(x, y\) = \(0, 0\.5\)"):
        surfaces.evaluate_jet_batch(squashed, [0.5 * math.pi, 0.0, 1.0], [0.25, 0.5, 0.75], 1)
    # A constant point on the sphere is fine to evaluate but has no metric.
    degenerate = surfaces.from_expression(("1", "0", "0"), {}, DOM)
    surfaces.evaluate_jet_batch(degenerate, [0.5], [0.5], 2)


def test_division_by_zero_names_the_chart_point():
    # The 5x5 half-offset grid puts a column of nodes on x = 1 exactly; the
    # error names the first of them, as verify --grid 5x5 prints it.
    pole = surfaces.from_expression(
        ("(x-1)/(x-1)", "0*x", "0*y"), {}, ((0.5, 1.5), (0.0, 1.0)), periodic=(False, False)
    )
    with pytest.raises(DivideByZeroJetError, match=r"at chart point \(x, y\) = \(1, 0\.1\d*\)"):
        surfaces.evaluate_jet_batch(pole, *surfaces.grid_points(pole, 5, 5), 2)


def test_periodic_wrap_is_bitwise_exact():
    # Representable shifts: for x a multiple of 2^-50 small enough that
    # x + fl(2*pi) is exact, the wrapped evaluation must agree bit for bit.
    def wrapped(spec, x, y):
        return surfaces.evaluate_jet_batch(spec, *surfaces.wrap_point(spec, x, y), 3)

    for spec in (surfaces.calabi(0.8, 0.6, 0.6, 0.8), surfaces.mironov(1, 2, 1)):
        for x0 in (0.5, 1.0, 1.25):
            a = wrapped(spec, x0, 0.75)
            b = wrapped(spec, x0 + TWO_PI, 0.75)
            c = wrapped(spec, x0, 0.75 + TWO_PI)
            assert np.array_equal(a.coeffs, b.coeffs)
            assert np.array_equal(a.coeffs, c.coeffs)


def test_wrap_coordinate_is_identity_in_domain():
    x = 1.2345678
    assert surfaces.wrap_coordinate(x, 0.0, TWO_PI) == x


def test_wrap_coordinate_maps_an_array_elementwise():
    out = surfaces.wrap_coordinate(np.array([7.0, -0.5, 1.0]), 0.0, TWO_PI)
    assert isinstance(out, np.ndarray)
    assert out.tolist() == [7.0 - TWO_PI, TWO_PI - 0.5, 1.0]


def test_wrap_point_rejects_out_of_range_on_non_periodic_axes():
    sph = surfaces.geodesic_sphere()
    with pytest.raises(DomainError):
        surfaces.wrap_point(sph, 1.5, 0.0)
    # ... but wraps the periodic axis silently.
    x, y = surfaces.wrap_point(sph, 0.3, 7.0)
    assert x == 0.3 and 0.0 <= y < TWO_PI


def test_sample_points_are_reproducible_and_interior():
    sph = surfaces.geodesic_sphere()
    xs1, ys1 = surfaces.sample_points(sph, 40, seed=9)
    xs2, ys2 = surfaces.sample_points(sph, 40, seed=9)
    assert np.array_equal(xs1, xs2) and np.array_equal(ys1, ys2)
    # Non-periodic axis keeps a margin for finite-difference stencils.
    assert np.min(xs1) >= -1.2 + 0.05 * 2.4
    assert np.max(xs1) <= 1.2 - 0.05 * 2.4


def test_grid_points_use_half_offset_nodes():
    spec = surfaces.calabi(0.8, 0.6, 0.6, 0.8)
    xs, ys = surfaces.grid_points(spec, 4, 8)
    assert xs.size == 32
    assert xs.min() == pytest.approx(0.5 * TWO_PI / 4)
    assert ys.min() == pytest.approx(0.5 * TWO_PI / 8)
