"""The first variation of the Willmore energy: the oracle of the variational residuals.

A base surface F is deformed to F_t = (F + tV) / |F + tV|, and d/dt at t = 0
of area and energy on ``willmore_energy``'s quadrature (nodes and weights of
``operators._quadrature``) is taken by the five-point rule.  With R = -iF,
D = Div(JH) and obs = trace<B(., nabla . JH), H>:

1. Area, for the Legendrian variation V = theta R - J grad(theta) / 2:
   dA/dt = 1/2 int theta D dA.
2. The Willmore vector W, for a normal field N = a JF_x + b JF_y + c R:
   dE/dt = int <W, N> dA.
3. csL-Willmore, for the same Legendrian V:
   dE/dt = -1/4 int theta (Delta D + 2 obs - |H|^2 D / 2 + 4 D) dA.

The left sides read only the jets of F and of the base metric, and the
degree-2 chain (metric and H) of F_t: none of the third- or fourth-order
formulas they check.  Both base surfaces are Legendrian and not csL, so
every term that multiplies D is exercised.  Every test function carries the
factor (1.44 - y^2)^4, so no boundary term enters on the non-periodic y axis,
and depends on x, because on the suspension an x-independent theta reads 0
on both sides.  Hamiltonian deformations of Lagrangians and their first
variation of area: Y.-G. Oh, Math. Z. 212 (1993).
"""

import math
from functools import lru_cache

import numpy as np
import pytest

from conftest import CONTROL
from legendrian_lab import ambient, geometry, jets, operators, surfaces

#: Quadrature nodes per axis, the t-step of the five-point rule, and the
#: tolerance relative to the larger side (the worst case seen was 4e-7).
NODES = 56
STEP = 1e-3
RTOL = 1e-5

#: The suspension (cos y * gamma(x), sin y) of the Legendrian curve
#: gamma = (e^{-ia} / sqrt(1 + a'), sqrt(a' / (1 + a')) e^{ix}), a = x + e sin x.
SUSPENSION = surfaces.from_expression(
    (
        "cos(y)*exp(-i*(x + e*sin(x)))/sqrt(2 + e*cos(x))",
        "cos(y)*sqrt((1 + e*cos(x))/(2 + e*cos(x)))*exp(i*x)",
        "sin(y)",
    ),
    {"e": 0.3},
    ((0.0, 2.0 * math.pi), (-1.2, 1.2)),
    periodic=(True, False),
)

SURFACES = {"control": CONTROL, "suspension": SUSPENSION}


def _bump(Y):
    b = 1.44 - Y * Y
    b = b * b
    return b * b


#: Hamiltonians theta of the Legendrian variations, as functions of the chart
#: jets.  Div(JH) pairs with sin 2x on the control and with sin x and sin 2x
#: on the suspension; cos x and even functions of x read 0 on both.
THETAS = (
    lambda X, Y: _bump(Y) * (jets.sin(X) + jets.sin(X * 2.0)),
    lambda X, Y: (
        _bump(Y) * (Y * Y + 1.0) * (jets.sin(X * 2.0) - jets.sin(X) * 0.5 + jets.cos(X))
    ),
)


class DerivedFrame(geometry.ChartFrame):
    """The degree-2 chain of a surface given by the jets of its immersion."""

    def __init__(self, F, xs, ys):
        self.F, self.xs, self.ys, self.degree = F, xs, ys, 2


def _deformed(F, V, t):
    G = tuple(f + v * t for f, v in zip(F, V))
    inv = jets.sqrt(ambient.real_inner(G, G)).reciprocal()
    return tuple(g * inv for g in G)


def _area_energy(fr, w):
    """(area, energy) of a frame on the quadrature nodes, summed as ``willmore_energy`` sums."""
    dA = w * np.sqrt(fr.det_g)
    energy = math.fsum((dA * (0.25 * fr.norm_H_sq + 1.0)).tolist())
    return np.array([math.fsum(dA.tolist()), energy])


@lru_cache(maxsize=None)
def _variations(name):
    """The base degree-5 frame and area element, and for each variation its
    fields and the five-point d/dt of (area, energy)."""
    spec = SURFACES[name]
    xs, ys, w = operators._quadrature(spec, NODES, NODES)
    base = geometry.ChartFrame(spec, xs, ys, degree=4)
    F = tuple(f.truncate(2) for f in base.F)
    R, JFx, JFy = ambient.reeb(base.F), ambient.apply_J(base.Fx), ambient.apply_J(base.Fy)
    X, Y = jets.lift_point(xs, ys, 3)
    ginv = base.ginv_j

    def rate(V):
        V = tuple(v.truncate(2) for v in V)
        m2, m1, p1, p2 = (
            _area_energy(DerivedFrame(_deformed(F, V, k * STEP), xs, ys), w) for k in (-2, -1, 1, 2)
        )
        return (m2 - 8.0 * m1 + 8.0 * p1 - p2) / (12.0 * STEP), V

    legendrian = []
    for theta in THETAS:
        th = theta(X, Y)
        d = (th.dx(), th.dy())
        grad = [ginv[i][0] * d[0] + ginv[i][1] * d[1] for i in range(2)]
        J_grad = ambient.apply_J(tuple(grad[0] * p + grad[1] * q for p, q in zip(base.Fx, base.Fy)))
        (dA, dE), V = rate(tuple(th * r - jg * 0.5 for r, jg in zip(R, J_grad)))
        legendrian.append((np.real(th.value), V, dA, dE))
    a, b, c = (_bump(Y) * f for f in (jets.cos(X), jets.sin(X), jets.sin(X * 2.0)))
    N = tuple(a * p + b * q + c * r for p, q, r in zip(JFx, JFy, R))
    (_, dE), _ = rate(N)
    return {
        "frame": geometry.ChartFrame(spec, xs, ys, degree=5),
        "F": F,
        "dA": w * np.sqrt(base.det_g),
        "legendrian": legendrian,
        "normal": (geometry.values(N), dE),
    }


def _agree(lhs, rhs):
    return abs(lhs - rhs) <= RTOL * max(abs(lhs), abs(rhs))


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_the_variations_are_legendrian_to_first_order(name):
    # The Legendrian defect of F_t is O(t^2) for V = theta R - J grad(theta)/2:
    # doubling t quadruples it.  (With +J grad(theta)/2 it would be O(t).)
    v = _variations(name)
    for _, V, _, _ in v["legendrian"]:
        h, h2 = (
            np.max(geometry.legendrian_defect(_deformed(v["F"], V, t))) for t in (STEP, 2 * STEP)
        )
        assert 3.9 < h2 / h < 4.1 and h < 1e-3


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_the_derived_sum_is_willmore_energys_quadrature(name):
    # At t = 0 the derived chain on the shared nodes and weights reproduces
    # willmore_energy, so d/dt is taken of the energy the CLI reports.
    xs, ys, w = operators._quadrature(SURFACES[name], NODES, NODES)
    fr = DerivedFrame(_deformed(_variations(name)["F"], (0.0, 0.0, 0.0), 0.0), xs, ys)
    expected = operators.willmore_energy(SURFACES[name], (NODES, NODES))
    assert _area_energy(fr, w) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_area_varies_by_half_the_integral_of_theta_div_JH(name):
    v = _variations(name)
    D = v["frame"].div_JH
    assert np.max(np.abs(D)) > 1.0  # not csL
    for theta, _, dA, _ in v["legendrian"]:
        rhs = 0.5 * np.sum(v["dA"] * theta * D)
        assert abs(rhs) > 0.1 and _agree(dA, rhs), (dA, rhs)


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_energy_varies_by_the_willmore_vector_along_normal_fields(name):
    v = _variations(name)
    N, dE = v["normal"]
    rhs = np.sum(v["dA"] * ambient.real_inner(v["frame"].willmore, N))
    assert abs(rhs) > 1e-2 and _agree(dE, rhs), (dE, rhs)


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_energy_varies_by_the_csl_willmore_residual_along_legendrian_fields(name):
    v = _variations(name)
    fr = v["frame"]
    D = fr.div_JH
    signed = fr.laplace_div_JH + 2.0 * fr.obstruction_density - 0.5 * fr.norm_H_sq * D + 4.0 * D
    for theta, _, _, dE in v["legendrian"]:
        rhs = -0.25 * np.sum(v["dA"] * theta * signed)
        assert abs(rhs) > 0.1 and _agree(dE, rhs), (dE, rhs)
    # ... and the residual verify reports is the magnitude of that bracket.
    scale = np.max(np.abs(signed))
    assert np.allclose(fr.csl_willmore_residual, np.abs(signed), rtol=0.0, atol=1e-12 * scale)
