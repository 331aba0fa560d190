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
on both sides.  Each F_t is a ``ChartFrame`` of the jets it is given; only
the base surface is evaluated from its spec.  Hamiltonian deformations of
Lagrangians and their first variation of area: Y.-G. Oh, Math. Z. 212 (1993).

The last tests look for non-csL surfaces with S = 0, S the bracket of 3, in
two families where S and D read x only (up to a power of cos y): suspensions
of Legendrian curves, which cannot be csL-Willmore without being csL, and
Mironov tori whose phases a function lam(x) twists, built as jets.
"""

import math
from functools import cached_property, lru_cache

import numpy as np
import pytest

from conftest import CONTROL
from legendrian_lab import ambient, geometry, jets, operators, surfaces

#: Quadrature nodes per axis, the t-step of the five-point rule, and the
#: tolerance relative to the larger side (the worst case seen was 4e-7).
NODES = 56
STEP = 1e-3
RTOL = 1e-5


def _suspension(a, da, params):
    """The suspension (cos y * gamma(x), sin y) of the Legendrian curve
    gamma = (e^{-ia} / sqrt(1 + a'), sqrt(a' / (1 + a')) e^{ix}), with a' = 1 + da."""
    return surfaces.from_expression(
        (
            f"cos(y)*exp(-i*({a}))/sqrt(2 + {da})",
            f"cos(y)*sqrt((1 + {da})/(2 + {da}))*exp(i*x)",
            "sin(y)",
        ),
        params,
        ((0.0, 2.0 * math.pi), (-1.2, 1.2)),
        periodic=(True, False),
    )


SUSPENSION = _suspension("x + e*sin(x)", "e*cos(x)", {"e": 0.3})

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


def _shared_normal(X):
    return jets.cos(X), jets.sin(X), jets.sin(X * 2.0)


#: Normal fields N = bump(y) (a JF_x + b JF_y + c R), as (a, b, c) of the x
#: jet.  On the control the B(JH, JH) term of W integrates to 0 against the
#: shared field, so each surface adds one along JF_x on which that term
#: carries at least 1% of the integral of <W, N> (130% on the control, 3.7%
#: on the suspension).
NORMALS = {
    "control": (_shared_normal, lambda X: (jets.cos(X * 2.0), 0.0, 0.0)),
    "suspension": (_shared_normal, lambda X: (jets.cos(X), 0.0, 0.0)),
}


def _nodes(spec):
    """``willmore_energy``'s nodes and flat weights at NODES per axis."""
    xs, ys, (xw, yw) = operators._quadrature(spec, NODES, NODES)
    return xs, ys, np.outer(xw, yw).ravel()


def _deformed(F, V, t):
    G = F + V * t
    inv = jets.sqrt(ambient.real_inner(G, G)).reciprocal()
    return G * inv


def _area_energy(fr, w):
    """(area, energy) of a frame on the quadrature nodes, summed as ``willmore_energy`` sums."""
    dA = w * np.sqrt(fr.det_g)
    energy = math.fsum((dA * (0.25 * fr.norm_H_sq + 1.0)).tolist())
    return np.array([math.fsum(dA.tolist()), energy])


@lru_cache(maxsize=None)
def _variations(name):
    """The base degree-5 frame and area element, and for each variation its
    fields and the five-point d/dt of (area, energy).  The surface is
    evaluated once; every deformed frame is built from given jets."""
    spec = SURFACES[name]
    xs, ys, w = _nodes(spec)
    base = geometry.ChartFrame.of(spec, xs, ys, degree=5)
    F = base.F.truncate(2)
    R, JFx, JFy = ambient.reeb(base.F), ambient.apply_J(base.Fx), ambient.apply_J(base.Fy)
    X, Y = jets.lift_point(xs, ys, 3)
    ginv = base.ginv_j

    def rate(V):
        V = V.truncate(2)
        m2, m1, p1, p2 = (
            _area_energy(geometry.ChartFrame(_deformed(F, V, k * STEP), xs, ys, 2), w)
            for k in (-2, -1, 1, 2)
        )
        return (m2 - 8.0 * m1 + 8.0 * p1 - p2) / (12.0 * STEP), V

    legendrian = []
    for theta in THETAS:
        th = theta(X, Y)
        d = (th.dx(), th.dy())
        grad = [ginv[i][0] * d[0] + ginv[i][1] * d[1] for i in range(2)]
        J_grad = ambient.apply_J(grad[0] * base.Fx + grad[1] * base.Fy)
        (dA, dE), V = rate(th * R - J_grad * 0.5)
        legendrian.append((np.real(th.value), V, dA, dE))
    normal = []
    for coefficients in NORMALS[name]:
        a, b, c = (_bump(Y) * f for f in coefficients(X))
        N = a * JFx + b * JFy + c * R
        (_, dE), _ = rate(N)
        normal.append((N.value, dE))
    return {
        "frame": base,
        "F": F,
        "dA": w * np.sqrt(base.det_g),
        "legendrian": legendrian,
        "normal": normal,
    }


def _agree(lhs, rhs):
    return abs(lhs - rhs) <= RTOL * max(abs(lhs), abs(rhs))


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_the_variations_are_legendrian_to_first_order(name):
    # The Legendrian defect of F_t is O(t^2) for V = theta R - J grad(theta)/2:
    # doubling t quadruples it.  (With +J grad(theta)/2 it would be O(t).)
    v = _variations(name)
    xs, ys = v["frame"].xs, v["frame"].ys
    for _, V, _, _ in v["legendrian"]:
        h, h2 = (
            np.max(geometry.ChartFrame(_deformed(v["F"], V, t), xs, ys, 2).legendrian_defect)
            for t in (STEP, 2 * STEP)
        )
        assert 3.9 < h2 / h < 4.1 and h < 1e-3


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_the_derived_sum_is_willmore_energys_quadrature(name):
    # At t = 0 the chain of the given jets on the shared nodes and weights
    # reproduces willmore_energy, so d/dt is taken of the energy the CLI reports.
    xs, ys, w = _nodes(SURFACES[name])
    fr = geometry.ChartFrame(_deformed(_variations(name)["F"], 0.0, 0.0), xs, ys, 2)
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


def _willmore_side(fr, dA, N):
    """int <W, N> dA, and the share of it that W's B(JH, JH) / 2 term carries."""
    total = np.sum(dA * ambient.real_inner(fr.willmore, N))
    term = np.sum(dA * ambient.real_inner(0.5 * fr.B_JH_JH_j.value, N))
    return total, term / total


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_energy_varies_by_the_willmore_vector_along_normal_fields(name):
    v = _variations(name)
    shares = []
    for N, dE in v["normal"]:
        rhs, share = _willmore_side(v["frame"], v["dA"], N)
        assert abs(rhs) > 1e-2 and _agree(dE, rhs), (dE, rhs, f"B(JH, JH) share {share:.3g}")
        shares.append(share)
    assert abs(shares[-1]) >= 0.01, f"B(JH, JH) share {shares[-1]:.3g}"


class ScaledBFrame(geometry.ChartFrame):
    """A frame whose B(JH, JH) is 1 + 1e-3 times too large."""

    @cached_property
    def B_JH_JH_j(self):
        return geometry.ChartFrame.B_JH_JH_j.func(self) * (1.0 + 1e-3)


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_the_willmore_vector_relation_fires_on_a_scaled_B_JH_JH(name):
    # On each surface's own normal field the scaled term moves int <W, N> dA
    # by more than RTOL, so the relation fails where the plain frame passes.
    v = _variations(name)
    N, dE = v["normal"][-1]
    plain = v["frame"]
    scaled = ScaledBFrame.of(SURFACES[name], plain.xs, plain.ys, degree=4)
    rhs, share = _willmore_side(plain, v["dA"], N)
    assert _agree(dE, rhs), (dE, rhs, f"B(JH, JH) share {share:.3g}")
    rhs, share = _willmore_side(scaled, v["dA"], N)
    assert not _agree(dE, rhs), (dE, rhs, f"B(JH, JH) share {share:.3g}")


def _bracket(fr):
    """The signed csL-Willmore bracket S = Delta D + 2 obs - |H|^2 D / 2 + 4 D."""
    D = fr.div_JH
    return fr.laplace_div_JH + 2.0 * fr.obstruction_density - 0.5 * fr.norm_H_sq * D + 4.0 * D


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_energy_varies_by_the_csl_willmore_residual_along_legendrian_fields(name):
    v = _variations(name)
    fr = v["frame"]
    signed = _bracket(fr)
    for theta, _, _, dE in v["legendrian"]:
        rhs = -0.25 * np.sum(v["dA"] * theta * signed)
        assert abs(rhs) > 0.1 and _agree(dE, rhs), (dE, rhs)
    # ... and the residual verify reports is the magnitude of that bracket.
    scale = np.max(np.abs(signed))
    assert np.allclose(fr.csl_willmore_residual, np.abs(signed), rtol=0.0, atol=1e-12 * scale)


# -- csL-Willmore surfaces among suspensions and equivariant tori ---------------
# A csL-Willmore surface has S = 0.  The two families below reduce S and D to
# functions of x, so the question whether a non-csL one exists is one ODE.


def _y_spread(v, nx, ny):
    """Largest spread over y of a map on an x-major nx-by-ny grid."""
    return np.max(np.ptp(v.reshape(nx, ny), axis=1))


@pytest.mark.parametrize(
    "spec",
    [
        SUSPENSION,
        _suspension("x + 0.2*sin(x) + 0.1*cos(2*x)", "0.2*cos(x) - 0.2*sin(2*x)", {}),
        CONTROL,
    ],
    ids=["suspension", "suspension_cos2x", "control"],
)
def test_a_csl_willmore_suspension_is_csl(spec):
    """On a suspension D = d(x) / cos^2 y and S = (P(x) + 2 d(x) cos^2 y) / cos^4 y.

    So S = 0 for all y forces d = 0, hence D = 0: a csL-Willmore suspension
    is csL, and no choice of the curve gamma gives a non-csL example.
    """
    nx, ny = 40, 9
    x, y = np.linspace(0.05, 2.0 * math.pi - 0.05, nx), np.linspace(-1.0, 1.0, ny)
    xs, ys = (g.ravel() for g in np.meshgrid(x, y, indexing="ij"))
    fr = geometry.ChartFrame.of(spec, xs, ys, degree=5)
    D, S, c2 = fr.div_JH, _bracket(fr), np.cos(ys) ** 2
    tol = 1e-12 * np.max(np.abs(S))
    assert _y_spread(D * c2, nx, ny) <= tol
    assert _y_spread((S - 2.0 * D) * c2 * c2, nx, ny) <= tol
    # Neither D nor S cos^4 y alone is a function of x, so the test is not vacuous.
    assert _y_spread(D, nx, ny) >= 0.3 and _y_spread(S * c2 * c2, nx, ny) >= 0.3


def _twisted_mironov(a, b, c, lam, xs, ys, degree):
    """The jet-vector of the Mironov torus with weights (a, b, -c) whose phases are twisted by lam:

    F = (r1 e^{i(ay + p1)}, r2 e^{i(by + p2)}, r3 e^{-icy}), with the moduli r_k
    of ``surfaces.mironov`` and p1' = lam r2^2, p2' = -lam r1^2, which keeps F
    Legendrian.  With m1 = c/(a+c) and m2 = c/(b+c) the phases are
    p1 = lam m2 (x/2 + sin 2x / 4) and p2 = -lam m1 (x/2 - sin 2x / 4).
    """
    X, Y = jets.lift_point(xs, ys, degree)
    m1, m2 = c / (a + c), c / (b + c)
    u = jets.cos(X * 2.0) * (c * (b - a) / 2.0) + c * (a + b) / 2.0
    r1 = jets.sin(X) * math.sqrt(m1)
    r2 = jets.cos(X) * math.sqrt(m2)
    r3 = jets.sqrt(u + a * b) * (1.0 / math.sqrt((a + c) * (b + c)))
    s = jets.sin(X * 2.0) * 0.25
    p1 = (X * 0.5 + s) * (lam * m2)
    p2 = (X * 0.5 - s) * (-lam * m1)
    return jets.vector(
        r1 * jets.exp(Y * (1j * a) + p1 * 1j),
        r2 * jets.exp(Y * (1j * b) + p2 * 1j),
        r3 * jets.exp(Y * (-1j * c)),
    )


def _twisted_frame(abc, lam):
    xs, ys = surfaces.grid_points(surfaces.mironov(*abc), 40, 9)
    return geometry.ChartFrame(_twisted_mironov(*abc, lam, xs, ys, 5), xs, ys, 5)


@pytest.mark.parametrize("abc", [(1, 2, 1), (1, 2, 3), (1, 1, 1)])
def test_the_untwisted_torus_is_bitwise_the_catalog_mironov_torus(abc):
    fr = _twisted_frame(abc, 0.0)
    ref = geometry.ChartFrame.of(surfaces.mironov(*abc), fr.xs, fr.ys, degree=5)
    assert np.array_equal(fr.F.coeffs, ref.F.coeffs)
    assert np.array_equal(fr.div_JH, ref.div_JH)
    assert np.array_equal(fr.csl_willmore_residual, ref.csl_willmore_residual)


@pytest.mark.parametrize("lam", [0.05, 0.4])
def test_a_twisted_torus_is_legendrian_not_csl_and_its_bracket_reads_x_only(lam):
    # The twist makes D and S functions of x alone, so csL-Willmore is one
    # ODE for lam(x); a constant twist is not a solution.
    fr = _twisted_frame((1, 2, 1), lam)
    D, S = fr.div_JH, _bracket(fr)
    assert np.max(fr.legendrian_defect) <= 1e-13
    assert np.max(np.abs(D)) > 0.1 and np.max(np.abs(S)) > 1.0
    tol = 1e-12 * np.max(np.abs(S))
    assert _y_spread(D, 40, 9) <= tol and _y_spread(S, 40, 9) <= tol
