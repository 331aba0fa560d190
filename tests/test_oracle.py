"""Independent high-precision oracle for the jet geometry chain.

Each surface is written out again as plain mpmath formulas, differentiated by
``mpmath.diff`` at 40 digits (no jets, no ``operators`` code), and pushed
through textbook definitions:

* g_ij = <F_i, F_j> (real part of the hermitian product);
* B_ij = the part of F_ij normal to span(F_x, F_y, F), by projection rather
  than through Christoffel symbols;
* H = g^{ij} B_ij and the Gauss equation kappa = 1 + (<B_xx,B_yy> - |B_xy|^2)/det g;
* Div(JH) = (1/sqrt g) d_i (sqrt g a^i) with a^i = g^{ij} <JH, F_j>, the outer
  derivative again by ``mpmath.diff``.

``ChartFrame`` must reproduce every one of these to 1e-12 at a few chart
points per member, including the non-csL control where Div(JH) is of order 1
and a sheared chart of mironov(1, 2, 1), the one member whose metric has an
off-diagonal entry.
"""

import json
import math

import numpy as np
import pytest

from legendrian_lab import cli, geometry, surfaces

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

TOL = 1e-12

CONTROL_SOURCES = (
    "cos(y)*cos(x)*exp(i*(x/2 - sin(2*x)/4))",
    "cos(y)*sin(x)*exp(-i*(x/2 + sin(2*x)/4))",
    "sin(y)",
)


def _calabi(x, y):
    r1, r2, r3, r4 = (mpmath.mpf(v) for v in (0.8, 0.6, 0.6, 0.8))
    return (
        r1 * r3 * mpmath.expj(r2 / r1 * x + r4 / r3 * y),
        r1 * r4 * mpmath.expj(r2 / r1 * x - r3 / r4 * y),
        r2 * mpmath.expj(-r1 / r2 * x),
    )


def _mironov_121(x, y):
    a, b, c = 1, 2, 1
    u = c * (a + b + (b - a) * mpmath.cos(2 * x)) / 2
    phi = mpmath.sqrt(mpmath.mpf(c) / (a + c)) * mpmath.sin(x)
    psi = mpmath.sqrt(mpmath.mpf(c) / (b + c)) * mpmath.cos(x)
    zeta = mpmath.sqrt((a * b + u) / ((a + c) * (b + c)))
    return phi * mpmath.expj(a * y), psi * mpmath.expj(b * y), zeta * mpmath.expj(-c * y)


#: mironov(1, 2, 1) in the sheared chart x -> x + 0.3 y, where g_xy = 0.3 g_xx != 0.
SHEARED_MIRONOV_SOURCES = (
    "sqrt(1/2)*sin(x + 0.3*y)*exp(i*y)",
    "sqrt(1/3)*cos(x + 0.3*y)*exp(2*i*y)",
    "sqrt((2 + (3 + cos(2*(x + 0.3*y)))/2)/6)*exp(-i*y)",
)


def _sheared_mironov_121(x, y):
    return _mironov_121(x + mpmath.mpf("0.3") * y, y)


def _sphere(x, y):
    return mpmath.cos(x) * mpmath.cos(y), mpmath.cos(x) * mpmath.sin(y), mpmath.sin(x)


def _control(x, y):
    phase = mpmath.sin(2 * x) / 4
    return (
        mpmath.cos(y) * mpmath.cos(x) * mpmath.expj(x / 2 - phase),
        mpmath.cos(y) * mpmath.sin(x) * mpmath.expj(-(x / 2 + phase)),
        mpmath.sin(y),
    )


CASES = [
    (surfaces.calabi(0.8, 0.6, 0.6, 0.8), _calabi, [(0.3, 0.7), (2.9, 5.1)]),
    (surfaces.mironov(1, 2, 1), _mironov_121, [(0.4, 0.9), (1.3, 4.2)]),
    (surfaces.geodesic_sphere(), _sphere, [(0.2, 1.1), (-0.7, 3.9)]),
    (
        surfaces.from_expression(
            CONTROL_SOURCES, {}, ((0.0, 2.0 * math.pi), (-1.2, 1.2)), periodic=(True, False)
        ),
        _control,
        [(0.37, 0.41), (2.2, -0.8)],
    ),
    (
        surfaces.from_expression(
            SHEARED_MIRONOV_SOURCES, {}, ((0.0, 2.0 * math.pi), (-2.0, 2.0)), periodic=(True, False)
        ),
        _sheared_mironov_121,
        [(0.4, 0.9), (1.3, -1.7)],
    ),
]


def _inner(u, v):
    return mpmath.re(sum(a * mpmath.conj(b) for a, b in zip(u, v)))


def _partial(F, x, y, order):
    return [mpmath.diff(lambda s, t, m=m: F(s, t)[m], (x, y), order) for m in range(3)]


def _oracle(F, x, y):
    """g, B, H, kappa and the flux sqrt(g) a^i of JH at one point."""
    p = F(x, y)
    Fi = [_partial(F, x, y, (1, 0)), _partial(F, x, y, (0, 1))]
    g = [[_inner(Fi[i], Fi[j]) for j in range(2)] for i in range(2)]
    det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    ginv = [[g[1][1] / det, -g[0][1] / det], [-g[1][0] / det, g[0][0] / det]]

    def normal_part(v):
        w = [_inner(v, Fi[l]) for l in range(2)]
        t = [ginv[k][0] * w[0] + ginv[k][1] * w[1] for k in range(2)]
        r = _inner(v, p)
        return [v[m] - t[0] * Fi[0][m] - t[1] * Fi[1][m] - r * p[m] for m in range(3)]

    orders = {(0, 0): (2, 0), (0, 1): (1, 1), (1, 0): (1, 1), (1, 1): (0, 2)}
    B = [[normal_part(_partial(F, x, y, orders[i, j])) for j in range(2)] for i in range(2)]
    H = [sum(ginv[i][j] * B[i][j][m] for i in range(2) for j in range(2)) for m in range(3)]
    kappa = 1 + (_inner(B[0][0], B[1][1]) - _inner(B[0][1], B[0][1])) / det
    JH = [1j * h for h in H]
    omega = [_inner(JH, Fi[j]) for j in range(2)]
    flux = [mpmath.sqrt(det) * (ginv[i][0] * omega[0] + ginv[i][1] * omega[1]) for i in range(2)]
    return {"g": g, "B": B, "H": H, "kappa": kappa, "flux": flux, "sqrt_det": mpmath.sqrt(det)}


def _div_JH(F, x, y):
    d_flux = [
        mpmath.diff(lambda s, t, i=i: _oracle(F, s, t)["flux"][i], (x, y), order)
        for i, order in enumerate([(1, 0), (0, 1)])
    ]
    return (d_flux[0] + d_flux[1]) / _oracle(F, x, y)["sqrt_det"]


def _as_complex(v):
    return np.array([complex(c) for c in v])


@pytest.mark.parametrize(
    "spec, F, points",
    CASES,
    ids=["calabi", "mironov_121", "geodesic_sphere", "control", "sheared_mironov_121"],
)
def test_chart_frame_matches_the_mpmath_oracle(spec, F, points):
    xs, ys = (np.array(t) for t in zip(*points))
    fr = geometry.ChartFrame.of(spec, xs, ys, degree=4)
    with mp.workdps(40):
        for n, (x, y) in enumerate(points):
            x, y = mpmath.mpf(x), mpmath.mpf(y)
            ref = _oracle(F, x, y)
            g = np.array([[float(v) for v in row] for row in ref["g"]])
            assert np.max(np.abs(fr.g[..., n] - g)) < TOL
            for i in range(2):
                for j in range(2):
                    assert np.max(np.abs(fr.B[i, j, :, n] - _as_complex(ref["B"][i][j]))) < TOL
            assert np.max(np.abs(fr.H[:, n] - _as_complex(ref["H"]))) < TOL
            assert abs(fr.kappa[n] - float(ref["kappa"])) < TOL
            assert abs(fr.div_JH[n] - float(_div_JH(F, x, y))) < TOL
    if F is _sheared_mironov_121:
        # Not vacuous: the off-diagonal metric entry, and with it g^xy, B_xy
        # and the mixed Christoffels, is far from zero here.
        assert np.all(np.abs(fr.g[0, 1]) > 0.05)
    elif spec.kind == "expression":
        # The control is Legendrian but not csL: Div(JH) is of order one
        # there, so the comparison above is not one of zeros.
        assert fr.div_JH[0] == pytest.approx(-3.38, abs=5e-3)


def test_the_sheared_mironov_chart_verifies(capsys, tmp_path):
    # mironov(1, 2, 1) is csL and csL-Willmore in every chart: every check
    # passes but willmore_implies_minimal, which no point is gated into.
    path = tmp_path / "sheared.expr"
    keys = [f"f{n} = {src}" for n, src in enumerate(SHEARED_MIRONOV_SOURCES, 1)]
    path.write_text("\n".join(keys + ["periodic = true, false", "y_range = -2, 2", ""]))
    assert cli.main(["verify", "--expr-file", str(path), "--format", "json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    not_passed = {c["name"]: c["status"] for c in checks if c["status"] != "PASS"}
    assert not_passed == {"willmore_implies_minimal": "SKIP"}
