"""Truncated Taylor jets: the finite-difference oracle, ring laws, transcendentals.

The central-difference ladder test comes first: it is the independent oracle
everything jet-exact in this package is measured against.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legendrian_lab import jets
from legendrian_lab.errors import DegreeError, DivideByZeroJetError, DomainError


def _sample(x, y):
    """A composite with every analytic primitive in play."""
    X, Y = (x, y) if isinstance(x, jets.Jet2) else jets.lift_point(x, y, 0)
    return jets.exp(0.3 * X) * jets.sin(X * Y) + 1.0 / (2.0 + jets.cos(Y))


def _richardson(f, x, y, axis, h=1e-3):
    """4th-order central difference with one Richardson level (the oracle)."""

    def at(dx, dy):
        return complex(_sample(x + dx, y + dy).value) if f is None else f(x + dx, y + dy)

    def central(step):
        if axis == 0:
            return (
                8.0 * (at(step, 0) - at(-step, 0)) - (at(2 * step, 0) - at(-2 * step, 0))
            ) / (12.0 * step)
        return (
            8.0 * (at(0, step) - at(0, -step)) - (at(0, 2 * step) - at(0, -2 * step))
        ) / (12.0 * step)

    return (16.0 * central(h / 2) - central(h)) / 15.0


def test_oracle_jet_partials_match_richardson_differences():
    """Order-1..3 jet partials agree with the FD ladder to relative 1e-7."""
    rng = np.random.default_rng(17)
    for _ in range(10):
        x0 = float(rng.uniform(-1.5, 1.5))
        y0 = float(rng.uniform(-1.5, 1.5))
        F = _sample(*jets.lift_point(x0, y0, 4))
        for j in range(4):
            for k in range(4 - j):
                if j + k == 0:
                    continue
                exact = complex(jets.extract_partial(F, j, k))
                if j >= 1:
                    lower = lambda x, y: complex(
                        jets.extract_partial(_sample(*jets.lift_point(x, y, 3)), j - 1, k)
                    )
                    fd = _richardson(lower, x0, y0, axis=0)
                else:
                    lower = lambda x, y: complex(
                        jets.extract_partial(_sample(*jets.lift_point(x, y, 3)), j, k - 1)
                    )
                    fd = _richardson(lower, x0, y0, axis=1)
                assert abs(exact - fd) <= 1e-7 * (1.0 + abs(exact))


def test_reciprocal_chain_matches_divided_differences():
    # 1/(ab + u(x)) with u the even trigonometric factor used by the torus
    # family: the jet x-derivative against plain central differences.
    a, b, c = 1.0, 2.0, 1.0

    def f(x):
        X, _ = jets.lift_point(x, 0.0, 3)
        u = 0.5 * c * (a + b + (b - a) * jets.cos(2.0 * X))
        return 1.0 / (a * b + u)

    x0 = 0.8
    exact = complex(jets.extract_partial(f(x0), 1, 0))
    h = 1e-3
    fd = (
        8.0 * (complex(f(x0 + h).value) - complex(f(x0 - h).value))
        - (complex(f(x0 + 2 * h).value) - complex(f(x0 - 2 * h).value))
    ) / (12.0 * h)
    assert abs(exact - fd) < 1e-8


def test_lift_point_seeds_coordinates():
    X, Y = jets.lift_point(0.0, 0.0, 2)
    assert complex(jets.extract_partial(X, 1, 0)) == 1.0
    assert complex(jets.extract_partial(X, 0, 1)) == 0.0
    X, Y = jets.lift_point(1.5, -2.0, 1)
    assert complex(X.value) == 1.5
    assert complex(Y.value) == -2.0


def test_square_of_the_coordinate_jet():
    X, _ = jets.lift_point(3.0, 0.0, 2)
    sq = X * X
    assert complex(jets.extract_partial(sq, 0, 0)) == 9.0
    assert complex(jets.extract_partial(sq, 1, 0)) == 6.0
    assert complex(jets.extract_partial(sq, 2, 0)) == 2.0  # coefficient c20 = 1


def test_product_jet_at_a_generic_point():
    X, Y = jets.lift_point(2.0, 3.0, 2)
    p = X * Y
    assert complex(jets.extract_partial(p, 0, 0)) == 6.0
    assert complex(jets.extract_partial(p, 1, 0)) == 3.0
    assert complex(jets.extract_partial(p, 0, 1)) == 2.0
    assert complex(jets.extract_partial(p, 1, 1)) == 1.0
    assert complex(jets.extract_partial(p, 2, 0)) == 0.0


def test_extract_partial_returns_derivatives_not_coefficients():
    X, Y = jets.lift_point(1.0, 1.0, 4)
    f = X * X * Y
    assert complex(jets.extract_partial(f, 2, 1)) == pytest.approx(2.0)


def test_division_by_itself_is_the_unit_jet():
    X, Y = jets.lift_point(0.4, -0.9, 3)
    f = jets.exp(X) * (2.0 + jets.sin(Y))
    one = f / f
    expected = jets.constant(1.0, 3).coeffs
    assert np.allclose(one.coeffs, expected, atol=1e-13)


def test_exponential_of_zero_and_the_circle_identity():
    assert complex(jets.exp(jets.constant(0.0, 2)).value) == 1.0
    X, _ = jets.lift_point(0.7, 0.0, 4)
    circle = jets.sin(X) * jets.sin(X) + jets.cos(X) * jets.cos(X)
    assert np.max(np.abs(circle.coeffs - jets.constant(1.0, 4).coeffs)) < 1e-13


def test_unit_frequency_exponential_derivative_closed_form():
    # d/dt exp(i w t) = i w exp(i w t) with w = 0.6/0.8.
    w = 0.6 / 0.8
    X, _ = jets.lift_point(0.4, 0.0, 2)
    f = jets.exp(1j * w * X)
    value = complex(f.value)
    deriv = complex(jets.extract_partial(f, 1, 0))
    assert abs(value - np.exp(1j * w * 0.4)) < 1e-15
    assert abs(deriv - 1j * w * value) < 1e-15


coeff_arrays = st.lists(
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    min_size=20,
    max_size=20,
)


def _jet3(values):
    re, im = np.asarray(values[:10]), np.asarray(values[10:])
    return jets.Jet2(3, (re + 1j * im).astype(complex))


@given(coeff_arrays, coeff_arrays, coeff_arrays)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a_vals, b_vals, c_vals):
    a, b, c = _jet3(a_vals), _jet3(b_vals), _jet3(c_vals)
    assert np.allclose(((a + b) + c).coeffs, (a + (b + c)).coeffs, atol=1e-13)
    assert np.allclose((a * b).coeffs, (b * a).coeffs, atol=1e-13)
    assert np.allclose(
        (a * (b + c)).coeffs, (a * b + a * c).coeffs, atol=1e-12
    )
    assert np.allclose(((a * b) * c).coeffs, (a * (b * c)).coeffs, atol=1e-12)


@given(coeff_arrays, coeff_arrays)
@settings(max_examples=60, deadline=None)
def test_derivation_satisfies_the_leibniz_rule(a_vals, b_vals):
    a, b = _jet3(a_vals), _jet3(b_vals)
    product_rule = (a.dx() * b + a * b.dx()).coeffs
    assert np.allclose((a * b).dx().coeffs, product_rule, atol=1e-12)
    product_rule_y = (a.dy() * b + a * b.dy()).coeffs
    assert np.allclose((a * b).dy().coeffs, product_rule_y, atol=1e-12)


def test_batched_jets_broadcast_over_the_trailing_axis():
    X, Y = jets.lift_point(np.array([1.0, 2.0]), np.array([3.0, 4.0]), 2)
    assert np.array_equal((X * Y).value, np.array([3.0 + 0j, 8.0 + 0j]))
    assert (X * Y).batch_shape == (2,)


def test_truncate_drops_high_order_terms():
    X, Y = jets.lift_point(0.5, 0.25, 4)
    f = jets.exp(X * Y)
    g = f.truncate(2)
    assert g.degree == 2
    for j in range(3):
        for k in range(3 - j):
            assert complex(jets.extract_partial(g, j, k)) == complex(
                jets.extract_partial(f, j, k)
            )


def test_branch_cut_and_degenerate_divisions_raise():
    with pytest.raises(DomainError):
        jets.log(jets.constant(-1.0, 2))
    with pytest.raises(DomainError):
        jets.sqrt(jets.constant(-4.0, 2))
    with pytest.raises(DivideByZeroJetError):
        jets.constant(0.0, 2).reciprocal()
    with pytest.raises(DegreeError):
        jets.lift_point(0.0, 0.0, jets.MAX_DEGREE + 1)
