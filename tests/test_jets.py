"""Truncated Taylor jets: the finite-difference oracle, ring laws, transcendentals.

The central-difference ladder test comes first: it is the independent oracle
everything jet-exact in this package is measured against.
"""

import math

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


@pytest.mark.parametrize("divisor", [0.0, 1e-15, -1e-15j, np.array([2.0, 0.0])])
def test_division_by_a_vanishing_scalar_raises_instead_of_returning_inf(divisor):
    x = jets.lift_point(np.array([0.5, 0.5]), np.array([0.5, 0.5]), 2)[0]
    with pytest.raises(DivideByZeroJetError) as err:
        x / divisor
    assert err.value.magnitude is None


def test_division_by_a_scalar_scales_the_coefficients():
    x = jets.lift_point(0.5, 0.5, 2)[0]
    assert np.array_equal((x / 2.0).coeffs, x.coeffs * 0.5)


# -- the product kernel and the dtype rule, against plain Python loops --------


def _random_jet(rng, degree, kind, n=5):
    shape = (jets._ncoef(degree), n)
    c = rng.uniform(-2.0, 2.0, shape)
    if kind == "complex":
        c = c + 1j * rng.uniform(-2.0, 2.0, shape)
    return jets.Jet2(degree, c)


def _naive_product(a, b):
    """The truncated product by a double loop over exponent pairs, point by point."""
    degree = min(a.degree, b.degree)
    exps = jets._exponents(degree)
    n = a.coeffs.shape[1]
    out = [[0.0] * n for _ in exps]
    scale = [[0.0] * n for _ in exps]
    for i1, (j1, k1) in enumerate(exps):
        for i2, (j2, k2) in enumerate(exps):
            if j1 + k1 + j2 + k2 > degree:
                continue
            o = jets._index(j1 + j2, k1 + k2)
            for p in range(n):
                term = a.coeffs[i1, p].item() * b.coeffs[i2, p].item()
                out[o][p] += term
                scale[o][p] += abs(term)
    return np.array(out), np.array(scale)


@pytest.mark.parametrize("kinds", [("real", "real"), ("complex", "complex"),
                                   ("real", "complex"), ("complex", "real")])
@pytest.mark.parametrize("degrees", [(d, d) for d in range(6)] + [(5, 2), (1, 4), (3, 5)])
def test_product_matches_a_naive_double_loop(degrees, kinds):
    rng = np.random.default_rng(sum(degrees) + 10 * len(kinds[0] + kinds[1]))
    a = _random_jet(rng, degrees[0], kinds[0])
    b = _random_jet(rng, degrees[1], kinds[1])
    product = a * b
    expected, scale = _naive_product(a, b)
    assert product.degree == min(degrees)
    assert np.iscomplexobj(product.coeffs) == ("complex" in kinds)
    assert np.all(np.abs(product.coeffs - expected) <= 1e-15 * scale)


def test_real_jets_stay_real():
    X, Y = jets.lift_point(np.array([0.3, 0.7]), np.array([1.1, 0.2]), 5)
    f = 2.0 + X * Y
    results = {
        "lift_point": X,
        "constant": jets.constant(1.5, 5, (2,)),
        "add": f + X,
        "sub": f - 1.0,
        "mul": f * Y,
        "div": X / f,
        "rdiv": 1.0 / f,
        "reciprocal": f.reciprocal(),
        "sqrt": jets.sqrt(f),
        "sin": jets.sin(f),
        "cos": jets.cos(X),
        "exp": jets.exp(f),
        "log": jets.log(f),
        "dx": f.dx(),
        "dy": f.dy(),
        "real_part": f.real_part(),
        "imag_part": f.imag_part(),
        "real_part of complex": (f * 1j).real_part(),
        "imag_part of complex": (f * 1j).imag_part(),
    }
    for name, jet in results.items():
        assert jet.coeffs.dtype == np.float64, name
    assert f.conjugate() is f
    assert np.array_equal((f * 1j).imag_part().coeffs, f.coeffs)
    for mixed in (f * jets.constant(1j, 5, (2,)), f * 1j, f + 1j, jets.exp(f * 1j),
                  jets.lift_point(1j, 0.0, 2)[0]):
        assert mixed.coeffs.dtype == np.complex128
    assert complex((f + 1j).value[0]) == complex(f.value[0]) + 1j


def _horner(a, taylor_coeffs):
    """sum_n f_n (a - a0)^n by Horner's rule over jet products (the reference)."""
    w = a - a.value
    result = jets.constant(taylor_coeffs[-1], a.degree, a.batch_shape)
    for fn in reversed(taylor_coeffs[:-1]):
        result = result * w + fn
    return result


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_affine_closed_form_matches_horner(kind):
    rng = np.random.default_rng(5 if kind == "real" else 6)
    X, Y = jets.lift_point(np.zeros(6), np.zeros(6), 5)
    p, q, a0 = (rng.uniform(-2.0, 2.0, 6) for _ in range(3))
    if kind == "complex":
        p, q = p + 1j * rng.uniform(-2.0, 2.0, 6), q - 1j * rng.uniform(-2.0, 2.0, 6)
    arg = X * p + Y * q + a0
    f = [np.exp(arg.value) / math.factorial(n) for n in range(6)]
    closed = jets._compose(arg, f)
    reference = _horner(arg, f)
    assert np.all(np.abs(closed.coeffs - reference.coeffs) <= 1e-14 * np.abs(reference.coeffs))
    assert np.array_equal(jets.exp(arg).coeffs, closed.coeffs)


def test_non_affine_arguments_take_horner(monkeypatch):
    X, Y = jets.lift_point(np.array([0.4, -0.3]), np.array([0.9, 0.1]), 4)
    arg = X * Y + jets.sin(X)
    f = [np.exp(arg.value) / math.factorial(n) for n in range(5)]
    calls = []
    original = jets._affine_series
    monkeypatch.setattr(
        jets, "_affine_series", lambda *args: calls.append(1) or original(*args)
    )
    assert np.array_equal(jets._compose(arg, f).coeffs, _horner(arg, f).coeffs)
    assert calls == []
    jets._compose(X * 2.0 - Y, f)
    assert calls == [1]


# -- jet-vectors: batch axes broadcast, the coefficient axis never -----------


def _vector_jet(rng, degree, points):
    """A complex jet-vector: batch shape (3,) + points."""
    shape = (jets._ncoef(degree), 3) + points
    return jets.Jet2(degree, rng.uniform(-2.0, 2.0, shape) + 1j * rng.uniform(-2.0, 2.0, shape))


def _component(V, k):
    return jets.Jet2(V.degree, V.coeffs[:, k])


@pytest.mark.parametrize("n", [3, 5])
def test_a_degree_1_scalar_jet_meets_each_component_bitwise(n):
    # At degree 1 a jet has three coefficients, as many as a vector has
    # components, so numpy alone would pair coefficient c with component c
    # without an error.  With n = 3 the points line up as well.
    rng = np.random.default_rng(n)
    s = _random_jet(rng, 1, "real", n)
    V = _vector_jet(rng, 1, (n,))
    array = V.value
    for k in range(3):
        expected = (s * array[k]).coeffs
        assert np.array_equal((s * array).coeffs[:, k], expected)
        assert np.array_equal((array * s).coeffs[:, k], expected)
        assert np.array_equal((s * V).coeffs[:, k], (s * _component(V, k)).coeffs)
        assert np.array_equal((V * s).coeffs[:, k], (_component(V, k) * s).coeffs)
        assert np.array_equal((s + V).coeffs[:, k], (s + _component(V, k)).coeffs)
        assert np.array_equal((V - s).coeffs[:, k], (_component(V, k) - s).coeffs)
    assert (s * V).batch_shape == (3, n) and (s * array).batch_shape == (3, n)


@pytest.mark.parametrize("degree", [1, 2])
def test_jets_of_incompatible_batch_shapes_raise(degree):
    rng = np.random.default_rng(degree)
    a, b = _random_jet(rng, degree, "complex", 4), _random_jet(rng, degree, "complex", 3)
    for operation in (
        lambda: a * b,
        lambda: a + b,
        lambda: a - b,
        lambda: a * np.ones(3),
        lambda: a + np.ones(3),
        lambda: a / np.ones(3),
        lambda: a * np.ones((4, 3)),
    ):
        with pytest.raises(ValueError):
            operation()


def test_ndarray_operands_defer_to_the_jet():
    rng = np.random.default_rng(11)
    V = _vector_jet(rng, 2, (4,))
    array = rng.uniform(-2.0, 2.0, (3, 4)) + 1j * rng.uniform(-2.0, 2.0, (3, 4))
    pairs = {
        "add": (array + V, V + array),
        "sub": (array - V, (-V) + array),
        "mul": (array * V, V * array),
    }
    for name, (reflected, direct) in pairs.items():
        assert isinstance(reflected, jets.Jet2), name
        assert np.array_equal(reflected.coeffs, direct.coeffs), name


def test_component_sum_adds_the_first_two_components_first():
    c = np.zeros((jets._ncoef(1), 3, 2))
    c[:, :, 0] = [1e16, 1.0, 1.0]  # (1e16 + 1) + 1 rounds to 1e16; 1e16 + (1 + 1) does not
    c[:, :, 1] = [0.5, 0.25, 0.125]
    total = jets.Jet2(1, c).component_sum()
    assert total.batch_shape == (2,)
    assert np.array_equal(total.value, [1e16, 0.875])
