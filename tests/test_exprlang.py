"""Expression grammar: parsing, validation, jet evaluation, printing."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from legendrian_lab import exprlang, jets, surfaces
from legendrian_lab.errors import (
    DivideByZeroJetError,
    DomainError,
    LabError,
    NonAnalyticError,
    SyntaxParseError,
    ValidationError,
)
from legendrian_lab.exprlang import BinOp, Call, ImagUnit, Neg, Num, Param, Pow, Var


def test_product_of_two_calls_parses_as_a_product_node():
    ast = exprlang.parse("sin(x)*exp(i*a*y)")
    assert isinstance(ast, BinOp) and ast.op == "*"
    assert isinstance(ast.left, Call) and ast.left.func == "sin"
    assert isinstance(ast.right, Call) and ast.right.func == "exp"


def test_syntax_error_carries_the_byte_offset():
    with pytest.raises(SyntaxParseError) as err:
        exprlang.parse("x + * y")
    assert err.value.position == 4
    assert "offset 4" in str(err.value)


def test_precedence_table():
    assert exprlang.parse("a+b*c") == BinOp(
        "+", Param("a"), BinOp("*", Param("b"), Param("c"))
    )
    assert exprlang.parse("-x^2") == Neg(Pow(Var("x"), Num(2.0)))
    assert exprlang.parse("a/b/c") == BinOp(
        "/", BinOp("/", Param("a"), Param("b")), Param("c")
    )


def test_validate_reports_unknown_parameters_and_bad_exponents():
    assert exprlang.validate(exprlang.parse("a*x"), {"a": 2.0}) == []
    diags = exprlang.validate(exprlang.parse("b*x"), {"a": 2.0})
    assert len(diags) == 1 and "unknown parameter b" in diags[0].message
    diags = exprlang.validate(exprlang.parse("x^y"), {})
    assert len(diags) == 1 and "exponent must be integer literal" in diags[0].message


def test_an_exponent_above_the_limit_is_refused_at_its_caret():
    # x^n costs n - 1 jet products, so a huge literal would run for hours.
    limit = exprlang.MAX_EXPONENT
    assert exprlang.validate(exprlang.parse(f"sin(x)*x^{limit}"), {}) == []
    diags = exprlang.validate(exprlang.parse(f"sin(x)*(x/x)^{limit + 1}"), {})
    assert [(d.position, d.message) for d in diags] == [
        (12, f"exponent above the limit of {limit}")
    ]
    X, Y = jets.lift_point(np.linspace(0.1, 2.0, 7), np.zeros(7), 5)
    with pytest.raises(ValidationError, match="exponent above the limit"):
        exprlang.eval_jet(exprlang.parse("x^1000000000"), X, Y, {})


@pytest.mark.parametrize(
    "ast",
    [*map(exprlang.parse, ["b*x", "sin*x", "sinh(x)", "x^y", "x^65"]), Pow(Var("x"), Num(-1.0))],
    ids=["unknown_parameter", "bare_sin", "unknown_function", "symbolic_exponent",
         "exponent_65", "negative_exponent"],
)
def test_eval_jet_refuses_what_validate_flags_with_its_diagnostics(ast):
    # validate is the one judge: eval_jet raises its diagnostics, unchanged.
    # A negative exponent, which only a built AST can hold, evaluated x^-1 as x.
    diags = exprlang.validate(ast, {"a": 1.0})
    assert diags
    with pytest.raises(ValidationError) as err:
        exprlang.eval_jet(ast, *jets.lift_point(0.5, 0.5, 2), {"a": 1.0})
    assert err.value.diagnostics == diags


def test_a_number_is_ascii_digits():
    # Python's \d and float() read other scripts' digits; the grammar does not.
    with pytest.raises(SyntaxParseError) as err:
        exprlang.parse("x*\u0663")
    assert err.value.position == 2


def test_eval_jet_on_a_plain_product():
    X, Y = jets.lift_point(2.0, 3.0, 2)
    v = exprlang.eval_jet(exprlang.parse("x*y"), X, Y, {})
    assert complex(v.value) == 6.0
    assert complex(jets.extract_partial(v, 1, 1)) == 1.0


def test_divide_by_zero_jet_propagates():
    with pytest.raises(DivideByZeroJetError):
        exprlang.eval_jet(exprlang.parse("1/x"), *jets.lift_point(0.0, 0.0, 2), {})


@pytest.mark.parametrize(
    "source, error",
    [
        ("1/(a-a)", DivideByZeroJetError),
        ("x/(a-a)", DivideByZeroJetError),
        ("x/0", DivideByZeroJetError),
        ("sqrt(a-2)*x", DomainError),
        ("re(a)*cos(x)", NonAnalyticError),
    ],
)
def test_folded_constants_raise_what_constant_jets_raised(source, error):
    # A constant folds to a scalar, yet each error keeps the code it had when
    # the constant was a jet; a jet divided by a zero scalar never returns inf.
    X, Y = jets.lift_point(np.linspace(0.1, 2.0, 7), np.linspace(-1.0, 1.0, 7), 5)
    with pytest.raises(error) as err:
        exprlang.eval_jet(exprlang.parse(source), X, Y, {"a": 1.0})
    if error is DivideByZeroJetError:
        # No chart point applies to a constant divisor: the "/" is named instead.
        assert err.value.magnitude is None
        assert f"at offset {source.index('/')}" in err.value.message


def test_integer_powers_of_jets_and_of_constants():
    X, Y = jets.lift_point(np.linspace(0.1, 2.0, 7), np.linspace(-1.0, 1.0, 7), 5)

    def ev(source):
        return exprlang.eval_jet(exprlang.parse(source), X, Y, {"a": 1.5}).coeffs

    assert np.array_equal(ev("x^0"), jets.constant(1.0, 5, (7,)).coeffs)
    assert np.array_equal(ev("x^1"), X.coeffs)
    assert np.array_equal(ev("x^3"), (X * X * X).coeffs)
    assert np.array_equal(ev("a^3"), jets.constant(3.375, 5, (7,)).coeffs)


@pytest.mark.parametrize(
    "source, dtype, value", [("0.6", float, 0.6), ("r/2", float, 0.25), ("i*r", complex, 0.5j)]
)
def test_a_constant_component_is_lifted_to_the_whole_batch(source, dtype, value):
    X, Y = jets.lift_point(np.zeros((3, 4)), np.ones((3, 4)), 5)
    f = exprlang.eval_jet(exprlang.parse(source), X, Y, {"r": 0.5})
    assert f.degree == 5 and f.coeffs.shape == (21, 3, 4) and f.coeffs.dtype == dtype
    assert np.all(f.value == value) and not np.any(f.coeffs[1:])


def test_the_expression_torus_spends_no_jet_work_on_its_constants(monkeypatch):
    # With every literal and parameter lifted to a jet, the torus made 38 jet
    # products and 5 reciprocals here, where the catalog calabi it writes out
    # makes none of either.
    calls = {"reciprocal": 0, "product": 0}
    reciprocal, product = jets.Jet2.reciprocal, jets._product

    def counted_reciprocal(self):
        calls["reciprocal"] += 1
        return reciprocal(self)

    def counted_product(*args):
        calls["product"] += 1
        return product(*args)

    monkeypatch.setattr(jets.Jet2, "reciprocal", counted_reciprocal)
    monkeypatch.setattr(jets, "_product", counted_product)
    calabi = surfaces.calabi(0.8, 0.6, 0.6, 0.8)
    torus = surfaces.from_expression(
        (
            "r1*r3*exp(i*((r2/r1)*x + (r4/r3)*y))",
            "r1*r4*exp(i*((r2/r1)*x - (r3/r4)*y))",
            "r2*exp(-i*(r1/r2)*x)",
        ),
        {"r1": 0.8, "r2": 0.6, "r3": 0.6, "r4": 0.8},
        calabi.chart_domain,
        periodic=(True, True),
    )
    xs, ys = surfaces.grid_points(calabi, 16, 16)
    built_in = surfaces.evaluate_jet_batch(calabi, xs, ys, 5)
    catalog = dict(calls)
    expr = surfaces.evaluate_jet_batch(torus, xs, ys, 5)
    assert calls["product"] - catalog["product"] <= catalog["product"]
    assert calls["reciprocal"] == 0
    assert np.max(np.abs(expr.coeffs - built_in.coeffs)) <= 1e-15


def test_conjugation_is_rejected_above_degree_zero():
    with pytest.raises(NonAnalyticError):
        exprlang.eval_jet(exprlang.parse("conj(x)"), *jets.lift_point(0.5, 0.5, 2), {})
    v = exprlang.eval_jet(exprlang.parse("conj(x+i*y)"), *jets.lift_point(0.5, 0.25, 0), {})
    assert complex(v.value) == 0.5 - 0.25j


def _calabi_reference(params, X, Y):
    r1, r2, r3, r4 = (params[k] for k in ("r1", "r2", "r3", "r4"))
    f1 = (r1 * r3) * jets.exp((X * (r2 / r1) + Y * (r4 / r3)) * 1j)
    f2 = (r1 * r4) * jets.exp((X * (r2 / r1) - Y * (r3 / r4)) * 1j)
    f3 = r2 * jets.exp(X * (-1j * r1 / r2))
    return f1, f2, f3


def _mironov_reference(params, X, Y):
    a, b, c = (params[k] for k in ("a", "b", "c"))
    u = jets.cos(X * 2.0) * (c * (b - a) / 2.0) + c * (a + b) / 2.0
    phi = jets.sin(X) * math.sqrt(c / (a + c))
    psi = jets.cos(X) * math.sqrt(c / (b + c))
    zeta = jets.sqrt(u + a * b) * (1.0 / math.sqrt((a + c) * (b + c)))
    f1 = phi * jets.exp(Y * (1j * a))
    f2 = psi * jets.exp(Y * (1j * b))
    f3 = zeta * jets.exp(Y * (-1j * c))
    return f1, f2, f3


def _sphere_reference(params, X, Y):
    cu = jets.cos(X)
    return cu * jets.cos(Y), cu * jets.sin(Y), jets.sin(X)


def test_every_catalog_source_is_bitwise_the_hand_written_jets():
    # The catalog's sources must round exactly as the hand-written jet code
    # they replaced (kept here as the reference): accuracy_digits and every
    # printed residual move with any change of rounding.
    r1, r3 = 0.71, 0.53
    r2, r4 = math.sqrt(1 - r1 * r1), math.sqrt(1 - r3 * r3)
    cases = [
        (surfaces.calabi(0.8, 0.6, 0.6, 0.8), _calabi_reference),
        (surfaces.calabi(r1, r2, r3, r4), _calabi_reference),
        (surfaces.mironov(1, 2, 1), _mironov_reference),
        (surfaces.mironov(1.3, 0.7, 1.9), _mironov_reference),
        (surfaces.geodesic_sphere(), _sphere_reference),
    ]
    for spec, reference in cases:
        xs, ys = surfaces.sample_points(spec, 300, seed=5)
        for degree in range(6):
            F = surfaces.evaluate_jet_batch(spec, xs, ys, degree)
            want = jets.vector(*reference(spec.params, *jets.lift_point(xs, ys, degree)))
            assert F.coeffs.dtype == want.coeffs.dtype, (spec.label, degree)
            assert np.array_equal(F.coeffs, want.coeffs), (spec.label, degree)


def test_eval_jet_degree_zero_equals_complex_evaluation():
    ast = exprlang.parse("(x + i*y) * exp(i*a*x) / (2 + sin(y))")
    params = {"a": 0.7}
    rng = np.random.default_rng(0)
    xs = rng.uniform(-3.0, 3.0, size=1000)
    ys = rng.uniform(-3.0, 3.0, size=1000)
    X, Y = jets.lift_point(xs, ys, 0)
    batch = exprlang.eval_jet(ast, X, Y, params).value
    for i in range(1000):
        direct = exprlang.eval_complex(ast, complex(xs[i]), complex(ys[i]), params)
        assert abs(batch[i] - direct) < 1e-14


# -- parse/print round trip ----------------------------------------------------

_leaves = st.one_of(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False).map(Num),
    st.just(ImagUnit()),
    st.sampled_from(["x", "y"]).map(Var),
    st.sampled_from(["a", "b", "c", "r1", "r4"]).map(Param),
)

_asts = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        inner.map(Neg),
        st.tuples(st.sampled_from(exprlang.FUNCTIONS), inner).map(
            lambda t: Call(t[0], t[1])
        ),
        st.tuples(st.sampled_from("+-*/"), inner, inner).map(
            lambda t: BinOp(t[0], t[1], t[2])
        ),
        st.tuples(inner, st.integers(min_value=0, max_value=5)).map(
            lambda t: Pow(t[0], Num(float(t[1])))
        ),
    ),
    max_leaves=12,
)


@given(_asts)
@settings(max_examples=80, deadline=None)
def test_pretty_printed_ast_reparses_identically(ast):
    assert exprlang.parse(exprlang.to_source(ast)) == ast


_POINTS = (np.array([0.3, -1.1, 2.5]), np.array([0.7, 1.9, -0.4]))
_PARAMS = {"a": 0.7, "b": -1.3, "c": 2.2, "r1": 0.8, "r4": -0.6}


@given(_asts)
@settings(max_examples=200, deadline=None)
def test_eval_jet_at_degree_zero_agrees_with_eval_complex(ast):
    # Draws where either side raises or leaves the finite numbers say nothing.
    try:
        with np.errstate(all="raise"):
            batch = exprlang.eval_jet(ast, *jets.lift_point(*_POINTS, 0), _PARAMS).value
            direct = np.array(
                [exprlang.eval_complex(ast, x, y, _PARAMS) for x, y in zip(*_POINTS)]
            )
    except (LabError, ArithmeticError):
        assume(False)
    assume(np.all(np.isfinite(batch)) and np.all(np.isfinite(direct)))
    assert np.all(np.abs(batch - direct) <= 1e-12 * (1.0 + np.abs(direct)))


def test_expression_surface_rejects_invalid_input_with_diagnostics():
    dom = ((0.0, 2 * math.pi), (0.0, 2 * math.pi))
    with pytest.raises(ValidationError) as err:
        surfaces.from_expression(("b*x", "0", "1"), {}, dom)
    assert err.value.diagnostics
    assert "unknown parameter b" in str(err.value)


def test_a_parameter_no_component_reads_is_rejected():
    dom = ((0.0, 2 * math.pi), (0.0, 2 * math.pi))
    params = {"r1": 0.8, "r2": 0.6, "zz": 3.0}
    with pytest.raises(ValidationError) as err:
        surfaces.from_expression(("r1*exp(i*x)", "r2*exp(i*y)", "0"), params, dom)
    assert [(d.position, d.message) for d in err.value.diagnostics] == [
        (-1, "parameter zz is read by no expression")
    ]
    assert "offset" not in str(err.value)
    # A parameter read by any one component counts as read.
    surfaces.from_expression(("r1*exp(i*x)", "r2*exp(i*y)", "zz*0"), params, dom)
