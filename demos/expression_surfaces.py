"""Defining surfaces with the expression language.

Shows the parse -> validate -> evaluate pipeline: a parsed AST printed back
as source, the diagnostics produced for malformed input, and an
expression-defined rebuild of the flat torus that matches the built-in
implementation jet for jet.

Run with:  python3 demos/expression_surfaces.py
"""

import numpy as np

from legendrian_lab import exprlang, jets, surfaces
from legendrian_lab.errors import SyntaxParseError

TWO_PI = 2.0 * np.pi

FLAT_TORUS_COMPONENTS = (
    "r1*r3*exp(i*((r2/r1)*x + (r4/r3)*y))",
    "r1*r4*exp(i*((r2/r1)*x - (r3/r4)*y))",
    "r2*exp(-i*(r1/r2)*x)",
)
RADII = {"r1": 0.8, "r2": 0.6, "r3": 0.6, "r4": 0.8}


def show_parsing() -> None:
    print("-- parsing ------------------------------------------------------")
    source = "sqrt(c/(a+c)) * sin(x) * exp(i*a*y)"
    ast = exprlang.parse(source)
    print(f"  input:        {source}")
    print(f"  printed back: {exprlang.to_source(ast)}")
    print(f"  round-trips:  {exprlang.parse(exprlang.to_source(ast)) == ast}")

    try:
        exprlang.parse("x + * y")
    except SyntaxParseError as err:
        print(f"  syntax error example: {err} (position {err.position})")

    diagnostics = exprlang.validate(exprlang.parse("b*x + y^t"), params={})
    print("  validation diagnostics for 'b*x + y^t' with no parameters:")
    for d in diagnostics:
        print(f"    offset {d.position}: {d.message}")


def show_jet_evaluation() -> None:
    print("-- jet evaluation ----------------------------------------------")
    ast = exprlang.parse("exp(i*a*x) / (2 + sin(y))")
    x_jet, y_jet = jets.lift_point(0.4, 1.1, degree=3)
    value = exprlang.eval_jet(ast, x_jet, y_jet, {"a": 0.7})
    print("  jets carry exact partial derivatives; no finite differences:")
    for j, k in [(0, 0), (1, 0), (0, 1), (2, 1)]:
        print(f"    d^({j},{k}) at (0.4, 1.1) = {jets.extract_partial(value, j, k):+.12f}")


def show_flat_torus_twin() -> None:
    print("-- expression twin of the built-in flat torus -------------------")
    builtin = surfaces.calabi(**RADII)
    twin = surfaces.from_expression(
        FLAT_TORUS_COMPONENTS,
        dict(RADII),
        ((0.0, TWO_PI), (0.0, TWO_PI)),
        periodic=(True, True),
        label="flat torus (expression)",
    )
    xs, ys = surfaces.sample_points(builtin, 50, seed=2)
    ref = surfaces.evaluate_jet_batch(builtin, xs, ys, degree=3)
    alt = surfaces.evaluate_jet_batch(twin, xs, ys, degree=3)
    gap = float(np.max(np.abs(ref.coeffs - alt.coeffs)))
    print(f"  built-in vs expression pipeline, all partials to order 3")
    print(f"  at 50 random chart points: max |difference| = {gap:.3e}")


def main() -> None:
    show_parsing()
    show_jet_evaluation()
    show_flat_torus_twin()


if __name__ == "__main__":
    main()
