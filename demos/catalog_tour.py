"""Tour of the built-in surface catalog.

Builds each catalog member, prints its pointwise geometric data at a
representative chart point, and then the grid-max residual of each
variational equation -- the same numbers behind ``legendrian-lab classify``.

Run with:  python3 demos/catalog_tour.py
"""

import numpy as np

from legendrian_lab import geometry, operators, surfaces

MEMBERS = [
    ("flat torus, generic radii", surfaces.calabi(0.8, 0.6, 0.6, 0.8), (0.3, 0.7)),
    ("twisted torus, generic", surfaces.mironov(1, 2, 1), (0.4, 0.9)),
    ("totally geodesic sphere", surfaces.geodesic_sphere(), (0.2, 1.1)),
    (
        "flat torus, minimal member",
        surfaces.calabi(np.sqrt(2 / 3), 1 / np.sqrt(3), 1 / np.sqrt(2), 1 / np.sqrt(2)),
        (0.3, 0.7),
    ),
    ("twisted torus, minimal member", surfaces.mironov(1, 2, 3), (0.4, 0.9)),
]

def matrix_line(m: np.ndarray) -> str:
    return "[[{: .6f}, {: .6f}], [{: .6f}, {: .6f}]]".format(*np.asarray(m).ravel())


def main() -> None:
    for title, spec, (x, y) in MEMBERS:
        print("=" * 72)
        print(f"{title}  --  {spec.label}")
        pf = geometry.point_report(spec, x, y)
        print(f"  at chart point ({x}, {y}):")
        print(f"    induced metric      {matrix_line(pf.g)}")
        print(f"    |H|^2 = {pf.norm_H_sq:.12f}    gauss curvature = {pf.kappa:.12f}")
        print(
            f"    |B|^2 = {pf.norm_B_sq:.12f}    "
            f"legendrian defect = {pf.legendrian_defect:.3e}"
        )

        maps = operators.grid_residuals(spec, 12, 12)
        print("  grid-max residuals on a 12x12 sweep, judged by the classify checks:")
        for check in operators.checks_in("classify"):
            result = check.evaluate(maps)
            verdict = "yes" if result.passed else "no "
            print(f"    {result.name:<30} {result.max_residual:11.4e}   satisfied: {verdict}")
    print("=" * 72)
    print("Every member is Legendrian and solves the csL and csL-Willmore")
    print("equations; only the minimal members also solve the unconstrained")
    print("Willmore-Legendrian equation (their residual tracks |H| itself).")


if __name__ == "__main__":
    main()
