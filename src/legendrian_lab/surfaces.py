"""Catalog of parametrized Legendrian immersions into the unit 5-sphere.

Each surface is described by an immutable ``ImmersionSpec`` (family name,
parameter table, chart rectangle, periodicity flags, F as three expressions)
and evaluated through ``evaluate_jet_batch``, which runs ``exprlang.eval_jet``
on each and returns one jet-vector: one ``Jet2`` whose batch starts with the
three components.  All chart derivatives used anywhere in the toolkit
originate here, exactly, via jet arithmetic.

Families: each is one ``CATALOG`` row (its sources, default parameters in
label order, chart rectangle, periodic axes and constructor, which checks the
parameter constraints), and one helper builds every catalog spec from its row.

* ``calabi(r1, r2, r3, r4)`` with r1^2+r2^2 = r3^2+r4^2 = 1, all nonzero:

      F(t, s) = (r1 r3 e^{i(r2/r1 t + r4/r3 s)},
                 r1 r4 e^{i(r2/r1 t - r3/r4 s)},
                 r2 e^{-i r1/r2 t})

  flat induced metric dt^2 + r1^2 ds^2, parallel mean curvature.

* ``mironov(a, b, c)`` with a, b, c > 0:

      F(x, y) = (phi(x) e^{iay}, psi(x) e^{iby}, zeta(x) e^{-icy}),
      phi = sqrt(c/(a+c)) sin x,   psi = sqrt(c/(b+c)) cos x,
      zeta = sqrt((ab+u)/((a+c)(b+c))),
      u(x) = c (a + b + (b-a) cos 2x) / 2,

  metric diag(u/(ab+u), u); minimal exactly when a + b = c.

* ``geodesic_sphere()``: the totally geodesic real 2-sphere
  (cos u cos v, cos u sin v, sin u) on a chart avoiding the poles.

* ``from_expression(...)``: three user expressions (see ``exprlang``).

Chart periods are fixed at 2*pi for the torus families regardless of
parameter rationality; quantities integrated over the chart are therefore
"per chart rectangle" (the immersed torus may wrap the chart several times).

Periodic wrap (``point_report`` only: stencils and grids evaluate on the
universal cover and never wrap): in-domain coordinates are returned bitwise
unchanged; an out-of-domain coordinate is reduced with
n = floor((t-lo)/period), which for |n| <= 2 reproduces the exact
IEEE-remainder result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import exprlang, jets
from .errors import (
    DivideByZeroJetError,
    DomainError,
    NotFiniteError,
    NotOnSphereError,
    ParamConstraintError,
    UnsupportedSurfaceError,
    ValidationError,
)

TWO_PI = 2.0 * math.pi

#: Unit-norm gate applied by evaluate_jet_batch to every evaluated point.
SPHERE_TOL = 1e-10


@dataclass(frozen=True)
class ImmersionSpec:
    """Immutable description of one surface; ``calabi``, ``mironov``, ``from_expression`` check params."""

    kind: str  # a CATALOG key, or "expression"
    params: dict[str, float]
    chart_domain: tuple[tuple[float, float], tuple[float, float]]
    periodic: tuple[bool, bool]
    label: str
    expressions: tuple  # F's three components as parsed expressions


class Family(NamedTuple):
    """One catalog row: everything that defines a family but its parameter values."""

    expressions: tuple  # F's three components, parsed
    defaults: dict[str, float]  # in label order
    chart_domain: tuple[tuple[float, float], tuple[float, float]]
    periodic: tuple[bool, bool]
    constructor: Callable[..., ImmersionSpec]  # checks the parameter constraints


# -- constructors ------------------------------------------------------------


def _catalog_spec(kind: str, *values: float) -> ImmersionSpec:
    """The family ``kind`` at ``values``, given in its row's parameter order."""
    row = CATALOG[kind]
    params = dict(zip(row.defaults, map(float, values)))
    label = ", ".join(f"{name}={value:g}" for name, value in params.items())
    return ImmersionSpec(
        kind, params, row.chart_domain, row.periodic, f"{kind}({label})", row.expressions
    )


def calabi(r1: float, r2: float, r3: float, r4: float) -> ImmersionSpec:
    """Flat torus family; requires r1^2+r2^2 = 1 = r3^2+r4^2, all r_i nonzero."""
    if abs(r1 * r1 + r2 * r2 - 1.0) > 1e-12:
        raise ParamConstraintError("calabi requires r1^2 + r2^2 = 1")
    if abs(r3 * r3 + r4 * r4 - 1.0) > 1e-12:
        raise ParamConstraintError("calabi requires r3^2 + r4^2 = 1")
    if min(abs(r1), abs(r2), abs(r3), abs(r4)) == 0.0:
        raise ParamConstraintError("calabi requires all r_i nonzero")
    return _catalog_spec("calabi", r1, r2, r3, r4)


def mironov(a: float, b: float, c: float) -> ImmersionSpec:
    """Torus family with diagonal metric diag(u/(ab+u), u); a, b, c > 0."""
    if not (a > 0 and b > 0 and c > 0):
        raise ParamConstraintError("mironov requires a > 0, b > 0, c > 0")
    return _catalog_spec("mironov", a, b, c)


def geodesic_sphere() -> ImmersionSpec:
    """Totally geodesic real 2-sphere."""
    return _catalog_spec("geodesic_sphere")


_TORUS = ((0.0, TWO_PI), (0.0, TWO_PI))

#: The catalog, one row per family.  Source order is operation order, so it
#: fixes the rounding of every printed number: ``u + k + a*b`` is the same
#: function as ``u + (k + a*b)``, not the same bits.
CATALOG = {
    kind: Family(tuple(map(exprlang.parse, sources)), *rest)
    for kind, (sources, *rest) in {
        "calabi": ((
            "r1*r3*exp(((r2/r1)*x + (r4/r3)*y)*i)",
            "r1*r4*exp(((r2/r1)*x - (r3/r4)*y)*i)",
            "r2*exp(x*(-i*r1/r2))",
        ), {"r1": 0.8, "r2": 0.6, "r3": 0.6, "r4": 0.8}, _TORUS, (True, True), calabi),
        "mironov": ((
            "sin(x)*sqrt(c/(a+c))*exp(y*(i*a))",
            "cos(x)*sqrt(c/(b+c))*exp(y*(i*b))",
            "sqrt(cos(x*2)*(c*(b-a)/2) + c*(a+b)/2 + a*b)*(1/sqrt((a+c)*(b+c)))*exp(y*(-i*c))",
        ), {"a": 1.0, "b": 2.0, "c": 1.0}, _TORUS, (True, True), mironov),
        # The chart keeps clear of the poles.
        "geodesic_sphere": (("cos(x)*cos(y)", "cos(x)*sin(y)", "sin(x)"), {},
                            ((-1.2, 1.2), (0.0, TWO_PI)), (False, True), geodesic_sphere),
    }.items()
}


def from_expression(
    asts,
    params: dict[str, float],
    chart_domain: tuple[tuple[float, float], tuple[float, float]],
    periodic: tuple[bool, bool] = (False, False),
    label: str = "expression",
) -> ImmersionSpec:
    """Wrap three expressions (source strings or parsed ASTs) as a surface.

    Validation diagnostics must be empty (ERR_VALIDATION otherwise); the
    unit-norm and immersion checks happen later, at evaluation points.
    """
    parsed = tuple(
        exprlang.parse(a) if isinstance(a, str) else a for a in asts
    )
    if len(parsed) != 3:
        raise ParamConstraintError("an expression surface needs exactly 3 components")
    exprlang.require_valid(parsed, params)
    (x0, x1), (y0, y1) = chart_domain
    if not (x1 > x0 and y1 > y0):
        raise ParamConstraintError("chart_domain must be a nondegenerate rectangle")
    return ImmersionSpec(
        kind="expression",
        params=dict(params),
        chart_domain=((float(x0), float(x1)), (float(y0), float(y1))),
        periodic=(bool(periodic[0]), bool(periodic[1])),
        label=label,
        expressions=parsed,
    )


def surface_by_name(kind: str, params: dict[str, float] | None = None) -> ImmersionSpec:
    """Construct a catalog surface by family name, filling default parameters.

    A parameter the family does not have is an error, never dropped.
    """
    if kind not in CATALOG:
        raise UnsupportedSurfaceError(
            f"unknown surface family {kind!r} (expected {', '.join(CATALOG)})"
        )
    merged = dict(CATALOG[kind].defaults)
    unknown = sorted(set(params or {}) - set(merged))
    if unknown:
        expected = ", ".join(merged) or "none"
        raise ValidationError(f"{kind} has no parameter {unknown[0]!r} (expected: {expected})")
    merged.update(params or {})
    return CATALOG[kind].constructor(**merged)


# -- chart handling ----------------------------------------------------------


def wrap_coordinate(t, lo: float, period: float):
    """Reduce into [lo, lo+period); in-domain values pass through bitwise.

    Out-of-domain values are shifted by an integer number of periods; for
    shifts of at most two periods the result is exactly the IEEE remainder.
    """
    t_arr = np.asarray(t, dtype=float)
    s = t_arr - lo
    inside = (s >= 0.0) & (s < period)
    n = np.floor(s / period)
    r = s - n * period
    r = np.where(r < 0.0, r + period, r)
    r = np.where(r >= period, r - period, r)
    out = np.where(inside, t_arr, lo + r)
    if np.isscalar(t) or t_arr.shape == ():
        return float(out)
    return out


def wrap_point(spec: ImmersionSpec, x, y):
    """Apply periodic wrap per axis; reject out-of-chart non-periodic input."""
    coords = []
    for axis, t in enumerate((x, y)):
        lo, hi = spec.chart_domain[axis]
        if spec.periodic[axis]:
            coords.append(wrap_coordinate(t, lo, hi - lo))
        else:
            t_arr = np.asarray(t, dtype=float)
            if np.any(t_arr < lo) or np.any(t_arr > hi):
                raise DomainError(
                    f"coordinate {'xy'[axis]} outside the non-periodic chart "
                    f"range [{lo:g}, {hi:g}]"
                )
            coords.append(t if np.isscalar(t) else t_arr)
    return coords[0], coords[1]

def worst_point(values, xs, ys, pick):
    """The entry of ``values`` that ``pick`` (``np.argmin`` or ``np.argmax``) selects,
    and its chart point as the text ``(x, y) = (x, y)``, to 17 significant digits."""
    values, px, py = (np.ravel(a) for a in np.broadcast_arrays(values, xs, ys))
    i = int(pick(values))
    return values[i], f"(x, y) = ({px[i]:.17g}, {py[i]:.17g})"


# -- evaluation --------------------------------------------------------------


@np.errstate(over="ignore", invalid="ignore")
def evaluate_jet_batch(spec: ImmersionSpec, xs, ys, degree: int):
    """The jet-vector of F at a batch of chart points.

    ``xs``/``ys`` are arrays of equal shape; returns one jet of batch shape
    ``(3,) + xs.shape``, whose ``value`` stacks the three components.  Raises
    ERR_NOT_ON_SPHERE if any evaluated value leaves the unit sphere by more
    than 1e-10 or is NaN, then ERR_NOT_FINITE naming the first chart point
    where a derivative is inf or NaN, and ERR_DIVIDE_BY_ZERO_JET naming the
    chart point of the smallest divisor (or the offset and component of a
    constant one) when a formula divides by zero.  Since these errors name the
    point, numpy's overflow and invalid-value warnings are not raised.

    Points are evaluated on the universal cover: no wrap, no domain check
    (``wrap_point`` does both).  Finite-difference stencils need this, because
    the component formulas extend real-analytically to all chart values while
    the wrapped ambient vectors may jump by a unitary phase across a period
    seam (the flat-torus family is equivariant, not periodic, under a chart
    period).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    X, Y = jets.lift_point(xs, ys, degree)
    F = []
    for k, ast in enumerate(spec.expressions, 1):
        try:
            F.append(exprlang.eval_jet(ast, X, Y, spec.params))
        except DivideByZeroJetError as exc:
            if exc.magnitude is None:
                named = f"{exc.message} on {spec.label} (component f{k})"
            else:
                smallest, point = worst_point(exc.magnitude, xs, ys, np.argmin)
                named = (
                    f"divisor constant term has magnitude {smallest:.3e} <= {jets.DIVIDE_TOL:g} "
                    f"at chart point {point} on {spec.label}"
                )
            raise DivideByZeroJetError(named, exc.magnitude) from None
    F = jets.vector(*F)
    deviation = np.abs(np.sqrt(np.sum(np.abs(F.value) ** 2, axis=0)) - 1.0)
    if not np.all(deviation <= SPHERE_TOL):  # a NaN value fails too
        largest, point = worst_point(deviation, xs, ys, np.argmax)
        raise NotOnSphereError(
            f"|F| deviates from 1 by {largest:.3e} at chart point {point} on {spec.label}"
        )
    finite = np.isfinite(F.coeffs).all(axis=(0, 1))
    if not np.all(finite):
        _, point = worst_point(finite, xs, ys, np.argmin)
        raise NotFiniteError(
            f"F has a non-finite derivative at chart point {point} on {spec.label}"
        )
    return F


# -- sampling ----------------------------------------------------------------


#: Fraction of a non-periodic axis's width that ``sample_points`` leaves out
#: at each end, so that finite-difference stencils never leave the chart.
SAMPLE_MARGIN = 0.05


def sample_points(spec: ImmersionSpec, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seed-reproducible random chart points, ``SAMPLE_MARGIN`` inside non-periodic ends."""
    rng = np.random.default_rng(seed)
    out = []
    for axis in range(2):
        lo, hi = spec.chart_domain[axis]
        width = hi - lo
        if spec.periodic[axis]:
            out.append(lo + width * rng.random(n))
        else:
            pad = SAMPLE_MARGIN * width
            out.append(lo + pad + (width - 2.0 * pad) * rng.random(n))
    return out[0], out[1]


def grid_points(
    spec: ImmersionSpec, nx: int, ny: int
) -> tuple[np.ndarray, np.ndarray]:
    """Half-offset uniform grid ((i+1/2)dx, (j+1/2)dy), flattened to 1-D.

    Half-offset nodes avoid symmetry axes where residuals of interest can
    vanish identically, and keep stencils interior on non-periodic charts.
    """
    (x0, x1), (y0, y1) = spec.chart_domain
    xs = x0 + (np.arange(nx) + 0.5) * (x1 - x0) / nx
    ys = y0 + (np.arange(ny) + 0.5) * (y1 - y0) / ny
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return gx.ravel(), gy.ravel()
