"""Catalog of parametrized Legendrian immersions into the unit 5-sphere.

Each surface is described by an immutable ``ImmersionSpec`` (family name,
parameter table, chart rectangle, periodicity flags) and evaluated through
``evaluate_jet_batch``, which returns the three complex components of F as
jets of the chart variables.  All chart derivatives used anywhere in the
toolkit originate here, exactly, via jet arithmetic.

Families:

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

Periodic wrap: in-domain coordinates are returned bitwise unchanged; an
out-of-domain coordinate is reduced with n = floor((t-lo)/period), which for
|n| <= 2 (every stencil and grid use) reproduces the exact IEEE-remainder
result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import exprlang, jets
from .errors import (
    DivideByZeroJetError,
    DomainError,
    NotOnSphereError,
    ParamConstraintError,
    UnsupportedSurfaceError,
    ValidationError,
)
from .jets import Jet2

TWO_PI = 2.0 * math.pi

#: Unit-norm gate applied by evaluate_jet_batch to every evaluated point.
SPHERE_TOL = 1e-10

#: Built-in parameter defaults for reproducible runs without flags.
DEFAULT_PARAMS = {
    "calabi": {"r1": 0.8, "r2": 0.6, "r3": 0.6, "r4": 0.8},
    "mironov": {"a": 1.0, "b": 2.0, "c": 1.0},
    "geodesic_sphere": {},
}


@dataclass(frozen=True)
class ImmersionSpec:
    """Immutable description of one surface; construction validates params."""

    kind: str  # calabi | mironov | geodesic_sphere | expression
    params: dict[str, float]
    chart_domain: tuple[tuple[float, float], tuple[float, float]]
    periodic: tuple[bool, bool]
    label: str
    expressions: tuple | None = field(default=None)


# -- constructors ------------------------------------------------------------


def calabi(r1: float, r2: float, r3: float, r4: float) -> ImmersionSpec:
    """Flat torus family; requires r1^2+r2^2 = 1 = r3^2+r4^2, all r_i nonzero."""
    if abs(r1 * r1 + r2 * r2 - 1.0) > 1e-12:
        raise ParamConstraintError("calabi requires r1^2 + r2^2 = 1")
    if abs(r3 * r3 + r4 * r4 - 1.0) > 1e-12:
        raise ParamConstraintError("calabi requires r3^2 + r4^2 = 1")
    if min(abs(r1), abs(r2), abs(r3), abs(r4)) == 0.0:
        raise ParamConstraintError("calabi requires all r_i nonzero")
    params = {"r1": float(r1), "r2": float(r2), "r3": float(r3), "r4": float(r4)}
    return ImmersionSpec(
        kind="calabi",
        params=params,
        chart_domain=((0.0, TWO_PI), (0.0, TWO_PI)),
        periodic=(True, True),
        label=f"calabi(r1={r1:g}, r2={r2:g}, r3={r3:g}, r4={r4:g})",
    )


def mironov(a: float, b: float, c: float) -> ImmersionSpec:
    """Torus family with diagonal metric diag(u/(ab+u), u); a, b, c > 0."""
    if not (a > 0 and b > 0 and c > 0):
        raise ParamConstraintError("mironov requires a > 0, b > 0, c > 0")
    params = {"a": float(a), "b": float(b), "c": float(c)}
    return ImmersionSpec(
        kind="mironov",
        params=params,
        chart_domain=((0.0, TWO_PI), (0.0, TWO_PI)),
        periodic=(True, True),
        label=f"mironov(a={a:g}, b={b:g}, c={c:g})",
    )


def geodesic_sphere() -> ImmersionSpec:
    """Totally geodesic real 2-sphere; chart keeps clear of the poles."""
    return ImmersionSpec(
        kind="geodesic_sphere",
        params={},
        chart_domain=((-1.2, 1.2), (0.0, TWO_PI)),
        periodic=(False, True),
        label="geodesic_sphere()",
    )


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
    if kind not in DEFAULT_PARAMS:
        raise UnsupportedSurfaceError(
            f"unknown surface family {kind!r} (expected calabi, mironov, geodesic_sphere)"
        )
    merged = dict(DEFAULT_PARAMS[kind])
    unknown = sorted(set(params or {}) - set(merged))
    if unknown:
        expected = ", ".join(merged) or "none"
        raise ValidationError(f"{kind} has no parameter {unknown[0]!r} (expected: {expected})")
    merged.update(params or {})
    if kind == "calabi":
        return calabi(merged["r1"], merged["r2"], merged["r3"], merged["r4"])
    if kind == "mironov":
        return mironov(merged["a"], merged["b"], merged["c"])
    return geodesic_sphere()


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


# -- evaluation --------------------------------------------------------------


def _calabi_jets(params, X: Jet2, Y: Jet2):
    r1, r2, r3, r4 = (params[k] for k in ("r1", "r2", "r3", "r4"))
    f1 = (r1 * r3) * jets.exp((X * (r2 / r1) + Y * (r4 / r3)) * 1j)
    f2 = (r1 * r4) * jets.exp((X * (r2 / r1) - Y * (r3 / r4)) * 1j)
    f3 = r2 * jets.exp(X * (-1j * r1 / r2))
    return f1, f2, f3


def _mironov_jets(params, X: Jet2, Y: Jet2):
    a, b, c = (params[k] for k in ("a", "b", "c"))
    u = jets.cos(X * 2.0) * (c * (b - a) / 2.0) + c * (a + b) / 2.0
    phi = jets.sin(X) * math.sqrt(c / (a + c))
    psi = jets.cos(X) * math.sqrt(c / (b + c))
    zeta = jets.sqrt(u + a * b) * (1.0 / math.sqrt((a + c) * (b + c)))
    f1 = phi * jets.exp(Y * (1j * a))
    f2 = psi * jets.exp(Y * (1j * b))
    f3 = zeta * jets.exp(Y * (-1j * c))
    return f1, f2, f3


def _sphere_jets(X: Jet2, Y: Jet2):
    cu = jets.cos(X)
    return cu * jets.cos(Y), cu * jets.sin(Y), jets.sin(X)


def _expression_jets(spec: ImmersionSpec, X: Jet2, Y: Jet2):
    """The component jets; a constant zero divisor names its surface and component."""
    F = []
    for k, ast in enumerate(spec.expressions, 1):
        try:
            F.append(exprlang.eval_jet(ast, X, Y, spec.params))
        except DivideByZeroJetError as exc:
            if exc.magnitude is not None:
                raise
            named = f"{exc.message} on {spec.label} (component f{k})"
            raise DivideByZeroJetError(named, None) from None
    return tuple(F)


def evaluate_jet_batch(spec: ImmersionSpec, xs, ys, degree: int):
    """Jets of the three components of F at a batch of chart points.

    ``xs``/``ys`` are arrays of equal shape; returns a tuple of three jets
    whose coefficient arrays share that batch shape.  Raises ERR_NOT_ON_SPHERE
    if any evaluated value leaves the unit sphere by more than 1e-10, and
    ERR_DIVIDE_BY_ZERO_JET naming the chart point of the smallest divisor (or
    the offset and component of a constant one) when a formula divides by zero.

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
    try:
        if spec.kind == "calabi":
            F = _calabi_jets(spec.params, X, Y)
        elif spec.kind == "mironov":
            F = _mironov_jets(spec.params, X, Y)
        elif spec.kind == "geodesic_sphere":
            F = _sphere_jets(X, Y)
        elif spec.kind == "expression":
            F = _expression_jets(spec, X, Y)
        else:
            raise UnsupportedSurfaceError(f"unknown surface family {spec.kind!r}")
    except DivideByZeroJetError as exc:
        if exc.magnitude is None:  # a constant divisor: _expression_jets named it
            raise
        mag, px, py = (np.ravel(a) for a in np.broadcast_arrays(exc.magnitude, xs, ys))
        worst = int(np.argmin(mag))
        raise DivideByZeroJetError(
            f"divisor constant term has magnitude {mag[worst]:.3e} <= {jets.DIVIDE_TOL:g} "
            f"at chart point (x, y) = ({px[worst]:.17g}, {py[worst]:.17g}) on {spec.label}",
            exc.magnitude,
        ) from None
    norm_sq = sum(np.abs(f.value) ** 2 for f in F)
    dev = np.abs(np.sqrt(norm_sq) - 1.0)
    dev, px, py = (np.ravel(a) for a in np.broadcast_arrays(dev, xs, ys))
    worst = int(np.argmax(dev))
    if dev[worst] > SPHERE_TOL:
        raise NotOnSphereError(
            f"|F| deviates from 1 by {dev[worst]:.3e} at chart point "
            f"(x, y) = ({px[worst]:.17g}, {py[worst]:.17g}) on {spec.label}"
        )
    return F


# -- sampling ----------------------------------------------------------------


def sample_points(
    spec: ImmersionSpec, n: int, seed: int, margin: float = 0.05
) -> tuple[np.ndarray, np.ndarray]:
    """Seed-reproducible random chart points, kept interior on non-periodic axes.

    ``margin`` is the fraction of the axis width excluded at each non-periodic
    end so that finite-difference stencils never leave the chart.
    """
    rng = np.random.default_rng(seed)
    out = []
    for axis in range(2):
        lo, hi = spec.chart_domain[axis]
        width = hi - lo
        if spec.periodic[axis]:
            out.append(lo + width * rng.random(n))
        else:
            pad = margin * width
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
