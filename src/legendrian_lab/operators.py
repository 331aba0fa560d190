"""The check registry, and the sweeps over ``geometry.ChartFrame`` that feed it.

``CHECKS`` is an ordered tuple with one ``Check`` row for every check any
command can print.  A row holds the check's name, its family, its default
tolerance, its description, the per-point residual it reads and the mask of
points it reads it at.  A CLI run resolves the registry once: a copy of
``CHECKS`` whose every tolerance is the ``[tolerances]`` override or the
default, times the tolerance scale.  ``Check.result`` is the one place a
residual is judged against a tolerance.  Each command iterates the rows of its
families, in registry order:

* ``grid`` rows (``run_verification``) read the residual maps that
  ``grid_residuals`` sweeps over the half-offset grid;
* ``identity`` rows (``identity_suite``, after the grid rows in ``verify``)
  read a degree-5 ``ChartFrame`` at seeded sample points;
* ``classify`` rows read the same grid maps; the CLI prints PASS as the
  verdict yes and FAIL as no;
* ``table`` and ``energy`` rows carry only a name, a tolerance and a
  description: the CLI computes their deviation.

A mask selects all points, the csL-gated points (all or none: the batch's
max |Div(JH)| must be below ``CSL_GATE``), the csL-gated points with
|H| >= ``SMALL_H``, or the points whose Willmore-Legendrian residual is below
1e-6.  Points outside the mask count as skipped; a row whose mask selects no
point is SKIP, and its residual is not computed.  A name may appear in two
families: ``legendrian_defect`` is both a grid row and an identity row, and
one ``[tolerances]`` override sets both.

Derivative strategy (the accuracy budget everything below leans on):

* Every residual and identity term comes out of the degree-5 jet chain in
  ``ChartFrame`` with no finite-difference error.  One sweep builds one frame
  per batch of points.  The two Sasakian checks test the ambient sphere, not
  the surface: they lift the great-circle parameter as a degree-1 jet and
  differentiate ``ambient``'s Reeb field and contact-extended J along it.

* Finite differences are the independent cross-check, not a second engine:
  ``partial_derivative`` (4th-order central differences with step
  h = 1e-3 * (1 + |coordinate|) and one Richardson extrapolation level,
  about 1e-12 relative error) feeds only ``brioschi_curvature_fd``, whose
  ``gauss_vs_brioschi_fd`` check compares Richardson second derivatives of
  the metric with the Gauss equation, and the tests, which hold the jets to
  it.

The grid maps (ambient Euclidean norm for vector equations, absolute value
for scalar ones), each read off a ``ChartFrame`` property:

* csL:                  Div(JH) = 0
* Willmore-Legendrian:  -J grad Div(JH) + B(JH,JH) - |H|^2 H / 2
                        - 2 Div(JH) R = 0
* csL-Willmore:         Delta Div(JH) + 2 trace<B(., nabla . JH), H>
                        - |H|^2 Div(JH) / 2 + 4 Div(JH) = 0,
  both held by the tests to the first variation of ``willmore_energy``.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import permutations
from operator import itemgetter

import numpy as np

from . import ambient, jets
from .errors import GridError, StencilOutOfDomainError
from .geometry import ChartFrame, brioschi, jv_dx, legendrian_defect, values
from .surfaces import ImmersionSpec, grid_points, sample_points

#: Base finite-difference step scale: h = FD_H_SCALE * (1 + |coordinate|).
FD_H_SCALE = 1e-3

#: Stencil offsets in units of h, serving both D(h) and D(h/2).
_OFFSETS = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])

#: |H| below this excludes a point from log|H| and JH/|H| constructs.
SMALL_H = 1e-3

#: Grid-max |Div(JH)| below this marks a member as csL for gated checks.
CSL_GATE = 1e-6

#: Fewest grid points a pool worker is started for: below about 1000 points
#: starting the pool costs more than it saves.  On a 2-core machine (Python
#: 3.11, numpy 2.4) a mironov sweep took 0.026 s serial and 0.070 s on 2
#: workers at 256 points, 0.051 s and 0.052 s at 1024, 0.064 s and 0.054 s at
#: 1600.
MIN_POINTS_PER_WORKER = 512

#: Widest batch ``willmore_energy`` builds one degree-2 frame for.  Over 12
#: process histories a 128x128 energy call took a median of 2.2k minor page
#: faults in 4096-point frames and 12.6k in one frame.  Per round of calabi and
#: mironov energies at 64x64 then 128x128 (2-core machine, Python 3.11, numpy
#: 2.4; median/min ms of 15): one frame 126/66, 1024 points 136/123, 2048
#: 106/94, 4096 105/97, 8192 109/94.
ENERGY_BLOCK_POINTS = 4096


# -- report containers --------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """One named residual check: aggregate magnitudes and pass/fail status."""

    name: str
    description: str
    n_points: int
    n_skipped: int
    max_residual: float
    rms_residual: float
    tolerance: float
    status: str  # PASS | FAIL | SKIP

    @property
    def passed(self) -> bool:
        return self.status != "FAIL"


@dataclass(frozen=True)
class ResidualReport:
    """Bundle of checks for one surface plus the sampling descriptor."""

    surface: str
    descriptor: str
    checks: tuple[CheckResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class Check:
    """One registry row.

    ``residual`` and ``mask`` read the row's source: the grid maps for
    ``grid`` and ``classify`` rows, a ``ChartFrame`` for ``identity`` rows.
    ``mask`` None selects every point.  ``table`` and ``energy`` rows have no
    residual: their value is handed to ``result``.
    """

    name: str
    family: str  # grid | identity | classify | table | energy
    tolerance: float
    description: str
    residual: Callable | None = None
    mask: Callable | None = None

    def evaluate(self, source) -> CheckResult:
        """The check on ``source``; with no point masked in, the residual is not computed."""
        used = None if self.mask is None else self.mask(source)
        if used is not None and not used.any():
            return self.result(np.zeros(used.size), used)
        return self.result(self.residual(source), used)

    def result(self, residuals, used=None) -> CheckResult:
        """Aggregate per-point residuals (or one scalar) into this check's result.

        Points outside ``used`` count as skipped; a check with no point left
        is SKIP, otherwise it passes when the max |residual| is below the
        row's tolerance.  This is the one place a residual meets a tolerance.
        """
        residuals = np.atleast_1d(np.asarray(residuals, dtype=float))
        n = residuals.size
        if used is not None:
            residuals = residuals[used]
        if residuals.size == 0:
            return CheckResult(self.name, self.description, n, n, 0.0, 0.0, self.tolerance, "SKIP")
        max_r = float(np.max(np.abs(residuals)))
        return CheckResult(
            name=self.name,
            description=self.description,
            n_points=n,
            n_skipped=n - residuals.size,
            max_residual=max_r,
            rms_residual=float(np.sqrt(np.mean(residuals**2))),
            tolerance=self.tolerance,
            status="PASS" if max_r < self.tolerance else "FAIL",
        )


# -- finite differences -------------------------------------------------------


def partial_derivative(spec: ImmersionSpec, f, xs, ys, axis: int) -> np.ndarray:
    """4th-order Richardson-extrapolated partial of a vectorized field.

    ``f(xs, ys)`` must accept 1-D arrays and return an array whose LAST axis
    is the batch.  Step h = 1e-3 (1 + |t|) along the chosen axis; the stencil
    reaches 2h, and on a non-periodic axis a stencil leaving the chart raises
    ERR_STENCIL_OUT_OF_DOMAIN.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    t = (xs, ys)[axis]
    h = FD_H_SCALE * (1.0 + np.abs(t))
    lo, hi = spec.chart_domain[axis]
    if not spec.periodic[axis]:
        if np.any(t - 2.0 * h < lo) or np.any(t + 2.0 * h > hi):
            raise StencilOutOfDomainError(
                f"stencil of half-width {float(np.max(2.0 * h)):.2e} along "
                f"{'xy'[axis]} leaves the non-periodic range [{lo:g}, {hi:g}]"
            )
    shifted = t[None, :] + _OFFSETS[:, None] * h[None, :]  # (6, n)
    if axis == 0:
        X, Y = shifted, np.broadcast_to(ys, shifted.shape)
    else:
        X, Y = np.broadcast_to(xs, shifted.shape), shifted
    vals = np.asarray(f(X.ravel(), Y.ravel()))
    vals = vals.reshape(vals.shape[:-1] + (6, t.size))
    d_h = (8.0 * (vals[..., 4, :] - vals[..., 1, :]) - (vals[..., 5, :] - vals[..., 0, :])) / (
        12.0 * h
    )
    d_h2 = (8.0 * (vals[..., 3, :] - vals[..., 2, :]) - (vals[..., 4, :] - vals[..., 1, :])) / (
        6.0 * h
    )
    return (16.0 * d_h2 - d_h) / 15.0


# -- intrinsic curvature via finite differences -------------------------------


def brioschi_curvature_fd(spec: ImmersionSpec, xs, ys) -> np.ndarray:
    """Brioschi curvature with metric second derivatives by finite differences.

    The metric's *first* derivatives are jet-exact; one outer stencil supplies
    the second derivatives, making this route independent of the embedding
    data used by the Gauss-equation curvature.  ``xs``, ``ys`` are 1-D arrays.
    """

    def metric_d1(px, py):
        return ChartFrame(spec, px, py, degree=2).dg  # [l, i, j] = d_l g_ij

    ddg_x = partial_derivative(spec, metric_d1, xs, ys, 0)  # d_x d_l g_ij
    ddg_y = partial_derivative(spec, metric_d1, xs, ys, 1)
    fr = ChartFrame(spec, xs, ys, degree=2)
    return brioschi(fr.g, fr.dg, ddg_y[1, 0, 0], ddg_x[1, 0, 1], ddg_x[0, 1, 1])


# -- identity residuals and masks ---------------------------------------------


def _tri_symmetry(fr) -> np.ndarray:
    """Asymmetry of the cubic form's orthonormal components."""
    sig = fr.sigma_frame
    tri = np.zeros(fr.xs.size)
    for perm in permutations(range(3)):
        tri = np.maximum(tri, np.max(np.abs(sig - np.transpose(
            sig, perm + (3,) if sig.ndim == 4 else perm)), axis=(0, 1, 2)))
    return tri


def _reeb_normal(fr) -> np.ndarray:
    R = ambient.reeb(fr.F_v)
    h_dot_R = np.abs(ambient.real_inner(fr.H, R))
    A_R = np.abs(fr.form(R)).max(axis=(0, 1))
    return np.maximum(h_dot_R, A_R)


def _ricci_identity(fr) -> np.ndarray:
    ricci = fr.laplace_JH - fr.grad_div_JH - fr.kappa * fr.a
    return np.sqrt(np.einsum("ij...,i...,j...->...", fr.g, ricci, ricci))


def _norm(v) -> np.ndarray:
    """Per-point Euclidean norm of a stacked ambient vector."""
    return np.sqrt(np.sum(np.abs(v) ** 2, axis=0))


def _normal_laplacian(fr) -> np.ndarray:
    R = ambient.reeb(fr.F_v)
    lap_JH_amb = fr.laplace_JH[0] * fr.Fx_v + fr.laplace_JH[1] * fr.Fy_v
    return _norm(fr.normal_laplacian_H + ambient.apply_J(lap_JH_amb) + fr.H + 2.0 * fr.div_JH * R)


def _div_jb_identity(fr) -> np.ndarray:
    grad_h2_along_JH = np.einsum("i...,ij...,j...->...", fr.a, fr.g, fr.grad_norm_H_sq)
    return np.abs(fr.div_JB_JH_JH - 2.0 * fr.obstruction_density - 0.5 * grad_h2_along_JH)


def _four_symmetry(fr) -> np.ndarray:
    """Asymmetry of the covariant derivative of sigma (chart components)."""
    sig_c, gamma = fr.sigma_chart, fr.gamma
    nabla_sigma = (
        fr.d_sigma_chart
        - np.einsum("mli...,mjk...->lijk...", gamma, sig_c)
        - np.einsum("mlj...,imk...->lijk...", gamma, sig_c)
        - np.einsum("mlk...,ijm...->lijk...", gamma, sig_c)
    )
    four = np.zeros(fr.xs.size)
    base_axes = (0, 1, 2, 3)
    for perm in permutations(base_axes):
        if perm == base_axes:
            continue
        moved = np.transpose(nabla_sigma, perm + (4,) if nabla_sigma.ndim == 5 else perm)
        four = np.maximum(four, np.max(np.abs(nabla_sigma - moved), axis=(0, 1, 2, 3)))
    return four


def _great_circle(fr):
    """The great circle q(t) = cos(t) p + sin(t) e1 through each point p, as a
    jet-vector of degree 1 in t at t = 0 (t rides on the jets' x slot)."""
    zeros = np.zeros(fr.xs.size)
    t, _ = jets.lift_point(zeros, zeros, 1)
    cos_t, sin_t = jets.cos(t), jets.sin(t)
    return tuple(cos_t * p + sin_t * x for p, x in zip(fr.F_v, fr.e1))


def _covariant_d(p, V) -> np.ndarray:
    """Sphere derivative at t = 0 of the jet-vector V along the great circle:
    the exact t-derivative less its radial part at p (Gauss formula)."""
    dV = values(jv_dx(V))
    return dV - ambient.real_inner(dV, p) * p


def _sasakian_reeb(fr) -> np.ndarray:
    """D_X R + J_c X for X = e1, with D_X R read off R along the great circle."""
    D_R = _covariant_d(fr.F_v, ambient.reeb(_great_circle(fr)))
    return _norm(D_R + ambient.contact_extended_J(fr.F_v, fr.e1))


def _sasakian_J(fr) -> np.ndarray:
    """(D_X J_c)(Y) - <X, Y> R + alpha(Y) X for X = e1 and the tangent field
    Y(t) = Y0 - <Y0, q> q along the great circle, Y0 = e2 + R/2 + e1/4."""
    p, X = fr.F_v, fr.e1
    R = ambient.reeb(p)
    Y0 = fr.e2 + 0.5 * R + 0.25 * X
    q = _great_circle(fr)
    a = ambient.real_inner(q, Y0)
    Y = tuple(-(a * qk) + y0 for qk, y0 in zip(q, Y0))  # Jet2 first: ndarray - Jet2 misbroadcasts
    D_JY = _covariant_d(p, ambient.contact_extended_J(q, Y))
    lhs = D_JY - ambient.contact_extended_J(p, _covariant_d(p, Y))
    Y_p = values(Y)
    return _norm(lhs - ambient.real_inner(X, Y_p) * R + ambient.real_inner(Y_p, R) * X)


def _csl_gated(fr) -> np.ndarray:
    """Every point when the batch's max |Div(JH)| is below CSL_GATE, else none."""
    return np.full(fr.xs.size, bool(np.max(np.abs(fr.div_JH)) < CSL_GATE))


def _csl_gated_away_from_zero_H(fr) -> np.ndarray:
    return _csl_gated(fr) & (np.sqrt(fr.norm_H_sq) >= SMALL_H)


def _willmore_legendrian_gated(maps) -> np.ndarray:
    """Points whose Willmore-Legendrian residual is below 1e-6."""
    return maps["willmore_legendrian_residual"] < 1e-6


# -- the registry -------------------------------------------------------------


CHECKS = (
    # verify: the grid maps of grid_residuals.
    Check("legendrian_defect", "grid", 1e-10,
          "unit-norm and Legendrian tangency defect of F",
          itemgetter("legendrian_defect")),
    Check("csl_residual", "grid", 1e-7,
          "csL equation: Div(JH) = 0",
          itemgetter("csl_residual")),
    Check("csl_willmore_residual", "grid", 1e-5,
          "csL-Willmore equation (expanded fourth-order form)",
          itemgetter("csl_willmore_residual")),
    Check("obstruction_trace", "grid", 1e-6,
          "trace<B(., nabla . JH), H> = 0",
          itemgetter("obstruction_trace")),
    # Consistency with the classification theorem: wherever the
    # Willmore-Legendrian residual is tiny, |H| must be tiny too.
    Check("willmore_implies_minimal", "grid", 1e-6,
          "small Willmore-Legendrian residual forces small |H|",
          itemgetter("norm_H"), _willmore_legendrian_gated),
    # verify and identity_suite: a degree-5 frame at seeded sample points.
    Check("legendrian_defect", "identity", 1e-11,
          "unit-norm and Legendrian tangency defect of F",
          lambda fr: legendrian_defect(fr.F)),
    Check("tri_symmetry", "identity", 1e-11,
          "full symmetry of the cubic form <B(e_a,e_b), J e_c>",
          _tri_symmetry),
    Check("reeb_normal", "identity", 1e-11,
          "H orthogonal to the Reeb direction; vanishing Reeb shape operator",
          _reeb_normal),
    Check("gauss_claim", "identity", 1e-10,
          "2*kappa = 2 + |H|^2 - |B|^2",
          lambda fr: np.abs(2.0 * fr.kappa - 2.0 - fr.norm_H_sq + fr.norm_B_sq)),
    Check("gauss_vs_brioschi", "identity", 1e-7,
          "Gauss-equation curvature vs intrinsic Brioschi (jet metric derivatives)",
          lambda fr: np.abs(fr.kappa_brioschi - fr.kappa)),
    Check("gauss_vs_brioschi_fd", "identity", 1e-7,
          "Gauss-equation curvature vs intrinsic Brioschi "
          "(finite-difference metric derivatives)",
          lambda fr: np.abs(brioschi_curvature_fd(fr.spec, fr.xs, fr.ys) - fr.kappa)),
    Check("ricci_identity", "identity", 1e-5,
          "Delta(JH) = grad Div(JH) + kappa JH for the closed dual one-form",
          _ricci_identity),
    Check("normal_laplacian", "identity", 1e-4,
          "normal-bundle Laplacian identity Delta^nu H + J Delta(JH) + H + 2 Div(JH) R = 0",
          _normal_laplacian),
    Check("div_jb_identity", "identity", 1e-5,
          "Div(J B(JH,JH)) = 2 trace<B(., nabla . JH), H> + grad_{JH}|H|^2 / 2",
          _div_jb_identity),
    Check("bochner", "identity", 1e-5,
          "1/2 Delta|H|^2 = |nabla JH|^2 + kappa |JH|^2 on csL members",
          lambda fr: np.abs(
              0.5 * fr.laplace_norm_H_sq - fr.norm_nabla_JH_sq - fr.kappa * fr.norm_H_sq
          ),
          _csl_gated),
    Check("log_h_curvature", "identity", 1e-5,
          "Delta log|H| = kappa away from zeros of H on csL members",
          lambda fr: np.abs(fr.laplace_log_H - fr.kappa), _csl_gated_away_from_zero_H),
    Check("four_symmetry", "identity", 1e-6,
          "full symmetry of the covariant derivative of the cubic form",
          _four_symmetry),
    Check("closedness", "identity", 1e-6,
          "closedness of the one-form dual to JH",
          lambda fr: np.abs(fr.d_omega[0, 1] - fr.d_omega[1, 0])),
    Check("sasakian_reeb", "identity", 1e-11,
          "sphere covariant derivative of the Reeb field equals -J X",
          _sasakian_reeb),
    Check("sasakian_J", "identity", 1e-11,
          "(nabla_X J)(Y) = <X,Y> R - alpha(Y) X on the sphere",
          _sasakian_J),
    # classify: grid maxima as yes/no verdicts.
    Check("legendrian", "classify", 1e-10,
          "grid-max Legendrian defect", itemgetter("legendrian_defect")),
    Check("minimal", "classify", 1e-8,
          "grid-max |H|", itemgetter("norm_H")),
    Check("csl", "classify", 1e-7,
          "grid-max |Div(JH)|", itemgetter("csl_residual")),
    Check("willmore_legendrian", "classify", 1e-8,
          "grid-max Willmore-Legendrian residual", itemgetter("willmore_legendrian_residual")),
    Check("csl_willmore", "classify", 1e-5,
          "grid-max csL-Willmore residual", itemgetter("csl_willmore_residual")),
    # table: grid-max deviation of each closed-form row.
    Check("metric", "table", 1e-10, "closed-form induced metric"),
    Check("shape_operator_nu1", "table", 1e-10,
          "shape operator for the unit normal J e_1 (orthonormal frame)"),
    Check("shape_operator_nu2", "table", 1e-10,
          "shape operator for the unit normal J e_2 (orthonormal frame)"),
    Check("mean_curvature_mu", "table", 1e-10, "mean curvature components in the J e_a frame"),
    Check("norm_H_sq", "table", 1e-10, "squared mean curvature norm"),
    Check("gauss_curvature", "table", 1e-10, "Gauss curvature of the induced metric"),
    Check("shape_operator_iFx", "table", 1e-10,
          "chart quadratic form <B_ij, i F_x> (non-unit normal)"),
    Check("shape_operator_iFy", "table", 1e-10,
          "chart quadratic form <B_ij, i F_y> (non-unit normal)"),
    Check("mean_curvature_components", "table", 1e-10,
          "mean curvature pairings (<H, i F_x>, <H, i F_y>)"),
    # energy: the change of the Willmore energy under grid doubling.
    Check("quadrature_doubling", "energy", 1e-10,
          "energy change under grid doubling (spectral stability)"),
)


def checks_in(family: str, registry: tuple[Check, ...] = CHECKS) -> tuple[Check, ...]:
    """The rows of one family of ``registry`` (``CHECKS`` or a run's resolved copy), in order."""
    return tuple(row for row in registry if row.family == family)


def identity_suite(
    spec: ImmersionSpec,
    points,
    registry: tuple[Check, ...] = CHECKS,
) -> ResidualReport:
    """Verify the pointwise identity web at the given chart points.

    ``points`` is a pair (xs, ys) of equal-length arrays.  Points that fail a
    check's precondition (|H| too small for log|H|; non-csL member for the
    csL-only identities) are counted as skipped, never silently dropped.
    """
    xs, ys = (np.asarray(a, dtype=float) for a in points)
    fr = ChartFrame(spec, xs, ys, degree=5)
    return ResidualReport(
        surface=spec.label,
        descriptor=f"{xs.size} seeded interior points",
        checks=tuple(row.evaluate(fr) for row in checks_in("identity", registry)),
    )


# -- energy -------------------------------------------------------------------


def _quadrature(spec: ImmersionSpec, nx: int, ny: int):
    """Nodes (xs, ys) and weights of the tensor-product rule over the chart.

    Periodic axes use the uniform-node form of the trapezoid rule (no
    duplicated endpoint) and non-periodic axes Gauss-Legendre nodes, both
    spectrally accurate for smooth integrands.  Flat arrays, x-major.
    """
    if nx < 4 or ny < 4:
        raise GridError(f"integration grid {nx}x{ny} too small (need >= 4 per axis)")

    def axis_nodes(axis, m):
        lo, hi = spec.chart_domain[axis]
        if spec.periodic[axis]:
            step = (hi - lo) / m
            return lo + step * np.arange(m), np.full(m, step)
        t, w = np.polynomial.legendre.leggauss(m)
        return lo + 0.5 * (hi - lo) * (t + 1.0), 0.5 * (hi - lo) * w

    (xn, xw), (yn, yw) = axis_nodes(0, nx), axis_nodes(1, ny)
    xs, ys = (g.ravel() for g in np.meshgrid(xn, yn, indexing="ij"))
    return xs, ys, np.outer(xw, yw).ravel()


def willmore_energy(spec: ImmersionSpec, grid: tuple[int, int] = (64, 64)):
    """(area, energy) per chart rectangle by ``_quadrature``'s rule.

    area = integral of sqrt(det g); energy = integral of (|H|^2/4 + 1)
    sqrt(det g) — the ambient sectional curvature term is identically 1 on
    the unit sphere.  ``grid`` gives the nodes per axis.  Summation via
    math.fsum in a fixed order, so results are bit-stable.

    Nodes are swept in blocks of ``ENERGY_BLOCK_POINTS``, one frame each,
    freed before the next is built.  Point values do not depend on the batch
    and fsum is correctly rounded, so the sums are bitwise those of one
    whole-grid frame; an evaluation error names the worst point of its block.
    """
    xs, ys, w2 = _quadrature(spec, *grid)
    blocks = []
    for lo in range(0, xs.size, ENERGY_BLOCK_POINTS):
        block = slice(lo, lo + ENERGY_BLOCK_POINTS)
        fr = ChartFrame(spec, xs[block], ys[block], degree=2)
        blocks.append((fr.det_g, fr.norm_H_sq))
        del fr  # its jets are freed before the next block's are built
    det_g, norm_H_sq = map(np.concatenate, zip(*blocks))
    sd = np.sqrt(det_g)
    area = math.fsum((w2 * sd).tolist())
    energy = math.fsum((w2 * sd * (0.25 * norm_H_sq + 1.0)).tolist())
    return area, energy


# -- grid verification --------------------------------------------------------


def _grid_residuals(spec: ImmersionSpec, xs, ys) -> dict[str, np.ndarray]:
    """Per-point residual magnitudes used by the verify command."""
    fr = ChartFrame(spec, xs, ys, degree=5)
    return {
        "legendrian_defect": legendrian_defect(fr.F),
        "csl_residual": np.abs(fr.div_JH),
        "willmore_legendrian_residual": fr.willmore_legendrian_residual,
        "csl_willmore_residual": fr.csl_willmore_residual,
        "obstruction_trace": np.abs(fr.obstruction_density),
        "norm_H": np.sqrt(fr.norm_H_sq),
    }


def _grid_chunk(args):
    spec, xs, ys = args
    return _grid_residuals(spec, xs, ys)


def _pool_size(workers: int, n_points: int) -> int:
    """Processes actually started: never more than the cores, nor more than
    one per ``MIN_POINTS_PER_WORKER`` points, and at least one."""
    return max(1, min(workers, os.cpu_count() or 1, n_points // MIN_POINTS_PER_WORKER))


def grid_residuals(
    spec: ImmersionSpec, nx: int, ny: int, workers: int = 1
) -> dict[str, np.ndarray]:
    """Residual maps on the half-offset nx-by-ny grid, optionally in parallel.

    Chunks are split by contiguous index ranges and reassembled in submission
    order, so the result is identical for any worker count.  The pool is
    clamped to the core count and to ``MIN_POINTS_PER_WORKER`` points per
    worker.
    """
    if nx < 4 or ny < 4:
        raise GridError(f"verification grid {nx}x{ny} too small (need >= 4 per axis)")
    xs, ys = grid_points(spec, nx, ny)
    workers = _pool_size(workers, xs.size)
    if workers <= 1:
        return _grid_residuals(spec, xs, ys)
    bounds = np.linspace(0, xs.size, workers + 1).astype(int)
    chunks = [
        (spec, xs[a:b], ys[a:b])
        for a, b in zip(bounds[:-1], bounds[1:])
        if b > a
    ]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(_grid_chunk, chunks))
    return {
        key: np.concatenate([p[key] for p in parts]) for key in parts[0]
    }


def run_verification(
    spec: ImmersionSpec,
    nx: int = 16,
    ny: int = 16,
    seed: int = 0,
    n_sample: int = 100,
    workers: int = 1,
    registry: tuple[Check, ...] = CHECKS,
) -> ResidualReport:
    """The grid rows on the grid maps, then the identity suite, as one report."""
    maps = grid_residuals(spec, nx, ny, workers=workers)
    checks = tuple(row.evaluate(maps) for row in checks_in("grid", registry))
    xs, ys = sample_points(spec, n_sample, seed)
    suite = identity_suite(spec, (xs, ys), registry)
    return ResidualReport(
        surface=spec.label,
        descriptor=f"{nx}x{ny} half-offset grid; {n_sample} seeded points (seed {seed})",
        checks=checks + suite.checks,
    )
