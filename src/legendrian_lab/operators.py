"""The check registry, and the sweeps over ``geometry.ChartFrame`` that feed it.

``CHECKS`` is an ordered tuple with one ``Check`` row for every check any
command can print.  A row holds the check's name, its family, its default
tolerance, its description, the per-point residual it reads and the mask of
points it reads it at.  A CLI run resolves the registry once: a copy of
``CHECKS`` whose every tolerance is the ``[tolerances]`` override or the
default, times the tolerance scale.  ``Check.evaluate`` is the one place a
residual is judged against a tolerance.  Each command iterates the rows of its
families, in registry order:

* ``grid`` rows (``run_verification``) read the residual maps that
  ``grid_residuals`` sweeps over the half-offset grid;
* ``identity`` rows (``identity_suite``, after the grid rows in ``verify``)
  read a degree-5 ``ChartFrame`` at seeded sample points;
* ``classify`` rows read the same grid maps; the CLI prints PASS as the
  verdict yes and FAIL as no;
* ``table`` rows read the CLI's per-point |computed - closed|, and the
  ``energy`` row its energy change under grid doubling.

A row with no residual reads the entry of its name in a dict source.

A mask selects all points, the csL-gated points (all or none: every
|Div(JH)| of the batch must be below ``CSL_GATE``), the csL-gated points with
|H| >= ``SMALL_H``, or the points whose Willmore-Legendrian residual is below
1e-6.  Points outside the mask count as skipped, and a row whose mask
selects no point does not compute its residual.  A row with no point left
(its mask selected none, or its batch held none) is SKIP.  A name may appear
in two families: ``legendrian_defect`` is both a grid row and an identity
row, and one ``[tolerances]`` override sets both.

Derivative strategy (the accuracy budget everything below leans on):

* Every residual and identity term comes out of the degree-5 jet chain in
  ``ChartFrame`` with no finite-difference error.  ``sweep`` builds one frame
  per block of at most ``BLOCK_POINTS`` grid points.  The two Sasakian checks
  test the ambient sphere, not the surface: they lift the great-circle
  parameter as a degree-1 jet and differentiate ``ambient``'s Reeb field and
  contact-extended J along it.

* Finite differences are the independent cross-check, not a second engine:
  ``partial_derivative`` (4th-order central differences with step
  h = 1e-3 * (1 + |coordinate|) and one Richardson extrapolation level,
  about 1e-12 relative error) feeds only ``brioschi_curvature_fd`` and the
  tests, which hold the jets to it.  ``gauss_vs_brioschi_fd`` hands it the
  identity suite's degree-5 frame, whose g and dg it reads; two degree-2
  stencil frames of its spec supply the metric's second derivatives.

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
from .geometry import ChartFrame, brioschi
from .surfaces import ImmersionSpec, grid_points, sample_points

#: Base finite-difference step scale: h = FD_H_SCALE * (1 + |coordinate|).
FD_H_SCALE = 1e-3

#: Stencil offsets in units of h, serving both D(h) and D(h/2).
_OFFSETS = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])

#: |H| below this excludes a point from log|H| and JH/|H| constructs.
SMALL_H = 1e-3

#: Grid-max |Div(JH)| below this marks a member as csL for gated checks.
CSL_GATE = 1e-6

#: Widest batch a grid sweep builds one frame for (``sweep``), and the points
#: per pool worker.  Blocks bound memory only: a point's values do not depend
#: on the batch it sits in, and one whole 8,192-point frame reads bitwise the
#: maps of its two blocks.  On a shared 2-core VM, 2 workers beat serial at
#: 16384 mironov degree-5 points (0.205 against 0.284 s); at 8192 they won
#: once (0.114 against 0.170 s) and lost once, in a 128x64 ``verify`` (0.208
#: against 0.145 s).  Under the heap thresholds that ``cli.main`` pins, a
#: repeated 128x128 energy call makes a median of 4 minor page faults in
#: blocks and 0 in one frame; under glibc's dynamic thresholds 3.8k and 9.7k.
BLOCK_POINTS = 4096


# -- report containers --------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """One named residual check: its largest |residual| and pass/fail status."""

    name: str
    description: str
    n_points: int
    n_skipped: int
    max_residual: float
    tolerance: float
    status: str  # PASS | FAIL | SKIP

    @property
    def passed(self) -> bool:
        return self.status != "FAIL"


@dataclass(frozen=True)
class ResidualReport:
    """Bundle of checks for one surface plus the sampling descriptor."""

    descriptor: str
    checks: tuple[CheckResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class Check:
    """One registry row.

    ``residual`` and ``mask`` read the row's source: a dict of per-point
    arrays (the grid maps for ``grid`` and ``classify`` rows, the CLI's
    deviations for ``table`` and ``energy`` rows) or a ``ChartFrame`` for
    ``identity`` rows.  ``residual`` None reads ``source[name]``, and
    ``mask`` None selects every point.
    """

    name: str
    family: str  # grid | identity | classify | table | energy
    tolerance: float
    description: str
    residual: Callable | None = None
    mask: Callable | None = None

    def evaluate(self, source) -> CheckResult:
        """The check on ``source``: the one place a residual meets a tolerance.

        Points outside the mask count as skipped, and with none masked in the
        residual is not computed.  A check with no point left, whether its
        mask selected none or its batch held none, is SKIP; otherwise it passes
        when the max |residual| is below the row's tolerance.
        """
        used = None if self.mask is None else self.mask(source)
        if used is not None and not used.any():
            n, kept = used.size, np.empty(0)
        else:
            residual = source[self.name] if self.residual is None else self.residual(source)
            residual = np.atleast_1d(np.asarray(residual, dtype=float))
            n, kept = residual.size, residual if used is None else residual[used]
        if kept.size == 0:
            return CheckResult(self.name, self.description, n, n, 0.0, self.tolerance, "SKIP")
        max_r = float(np.max(np.abs(kept)))
        status = "PASS" if max_r < self.tolerance else "FAIL"
        return CheckResult(
            self.name, self.description, n, n - kept.size, max_r, self.tolerance, status
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


def brioschi_curvature_fd(fr: ChartFrame) -> np.ndarray:
    """Brioschi curvature of a frame with metric second derivatives by finite differences.

    The metric values and *first* derivatives are the frame's own, jet-exact;
    one outer stencil of degree-2 frames supplies the second derivatives,
    making this route independent of the embedding data used by the
    Gauss-equation curvature.  The frame is one of ``ChartFrame.of``, on a 1-D batch.
    """

    def metric_d1(px, py):
        return ChartFrame.of(fr.spec, px, py, degree=2).dg  # [l, i, j] = d_l g_ij

    ddg_x = partial_derivative(fr.spec, metric_d1, fr.xs, fr.ys, 0)  # d_x d_l g_ij
    ddg_y = partial_derivative(fr.spec, metric_d1, fr.xs, fr.ys, 1)
    return brioschi(fr.g, fr.dg, ddg_y[1, 0, 0], ddg_x[1, 0, 1], ddg_x[0, 1, 1])


# -- identity residuals and masks ---------------------------------------------


def _asymmetry(T, rank: int) -> np.ndarray:
    """Per-point max |T - T o pi| over the permutations pi of T's first ``rank`` axes."""
    axes = tuple(range(rank))
    out = np.zeros(T.shape[rank:])
    for perm in permutations(axes):
        out = np.maximum(out, np.max(np.abs(T - np.transpose(T, perm + (rank,))), axis=axes))
    return out


def _tri_symmetry(fr) -> np.ndarray:
    """Asymmetry of the cubic form's orthonormal components."""
    return _asymmetry(fr.sigma_frame, 3)


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
    return _asymmetry(nabla_sigma, 4)


def _great_circle(fr):
    """The great circle q(t) = cos(t) p + sin(t) e1 through each point p, as a
    jet-vector of degree 1 in t at t = 0 (t rides on the jets' x slot)."""
    zeros = np.zeros(fr.xs.size)
    t, _ = jets.lift_point(zeros, zeros, 1)
    return jets.cos(t) * fr.F_v + jets.sin(t) * fr.e1


def _covariant_d(p, V) -> np.ndarray:
    """Sphere derivative at t = 0 of the jet-vector V along the great circle:
    the exact t-derivative less its radial part at p (Gauss formula)."""
    dV = V.dx().value
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
    Y = Y0 - a * q
    D_JY = _covariant_d(p, ambient.contact_extended_J(q, Y))
    lhs = D_JY - ambient.contact_extended_J(p, _covariant_d(p, Y))
    Y_p = Y.value
    return _norm(lhs - ambient.real_inner(X, Y_p) * R + ambient.real_inner(Y_p, R) * X)


def _csl_gated(fr) -> np.ndarray:
    """Every point when each |Div(JH)| of the batch is below CSL_GATE, else none."""
    return np.full(fr.xs.size, bool(np.all(np.abs(fr.div_JH) < CSL_GATE)))


def _csl_gated_away_from_zero_H(fr) -> np.ndarray:
    return _csl_gated(fr) & (np.sqrt(fr.norm_H_sq) >= SMALL_H)


def _willmore_legendrian_gated(maps) -> np.ndarray:
    """Points whose Willmore-Legendrian residual is below 1e-6."""
    return maps["willmore_legendrian_residual"] < 1e-6


# -- the registry -------------------------------------------------------------


CHECKS = (
    # verify: the grid maps of grid_residuals.
    Check("legendrian_defect", "grid", 1e-10, "unit-norm and Legendrian tangency defect of F"),
    Check("csl_residual", "grid", 1e-7, "csL equation: Div(JH) = 0"),
    Check("csl_willmore_residual", "grid", 1e-5,
          "csL-Willmore equation (expanded fourth-order form)"),
    Check("obstruction_trace", "grid", 1e-6, "trace<B(., nabla . JH), H> = 0"),
    # Consistency with the classification theorem: wherever the
    # Willmore-Legendrian residual is tiny, |H| must be tiny too.
    Check("willmore_implies_minimal", "grid", 1e-6,
          "small Willmore-Legendrian residual forces small |H|",
          itemgetter("norm_H"), _willmore_legendrian_gated),
    # verify and identity_suite: a degree-5 frame at seeded sample points.
    Check("legendrian_defect", "identity", 1e-11,
          "unit-norm and Legendrian tangency defect of F",
          lambda fr: fr.legendrian_defect),
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
          lambda fr: np.abs(brioschi_curvature_fd(fr) - fr.kappa)),
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
    # table: per-point deviation of each closed-form row.
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
    fr = ChartFrame.of(spec, xs, ys, degree=5)
    return ResidualReport(
        descriptor=f"{xs.size} seeded interior points",
        checks=tuple(row.evaluate(fr) for row in checks_in("identity", registry)),
    )


# -- the block sweep ------------------------------------------------------------


def _read_block(args):
    """``read`` of one block's frame; the frame is freed on return."""
    spec, xs, ys, degree, read = args
    return read(ChartFrame.of(spec, xs, ys, degree))


def _pool_size(workers: int, n_points: int) -> int:
    """Processes started: at most the cores and one per full block, at least one."""
    return max(1, min(workers, os.cpu_count() or 1, n_points // BLOCK_POINTS))


def sweep(
    spec: ImmersionSpec, xs, ys, degree: int, read, workers: int = 1
) -> dict[str, np.ndarray]:
    """``read`` of the frames of consecutive blocks of at most ``BLOCK_POINTS`` nodes.

    ``read``, a module-level function of one ``ChartFrame``, returns a dict of
    arrays with the batch axis last.  Only those are kept, each frame is freed
    before the next block's is built, and they are concatenated in block
    order; no points are one empty block, read to zero-point arrays.  With
    ``workers`` > 1 a pool of ``_pool_size`` processes maps the same blocks.
    """
    blocks = [
        (spec, xs[lo : lo + BLOCK_POINTS], ys[lo : lo + BLOCK_POINTS], degree, read)
        for lo in range(0, max(xs.size, 1), BLOCK_POINTS)
    ]
    workers = _pool_size(workers, xs.size)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_read_block, blocks))
    else:
        parts = list(map(_read_block, blocks))
    return {key: np.concatenate([p[key] for p in parts], axis=-1) for key in parts[0]}


# -- energy -------------------------------------------------------------------


def _quadrature(spec: ImmersionSpec, nx: int, ny: int):
    """Nodes (xs, ys) and per-axis weights (xw, yw) of the tensor-product rule over the chart.

    Periodic axes use the uniform-node form of the trapezoid rule (no
    duplicated endpoint) and non-periodic axes Gauss-Legendre nodes, both
    spectrally accurate for smooth integrands.  The nodes are flat arrays,
    x-major, so ``np.outer(xw, yw).ravel()`` weights them.
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
    return xs, ys, (xw, yw)


def _energy_terms(fr: ChartFrame) -> dict[str, np.ndarray]:
    return {"det_g": fr.det_g, "norm_H_sq": fr.norm_H_sq}


def _energy_sums(weights, terms) -> tuple[float, float]:
    """(area, energy) of the x-major node terms with per-axis weights (xw, yw).

    Summation via math.fsum, which is correctly rounded, so the sums are
    bit-stable whatever the order of the nodes.  The flat weights are formed
    only after the sweep.
    """
    w2 = np.outer(*weights).ravel()
    sd = np.sqrt(terms["det_g"])
    area = math.fsum((w2 * sd).tolist())
    energy = math.fsum((w2 * sd * (0.25 * terms["norm_H_sq"] + 1.0)).tolist())
    return area, energy


def willmore_energy(spec: ImmersionSpec, grid: tuple[int, int]):
    """(area, energy) per chart rectangle by ``_quadrature``'s rule.

    area = integral of sqrt(det g); energy = integral of (|H|^2/4 + 1)
    sqrt(det g) — the ambient sectional curvature term is identically 1 on
    the unit sphere.  ``grid`` gives the nodes per axis.

    The nodes go through ``sweep`` in-process, one degree-2 frame per block.
    det g and |H|^2 do not depend on the batch and fsum is correctly rounded,
    so the sums are bitwise those of one whole-grid frame.
    """
    xs, ys, weights = _quadrature(spec, *grid)
    return _energy_sums(weights, sweep(spec, xs, ys, 2, _energy_terms))


def energy_doubling(spec: ImmersionSpec, grid: tuple[int, int]):
    """``willmore_energy`` on ``grid`` and on the doubled grid, from one sweep.

    Both chart axes must be periodic.  The trapezoid grids are then nested:
    the doubled step is exactly half the coarse one, so every coarse node is
    bitwise the doubled grid's node of twice its indices.  Only the doubled
    grid is swept, and the coarse sums read its ``[::2, ::2]`` nodes with the
    coarse weights: two (area, energy) pairs, bitwise two ``willmore_energy``
    calls.  The coarse grid is validated first.  Gauss-Legendre nodes do not
    nest, so on a non-periodic axis both grids have to be swept.
    """
    if not all(spec.periodic):
        raise ValueError("nested grid doubling needs both chart axes periodic")
    nx, ny = grid
    _, _, coarse_weights = _quadrature(spec, nx, ny)
    xs, ys, weights = _quadrature(spec, 2 * nx, 2 * ny)
    terms = sweep(spec, xs, ys, 2, _energy_terms)
    coarse = {key: t.reshape(2 * nx, 2 * ny)[::2, ::2].ravel() for key, t in terms.items()}
    return _energy_sums(coarse_weights, coarse), _energy_sums(weights, terms)


# -- grid verification --------------------------------------------------------


def _residual_maps(fr: ChartFrame) -> dict[str, np.ndarray]:
    """Per-point residual magnitudes of one frame, read by the grid and classify rows."""
    return {
        "legendrian_defect": fr.legendrian_defect,
        "csl_residual": np.abs(fr.div_JH),
        "willmore_legendrian_residual": fr.willmore_legendrian_residual,
        "csl_willmore_residual": fr.csl_willmore_residual,
        "obstruction_trace": np.abs(fr.obstruction_density),
        "norm_H": np.sqrt(fr.norm_H_sq),
    }


def grid_residuals(
    spec: ImmersionSpec, nx: int, ny: int, workers: int = 1
) -> dict[str, np.ndarray]:
    """Residual maps on the half-offset nx-by-ny grid: ``sweep`` of degree-5 frames.

    The maps are the same for any worker count; the pool starts only at two
    full blocks.
    """
    if nx < 4 or ny < 4:
        raise GridError(f"verification grid {nx}x{ny} too small (need >= 4 per axis)")
    xs, ys = grid_points(spec, nx, ny)
    return sweep(spec, xs, ys, 5, _residual_maps, workers)


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
        descriptor=f"{nx}x{ny} half-offset grid; {n_sample} seeded points (seed {seed})",
        checks=checks + suite.checks,
    )
