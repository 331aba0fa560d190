"""Checks over ``geometry.ChartFrame`` sweeps: grid residuals, identities, energy.

Derivative strategy (the accuracy budget everything below leans on):

* Every residual and identity term comes out of the degree-5 jet chain in
  ``ChartFrame`` with no finite-difference error: the metric, B, H, JH,
  Div(JH) and its gradient, Delta Div(JH), the direct form
  Div(J W - 2 JH), Div(J B(JH,JH)), the rough Laplacian of JH, the
  normal-bundle Laplacian of H, |nabla JH|^2, Delta|H|^2, Delta log|H|, the
  obstruction trace and the chart partials of the cubic form and of the
  one-form dual to JH.  One sweep builds one frame per batch of points.
  (The two Sasakian checks test the ambient sphere, not the surface; they
  differentiate along great circles with their own 4-point stencil.)

* Finite differences are the independent cross-check, not a second engine:
  ``partial_derivative`` (4th-order central differences with step
  h = 1e-3 * (1 + |coordinate|) and one Richardson extrapolation level,
  about 1e-12 relative error) feeds only ``brioschi_curvature_fd``, whose
  ``gauss_vs_brioschi_fd`` check compares Richardson second derivatives of
  the metric with the Gauss equation, and the tests, which hold the jets to
  it.

Residuals swept by ``grid_residuals`` (ambient Euclidean norm for vector
equations, absolute value for scalar ones), each a ``ChartFrame`` property:

* csL:                  Div(JH) = 0
* Willmore-Legendrian:  -J grad Div(JH) + B(JH,JH) - |H|^2 H / 2
                        - 2 Div(JH) R = 0
* csL-Willmore:         Delta Div(JH) + 2 trace<B(., nabla . JH), H>
                        - |H|^2 Div(JH) / 2 - 4 Div(JH) = 0,
  cross-checked against the direct form Div(J W - 2 JH) where W is half the
  Willmore-Legendrian bracket (so <W, R> = -Div(JH)).

``identity_suite`` verifies the web of identities connecting these
quantities at seeded sample points; ``run_verification`` bundles the grid
residuals plus the suite into one report.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from . import ambient
from .errors import GridError, StencilOutOfDomainError
from .geometry import ChartFrame, brioschi, legendrian_defect
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

#: Tolerances for the identity suite (scaled by the CLI's tolerance factor).
IDENTITY_TOLERANCES = {
    "legendrian_defect": 1e-11,
    "tri_symmetry": 1e-11,
    "reeb_normal": 1e-11,
    "gauss_claim": 1e-10,
    "gauss_vs_brioschi": 1e-7,
    "gauss_vs_brioschi_fd": 1e-7,
    "ricci_identity": 1e-5,
    "normal_laplacian": 1e-4,
    "div_jb_identity": 1e-5,
    "bochner": 1e-5,
    "log_h_curvature": 1e-5,
    "four_symmetry": 1e-6,
    "closedness": 1e-6,
    "sasakian_reeb": 1e-6,
    "sasakian_J": 1e-6,
}

#: Tolerances for the grid residual checks run by the verify command.
VERIFY_TOLERANCES = {
    "legendrian_defect": 1e-10,
    "csl_residual": 1e-7,
    "csl_willmore_residual": 1e-5,
    "csl_willmore_agreement": 1e-4,
    "obstruction_trace": 1e-6,
    "willmore_implies_minimal": 1e-6,
}

#: Neutral one-line description attached to each check in reports.
CHECK_DESCRIPTIONS = {
    "legendrian_defect": "unit-norm and Legendrian tangency defect of F",
    "tri_symmetry": "full symmetry of the cubic form <B(e_a,e_b), J e_c>",
    "reeb_normal": "H orthogonal to the Reeb direction; vanishing Reeb shape operator",
    "gauss_claim": "2*kappa = 2 + |H|^2 - |B|^2",
    "gauss_vs_brioschi": "Gauss-equation curvature vs intrinsic Brioschi (jet metric derivatives)",
    "gauss_vs_brioschi_fd": "Gauss-equation curvature vs intrinsic Brioschi (finite-difference metric derivatives)",
    "ricci_identity": "Delta(JH) = grad Div(JH) + kappa JH for the closed dual one-form",
    "normal_laplacian": "normal-bundle Laplacian identity Delta^nu H + J Delta(JH) + H + 2 Div(JH) R = 0",
    "div_jb_identity": "Div(J B(JH,JH)) = 2 trace<B(., nabla . JH), H> + grad_{JH}|H|^2 / 2",
    "bochner": "1/2 Delta|H|^2 = |nabla JH|^2 + kappa |JH|^2 on csL members",
    "log_h_curvature": "Delta log|H| = kappa away from zeros of H on csL members",
    "four_symmetry": "full symmetry of the covariant derivative of the cubic form",
    "closedness": "closedness of the one-form dual to JH",
    "sasakian_reeb": "sphere covariant derivative of the Reeb field equals -J X",
    "sasakian_J": "(nabla_X J)(Y) = <X,Y> R - alpha(Y) X on the sphere",
    "csl_residual": "csL equation: Div(JH) = 0",
    "csl_willmore_residual": "csL-Willmore equation (expanded fourth-order form)",
    "csl_willmore_agreement": "expanded vs direct csL-Willmore residual agreement",
    "obstruction_trace": "trace<B(., nabla . JH), H> = 0",
    "willmore_implies_minimal": "small Willmore-Legendrian residual forces small |H|",
    "willmore_legendrian_residual": "Willmore-Legendrian equation residual (grid max reported)",
    "quadrature_doubling": "energy change under grid doubling (spectral stability)",
    "metric": "closed-form induced metric",
    "shape_operator_nu1": "shape operator for the unit normal J e_1 (orthonormal frame)",
    "shape_operator_nu2": "shape operator for the unit normal J e_2 (orthonormal frame)",
    "mean_curvature_mu": "mean curvature components in the J e_a frame",
    "norm_H_sq": "squared mean curvature norm",
    "gauss_curvature": "Gauss curvature of the induced metric",
    "shape_operator_iFx": "chart quadratic form <B_ij, i F_x> (non-unit normal)",
    "shape_operator_iFy": "chart quadratic form <B_ij, i F_y> (non-unit normal)",
    "mean_curvature_components": "mean curvature pairings (<H, i F_x>, <H, i F_y>)",
}


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


def make_check(
    name: str,
    residuals: np.ndarray,
    tolerance: float,
    used_mask: np.ndarray | None = None,
) -> CheckResult:
    """Aggregate per-point residuals (or one scalar) into a named check.

    Points outside ``used_mask`` count as skipped; a check with no point left
    is SKIP, otherwise it passes when the max |residual| is below ``tolerance``.
    """
    residuals = np.atleast_1d(np.asarray(residuals, dtype=float))
    n = residuals.size
    if used_mask is None:
        used_mask = np.ones(n, dtype=bool)
    used = residuals[used_mask]
    n_used = used.size
    if n_used == 0:
        return CheckResult(
            name=name,
            description=CHECK_DESCRIPTIONS.get(name, name),
            n_points=n,
            n_skipped=n,
            max_residual=0.0,
            rms_residual=0.0,
            tolerance=tolerance,
            status="SKIP",
        )
    max_r = float(np.max(np.abs(used)))
    rms = float(np.sqrt(np.mean(used**2)))
    return CheckResult(
        name=name,
        description=CHECK_DESCRIPTIONS.get(name, name),
        n_points=n,
        n_skipped=n - n_used,
        max_residual=max_r,
        rms_residual=rms,
        tolerance=tolerance,
        status="PASS" if max_r < tolerance else "FAIL",
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


# -- the identity suite -------------------------------------------------------


def _sasakian_residuals(
    p: np.ndarray, X: np.ndarray, Y0: np.ndarray, reeb_sign: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Finite-difference residuals of the two sphere Sasakian identities.

    Along the great circle gamma(t) = cos(t) p + sin(t) X (X a unit tangent):
    the projected derivative of R(gamma(t)) should equal -J_c X, and the
    derivative of the contact-extended J applied to the projected field
    Y(t) = Y0 - <Y0, gamma> gamma should satisfy
    (nabla_X J_c)(Y) = <X, Y> R - alpha(Y) X.
    """
    h = 1e-2
    steps = np.array([-2.0, -1.0, 1.0, 2.0]) * h
    weights = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * h)

    def gamma(t):
        return math.cos(t) * p + math.sin(t) * X

    def project(v):
        return v - ambient.real_inner(v, p) * p

    # identity 1: sphere derivative of the Reeb field
    dR = sum(w * ambient.reeb(gamma(t), reeb_sign) for w, t in zip(weights, steps))
    lhs1 = project(dR)
    rhs1 = -ambient.contact_extended_J(p, X, reeb_sign)
    res1 = np.sqrt(np.sum(np.abs(lhs1 - rhs1) ** 2, axis=0))

    # identity 2: derivative of the contact-extended J
    def Yt(t):
        q = gamma(t)
        return Y0 - ambient.real_inner(Y0, q) * q

    def JYt(t):
        q = gamma(t)
        return ambient.contact_extended_J(q, Yt(t), reeb_sign)

    dJY = sum(w * JYt(t) for w, t in zip(weights, steps))
    dY = sum(w * Yt(t) for w, t in zip(weights, steps))
    lhs2 = project(dJY) - ambient.contact_extended_J(p, project(dY), reeb_sign)
    Y = Yt(0.0)
    R = ambient.reeb(p, reeb_sign)
    alpha_Y = ambient.real_inner(Y, R)
    rhs2 = ambient.real_inner(X, Y) * R - alpha_Y * X
    res2 = np.sqrt(np.sum(np.abs(lhs2 - rhs2) ** 2, axis=0))
    return res1, res2


def identity_suite(
    spec: ImmersionSpec,
    points,
    tolerance_scale: float = 1.0,
    reeb_sign: int = 1,
) -> ResidualReport:
    """Verify the pointwise identity web at the given chart points.

    ``points`` is a pair (xs, ys) of equal-length arrays.  Points that fail a
    check's precondition (|H| too small for log|H|; non-csL member for the
    csL-only identities) are counted as skipped, never silently dropped.
    """
    xs, ys = (np.asarray(a, dtype=float) for a in points)
    n = xs.size
    tol = {k: v * tolerance_scale for k, v in IDENTITY_TOLERANCES.items()}
    fr = ChartFrame(spec, xs, ys, degree=5)
    checks: list[CheckResult] = []

    checks.append(
        make_check("legendrian_defect", legendrian_defect(fr.F), tol["legendrian_defect"])
    )

    # Cubic form symmetry (orthonormal components).
    sig = fr.sigma_frame
    tri = np.zeros(n)
    for perm in permutations(range(3)):
        tri = np.maximum(tri, np.max(np.abs(sig - np.transpose(
            sig, perm + (3,) if sig.ndim == 4 else perm)), axis=(0, 1, 2)))
    checks.append(make_check("tri_symmetry", tri, tol["tri_symmetry"]))

    # H orthogonal to Reeb; vanishing Reeb shape operator.
    R = ambient.reeb(fr.F_v)
    h_dot_R = np.abs(ambient.real_inner(fr.H, R))
    A_R = np.abs(fr.form(R)).max(axis=(0, 1))
    checks.append(make_check("reeb_normal", np.maximum(h_dot_R, A_R), tol["reeb_normal"]))

    # Claim: 2 kappa = 2 + |H|^2 - |B|^2.
    claim = np.abs(2.0 * fr.kappa - 2.0 - fr.norm_H_sq + fr.norm_B_sq)
    checks.append(make_check("gauss_claim", claim, tol["gauss_claim"]))

    # Intrinsic (Brioschi) vs extrinsic (Gauss equation) curvature.
    checks.append(
        make_check(
            "gauss_vs_brioschi", np.abs(fr.kappa_brioschi - fr.kappa), tol["gauss_vs_brioschi"]
        )
    )
    checks.append(
        make_check(
            "gauss_vs_brioschi_fd",
            np.abs(brioschi_curvature_fd(spec, xs, ys) - fr.kappa),
            tol["gauss_vs_brioschi_fd"],
        )
    )

    # Ricci identity for the closed one-form dual to JH.
    ricci = fr.laplace_JH - fr.grad_div_JH - fr.kappa * fr.a
    ricci_norm = np.sqrt(np.einsum("ij...,i...,j...->...", fr.g, ricci, ricci))
    checks.append(make_check("ricci_identity", ricci_norm, tol["ricci_identity"]))

    # Normal-bundle Laplacian identity.
    lap_JH_amb = fr.laplace_JH[0] * fr.Fx_v + fr.laplace_JH[1] * fr.Fy_v
    nl = fr.normal_laplacian_H + ambient.apply_J(lap_JH_amb) + fr.H + 2.0 * fr.div_JH * R
    checks.append(
        make_check(
            "normal_laplacian",
            np.sqrt(np.sum(np.abs(nl) ** 2, axis=0)),
            tol["normal_laplacian"],
        )
    )

    # Div(J B(JH,JH)) identity.
    grad_h2_along_JH = np.einsum("i...,ij...,j...->...", fr.a, fr.g, fr.grad_norm_H_sq)
    div_jb_res = np.abs(
        fr.div_JB_JH_JH - 2.0 * fr.obstruction_density - 0.5 * grad_h2_along_JH
    )
    checks.append(make_check("div_jb_identity", div_jb_res, tol["div_jb_identity"]))

    # csL gate for the csL-only identities.
    is_csl = bool(np.max(np.abs(fr.div_JH)) < CSL_GATE)
    csl_mask = np.full(n, is_csl)

    # Bochner identity (csL members: surface Ricci = kappa g).
    bochner = np.abs(
        0.5 * fr.laplace_norm_H_sq - fr.norm_nabla_JH_sq - fr.kappa * fr.norm_H_sq
    )
    checks.append(make_check("bochner", bochner, tol["bochner"], used_mask=csl_mask))

    # Delta log|H| = kappa away from zeros of H (csL members).
    big_h = np.sqrt(fr.norm_H_sq) >= SMALL_H
    log_mask = csl_mask & big_h
    if np.any(log_mask):
        log_res = np.abs(fr.laplace_log_H - fr.kappa)
    else:
        log_res = np.zeros(n)
    checks.append(
        make_check("log_h_curvature", log_res, tol["log_h_curvature"], used_mask=log_mask)
    )

    # Four-symmetry of the covariant derivative of sigma (chart components).
    sig_c, gamma = fr.sigma_chart, fr.gamma
    nabla_sigma = (
        fr.d_sigma_chart
        - np.einsum("mli...,mjk...->lijk...", gamma, sig_c)
        - np.einsum("mlj...,imk...->lijk...", gamma, sig_c)
        - np.einsum("mlk...,ijm...->lijk...", gamma, sig_c)
    )
    four = np.zeros(n)
    base_axes = (0, 1, 2, 3)
    for perm in permutations(base_axes):
        if perm == base_axes:
            continue
        moved = np.transpose(nabla_sigma, perm + (4,) if nabla_sigma.ndim == 5 else perm)
        four = np.maximum(four, np.max(np.abs(nabla_sigma - moved), axis=(0, 1, 2, 3)))
    checks.append(make_check("four_symmetry", four, tol["four_symmetry"]))

    # Closedness of the one-form dual to JH.
    d_omega = fr.d_omega
    checks.append(
        make_check("closedness", np.abs(d_omega[0, 1] - d_omega[1, 0]), tol["closedness"])
    )

    # Sasakian identities of the ambient sphere at the surface points.
    X = fr.e1
    R_s = ambient.reeb(fr.F_v, reeb_sign)
    Y0 = fr.e2 + 0.5 * R_s + 0.25 * fr.e1
    res1, res2 = _sasakian_residuals(fr.F_v, X, Y0, reeb_sign)
    checks.append(make_check("sasakian_reeb", res1, tol["sasakian_reeb"]))
    checks.append(make_check("sasakian_J", res2, tol["sasakian_J"]))

    return ResidualReport(
        surface=spec.label,
        descriptor=f"{n} seeded interior points",
        checks=tuple(checks),
    )


# -- energy -------------------------------------------------------------------


def willmore_energy(spec: ImmersionSpec, grid: tuple[int, int] = (64, 64)):
    """(area, energy) per chart rectangle by a tensor-product quadrature rule.

    area = integral of sqrt(det g); energy = integral of (|H|^2/4 + 1)
    sqrt(det g) — the ambient sectional curvature term is identically 1 on
    the unit sphere.  Periodic axes use the uniform-node form of the
    trapezoid rule (no duplicated endpoint) and non-periodic axes
    Gauss-Legendre nodes, both spectrally accurate for smooth integrands,
    with ``grid`` nodes per axis.  Summation via math.fsum in a fixed order,
    so results are bit-stable.
    """
    nx, ny = grid
    if nx < 4 or ny < 4:
        raise GridError(f"integration grid {nx}x{ny} too small (need >= 4 per axis)")

    def axis_nodes(axis, m):
        lo, hi = spec.chart_domain[axis]
        if spec.periodic[axis]:
            step = (hi - lo) / m
            return lo + step * np.arange(m), np.full(m, step)
        t, w = np.polynomial.legendre.leggauss(m)
        return lo + 0.5 * (hi - lo) * (t + 1.0), 0.5 * (hi - lo) * w

    xn, xw = axis_nodes(0, nx)
    yn, yw = axis_nodes(1, ny)
    gx, gy = np.meshgrid(xn, yn, indexing="ij")
    fr = ChartFrame(spec, gx.ravel(), gy.ravel(), degree=2)
    sd = np.sqrt(fr.det_g)
    w2 = np.outer(xw, yw).ravel()
    area = math.fsum((w2 * sd).tolist())
    energy = math.fsum((w2 * sd * (0.25 * fr.norm_H_sq + 1.0)).tolist())
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
        "csl_willmore_direct": np.abs(fr.div_JW_minus_2JH),
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
    tolerance_scale: float = 1.0,
    reeb_sign: int = 1,
) -> ResidualReport:
    """Grid residual checks plus the pointwise identity suite, as one report."""
    maps = grid_residuals(spec, nx, ny, workers=workers)
    tol = {k: v * tolerance_scale for k, v in VERIFY_TOLERANCES.items()}
    checks = [
        make_check("legendrian_defect", maps["legendrian_defect"], tol["legendrian_defect"]),
        make_check("csl_residual", maps["csl_residual"], tol["csl_residual"]),
        make_check(
            "csl_willmore_residual", maps["csl_willmore_residual"], tol["csl_willmore_residual"]
        ),
        make_check(
            "csl_willmore_agreement",
            np.abs(maps["csl_willmore_residual"] - 2.0 * maps["csl_willmore_direct"]),
            tol["csl_willmore_agreement"],
        ),
        make_check("obstruction_trace", maps["obstruction_trace"], tol["obstruction_trace"]),
        # Consistency with the classification theorem: wherever the
        # Willmore-Legendrian residual is tiny, |H| must be tiny too.  Points
        # where it is not are skipped, so a member with none left is SKIP.
        make_check(
            "willmore_implies_minimal",
            maps["norm_H"],
            tol["willmore_implies_minimal"],
            used_mask=maps["willmore_legendrian_residual"] < 1e-6,
        ),
    ]
    xs, ys = sample_points(spec, n_sample, seed)
    suite = identity_suite(
        spec, (xs, ys), tolerance_scale=tolerance_scale, reeb_sign=reeb_sign
    )
    return ResidualReport(
        surface=spec.label,
        descriptor=f"{nx}x{ny} half-offset grid; {n_sample} seeded points (seed {seed})",
        checks=tuple(checks) + suite.checks,
    )
