"""Pointwise extrinsic and intrinsic calculus on an immersed Legendrian surface.

Everything here is derived from jets of the immersion F at a chart point:

* metric        g_ij = real_inner(F_i, F_j), inverse, determinant
* Christoffels  from the metric's exact first derivatives
* second form   B_ij = F_ij - Gamma^k_ij F_k + g_ij F   (the +g_ij F term
                removes the 5-sphere's own curvature, so B measures the
                surface inside the sphere, not inside flat 6-space)
* mean curvature H = g^{ij} B_ij (full trace), its normal-frame components
  mu_a, the cubic form sigma_ijk = real_inner(B_ij, J e_k), shape operators,
  and the Gauss curvature both intrinsically (Brioschi) and extrinsically
  (Gauss equation).

One chain and the one pointwise API: ``ChartFrame`` keeps every quantity a
*jet* over a whole batch of points, so higher operators (divergence of JH
and its Laplacian, the Willmore operator, vector and normal-bundle
Laplacians, the Willmore-Legendrian and csL-Willmore residuals) come out
with no finite-difference error, and the value-level arrays are read off the
constant coefficients.  ``point_report`` is a one-point view of it,
``brioschi`` the single Brioschi formula (fed jet or finite-difference metric
derivatives) and ``legendrian_defect`` the single per-point Legendrian defect.

Index conventions: chart indices i, j, k run over (x, y) = (0, 1);
``gamma[k, i, j]`` is Gamma^k_{ij}; arrays carrying several points append the
batch axes last (e.g. a batched metric has shape (2, 2, n)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import ambient, jets
from .errors import DegenerateMetricError
from .jets import Jet2
from .surfaces import ImmersionSpec, evaluate_jet_batch, wrap_point

#: Metric determinants at or below this are treated as degenerate.
DET_TOL = 1e-12


# -- jet-vector helpers ------------------------------------------------------
# An ambient vector field along the surface is a tuple of three Jet2, a
# jet-vector; ``ambient``'s pairings and J accept it as they are.


def jv_dx(F):
    return tuple(f.dx() for f in F)


def jv_dy(F):
    return tuple(f.dy() for f in F)


def values(F) -> np.ndarray:
    """Stack the values of a jet-vector into shape (3, *batch)."""
    return np.stack([np.asarray(f.value) for f in F])


def _real(f) -> np.ndarray:
    """Real values of a jet or of nested lists of them: ``_real(f)[i, ...] = Re f[i][...]``."""
    if isinstance(f, Jet2):
        return np.real(f.value)
    return np.array([_real(g) for g in f])


def _partials(f) -> np.ndarray:
    """Real chart partials of a real jet or of nested lists of them.

    The derivative axis comes first: ``_partials(f)[l, i, ...] = d_l f[i][...]``.
    """
    if isinstance(f, Jet2):
        return np.array(
            [np.real(jets.extract_partial(f, 1, 0)), np.real(jets.extract_partial(f, 0, 1))]
        )
    return np.stack([_partials(g) for g in f], axis=1)


def legendrian_defect(F) -> np.ndarray:
    """Per-point max_i |<F_i, F>| plus the unit-norm defect ||F|^2 - 1|.

    Zero (to roundoff) exactly when the point lies on the unit sphere and
    both chart directions are Legendrian; the hermitian product catches the
    contact-form component through its imaginary part.  Needs jets of
    degree >= 1.
    """
    p = values(F)
    tangency = [np.abs(ambient.hermitian_inner(values(Fi), p)) for Fi in (jv_dx(F), jv_dy(F))]
    return np.maximum(*tangency) + np.abs(ambient.real_inner(p, p) - 1.0)


def _symmetric(entry):
    """The 2x2 nested list of ``entry(i, j)``, built once per unordered pair:
    the yx entry is the xy object."""
    xy = entry(0, 1)
    return [[entry(0, 0), xy], [xy, entry(1, 1)]]


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def brioschi(g, dg, E_yy, F_xy, G_xx) -> np.ndarray:
    """Gauss curvature of the metric alone, by the Brioschi formula.

    ``g[i, j]`` are metric values and ``dg[l, i, j] = d_l g_ij`` its first
    derivatives; E_yy, F_xy, G_xx are the three second derivatives the
    formula needs (E = g_xx, F = g_xy, G = g_yy).  The formula never sees the
    embedding, so comparing it with the Gauss equation exercises the latter.
    """
    E, Fm, G = g[0, 0], g[0, 1], g[1, 1]
    (E_x, F_x, G_x), (E_y, F_y, G_y) = ((d[0, 0], d[0, 1], d[1, 1]) for d in dg)
    zero = np.zeros_like(E)
    m1 = [
        [-0.5 * E_yy + F_xy - 0.5 * G_xx, 0.5 * E_x, F_x - 0.5 * E_y],
        [F_y - 0.5 * G_x, E, Fm],
        [0.5 * G_y, Fm, G],
    ]
    m2 = [
        [zero, 0.5 * E_y, 0.5 * G_x],
        [0.5 * E_y, E, Fm],
        [0.5 * G_x, Fm, G],
    ]
    det = E * G - Fm * Fm
    return (_det3(m1) - _det3(m2)) / det**2


# -- PointFrame --------------------------------------------------------------


@dataclass(frozen=True)
class PointFrame:
    """Everything the toolkit knows about the surface at one chart point."""

    x: float
    y: float
    F: np.ndarray
    F_x: np.ndarray
    F_y: np.ndarray
    F_xx: np.ndarray
    F_xy: np.ndarray
    F_yy: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray
    det_g: float
    gamma: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    nu1: np.ndarray
    nu2: np.ndarray
    R: np.ndarray
    B: np.ndarray
    sigma: np.ndarray
    H: np.ndarray
    mu: np.ndarray
    A_nu1: np.ndarray
    A_nu2: np.ndarray
    A_R: np.ndarray
    kappa: float
    kappa_intrinsic: float
    norm_H_sq: float
    norm_B_sq: float
    defect_unit_norm: float
    defect_tangency: float
    defect_legendrian: float


def point_report(spec: ImmersionSpec, x: float, y: float) -> PointFrame:
    """The full pointwise bundle at one chart point: a one-point ``ChartFrame`` view.

    ``e1, e2`` is the Gram-Schmidt frame (F_x first), ``nu_a = J e_a`` and
    ``R`` the Reeb field; ``A_nu1``, ``A_nu2``, ``A_R`` are the chart quadratic
    forms <B_ij, normal>; ``kappa`` comes from the Gauss equation and
    ``kappa_intrinsic`` from the Brioschi formula.  Periodic coordinates are
    wrapped into the chart first; a non-periodic one outside it raises
    ERR_DOMAIN.
    """
    x_c, y_c = wrap_point(spec, x, y)
    fr = ChartFrame(spec, [x_c], [y_c], degree=4)
    nu1, nu2, R = ambient.apply_J(fr.e1), ambient.apply_J(fr.e2), ambient.reeb(fr.F_v)

    def at(v):
        return v[..., 0]

    p, F_x, F_y = at(fr.F_v), at(fr.Fx_v), at(fr.Fy_v)
    return PointFrame(
        x=float(x),
        y=float(y),
        F=p,
        F_x=F_x,
        F_y=F_y,
        F_xx=at(values(jv_dx(fr.Fx))),
        F_xy=at(values(jv_dy(fr.Fx))),
        F_yy=at(values(jv_dy(fr.Fy))),
        g=at(fr.g),
        g_inv=at(fr.g_inv),
        det_g=float(at(fr.det_g)),
        gamma=at(fr.gamma),
        e1=at(fr.e1),
        e2=at(fr.e2),
        nu1=at(nu1),
        nu2=at(nu2),
        R=at(R),
        B=at(fr.B),
        sigma=at(fr.sigma_frame),
        H=at(fr.H),
        mu=at(fr.mu),
        A_nu1=at(fr.form(nu1)),
        A_nu2=at(fr.form(nu2)),
        A_R=at(fr.form(R)),
        kappa=float(at(fr.kappa)),
        kappa_intrinsic=float(at(fr.kappa_brioschi)),
        norm_H_sq=float(at(fr.norm_H_sq)),
        norm_B_sq=float(at(fr.norm_B_sq)),
        defect_unit_norm=abs(float(ambient.real_inner(p, p)) - 1.0),
        defect_tangency=max(abs(float(ambient.real_inner(Fi, p))) for Fi in (F_x, F_y)),
        defect_legendrian=float(at(legendrian_defect(fr.F))),
    )


# -- batched jet chain -------------------------------------------------------


class ChartFrame:
    """Jet-exact geometric chain over a batch of chart points.

    Construct with the jet degree the wanted quantities need: 5 gives
    everything, including the fourth-order terms (``laplace_div_JH``,
    ``div_JB_JH_JH``, ``csl_willmore_residual``); 4 gives everything of third
    order (the Willmore operator, ``laplace_JH``, ``normal_laplacian_H``, the
    cubic-form partials); 2 is enough for the metric, B, H, JH, cubic form.
    Properties are cached; all arrays put chart indices first and batch axes
    last.  Points are evaluated on the universal cover of the chart: no
    periodic wrap and no domain check (see ``evaluate_jet_batch``).

    Each jet product is made once, at the degree its readers need.  det g
    and sqrt(det g) are inverted once each and multiplied by.  g_ij, g^ij,
    Gamma^k_ij, B_ij and sigma_ijk build their xy entry once, and the yx entry
    is the same object; ``H_j`` and ``B_JH_JH_j`` add it twice.
    """

    def __init__(self, spec: ImmersionSpec, xs, ys, degree: int = 4):
        self.spec = spec
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        self.degree = degree
        self.F = evaluate_jet_batch(spec, self.xs, self.ys, degree)

    # --- first derivatives and metric ---

    @cached_property
    def Fx(self):
        return jv_dx(self.F)

    @cached_property
    def Fy(self):
        return jv_dy(self.F)

    @cached_property
    def gj(self):
        """Metric jets gj[i][j], degree-1 lower than F."""
        Fi = (self.Fx, self.Fy)
        return _symmetric(lambda i, j: ambient.real_inner(Fi[i], Fi[j]))

    @cached_property
    def det_j(self) -> Jet2:
        """det g to degree ``degree - 2``, the furthest g^ij and sqrt(det g) are read."""
        low = max(self.degree - 2, 0)
        (g00, g01), (_, g11) = ([g.truncate(low) for g in row] for row in self.gj)
        det = g00 * g11 - g01 * g01
        d = np.ravel(_real(det))
        if np.any(d <= DET_TOL):
            worst = int(np.argmin(d))
            x, y = (float(np.ravel(t)[worst]) for t in (self.xs, self.ys))
            raise DegenerateMetricError(
                f"metric determinant {d[worst]:.3e} <= {DET_TOL:g} "
                f"at chart point (x, y) = ({x:.17g}, {y:.17g})"
            )
        return det

    @cached_property
    def ginv_j(self):
        gj, inv = self.gj, self.det_j.reciprocal()
        xy = -(gj[0][1] * inv)
        return [[gj[1][1] * inv, xy], [xy, gj[0][0] * inv]]

    @cached_property
    def sqrt_det_j(self) -> Jet2:
        return jets.sqrt(self.det_j)

    @cached_property
    def inv_sqrt_det_j(self) -> Jet2:
        """1 / sqrt(det g) to degree ``degree - 3``: it multiplies derivatives only."""
        return self.sqrt_det_j.truncate(max(self.degree - 3, 0)).reciprocal()

    @cached_property
    def g(self) -> np.ndarray:
        return _real(self.gj)

    @cached_property
    def g_inv(self) -> np.ndarray:
        return _real(self.ginv_j)

    @cached_property
    def det_g(self) -> np.ndarray:
        return _real(self.det_j)

    @cached_property
    def dg(self) -> np.ndarray:
        """Metric first derivatives dg[l, i, j] = d_l g_ij, exact from the jets."""
        return _partials(self.gj)

    # --- Christoffels and second derivatives ---

    @cached_property
    def gamma_j(self):
        """Christoffel jets gamma_j[k][i][j] (degree-2 lower than F)."""
        gj, ginv = self.gj, self.ginv_j
        dg = [[[d(gj[i][j]) for j in range(2)] for i in range(2)] for d in (Jet2.dx, Jet2.dy)]

        def entry(k, i, j):
            t0, t1 = (ginv[k][l] * (dg[i][j][l] + dg[j][i][l] - dg[l][i][j]) for l in range(2))
            return (t0 + t1) * 0.5

        return [_symmetric(lambda i, j: entry(k, i, j)) for k in range(2)]

    @cached_property
    def gamma(self) -> np.ndarray:
        return _real(self.gamma_j)

    @cached_property
    def B_j(self):
        """Second-fundamental-form jets B_j[i][j] (jet-vectors)."""
        Fx, Fy = self.Fx, self.Fy
        F2 = ((jv_dx(Fx), jv_dy(Fx)), (jv_dx(Fy), jv_dy(Fy)))
        F = tuple(f.truncate(self.degree - 2) for f in self.F)  # g_ij F at B's degree
        gm, gj = self.gamma_j, self.gj
        return _symmetric(lambda i, j: tuple(
            F2[i][j][m] - gm[0][i][j] * Fx[m] - gm[1][i][j] * Fy[m] + gj[i][j] * F[m]
            for m in range(3)
        ))

    @cached_property
    def B(self) -> np.ndarray:
        return np.array([[values(b) for b in row] for row in self.B_j])

    @cached_property
    def H_j(self):
        """Mean-curvature jet-vector H = g^{ij} B_ij."""
        ginv, B = self.ginv_j, self.B_j
        xx, xy, yy = (tuple(ginv[i][j] * b for b in B[i][j]) for i, j in ((0, 0), (0, 1), (1, 1)))
        return tuple(a + b + b + c for a, b, c in zip(xx, xy, yy))

    @cached_property
    def H(self) -> np.ndarray:
        return values(self.H_j)

    @cached_property
    def JH_j(self):
        return ambient.apply_J(self.H_j)

    @cached_property
    def norm_H_sq_j(self) -> Jet2:
        return ambient.real_inner(self.H_j, self.H_j)

    @cached_property
    def norm_H_sq(self) -> np.ndarray:
        return _real(self.norm_H_sq_j)

    @cached_property
    def norm_B_sq(self) -> np.ndarray:
        g_inv, B = self.g_inv, self.B
        acc = 0.0
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        acc = acc + g_inv[i, k] * g_inv[j, l] * (
                            ambient.real_inner(B[i, j], B[k, l])
                        )
        return acc

    @cached_property
    def kappa(self) -> np.ndarray:
        """Gauss-equation curvature 1 + (<B_xx,B_yy> - |B_xy|^2)/det."""
        B = self.B
        return 1.0 + (
            ambient.real_inner(B[0, 0], B[1, 1])
            - ambient.real_inner(B[0, 1], B[0, 1])
        ) / self.det_g

    @cached_property
    def kappa_brioschi(self) -> np.ndarray:
        """Intrinsic curvature: Brioschi on the metric's exact jets (degree >= 3)."""
        gj = self.gj
        return brioschi(
            self.g,
            self.dg,
            np.real(jets.extract_partial(gj[0][0], 0, 2)),
            np.real(jets.extract_partial(gj[0][1], 1, 1)),
            np.real(jets.extract_partial(gj[1][1], 2, 0)),
        )

    # --- the JH field and its first-order invariants ---

    @cached_property
    def omega_j(self):
        """Jets of the one-form omega_i = real_inner(JH, F_i)."""
        Fi = (self.Fx, self.Fy)
        return [ambient.real_inner(self.JH_j, Fi[i]) for i in range(2)]

    @cached_property
    def d_omega(self) -> np.ndarray:
        """d_l omega_i, indexed [l, i]: the exterior derivative of omega is read off it."""
        return _partials(self.omega_j)

    @cached_property
    def a_j(self):
        """Jets of the chart components a^i of JH: a^i = g^{ij} omega_j."""
        return self._raise_j(self.omega_j)

    @cached_property
    def a(self) -> np.ndarray:
        return _real(self.a_j)

    @cached_property
    def div_JH_j(self) -> Jet2:
        """Jet of Div(JH) = (1/sqrt g) d_i (sqrt g a^i), two degrees below F."""
        return self._divergence_j(self.a_j)

    @cached_property
    def div_JH(self) -> np.ndarray:
        return _real(self.div_JH_j)

    @cached_property
    def grad_div_JH_j(self):
        """Jets of (grad Div JH)^i = g^{ij} d_j Div(JH)."""
        d = self.div_JH_j
        return self._raise_j([d.dx(), d.dy()])

    @cached_property
    def grad_div_JH(self) -> np.ndarray:
        return _real(self.grad_div_JH_j)

    @cached_property
    def laplace_div_JH(self) -> np.ndarray:
        """Delta Div(JH), the fourth-order term of the csL-Willmore equation (degree 5)."""
        return _real(self._divergence_j(self.grad_div_JH_j))

    @cached_property
    def nabla_a_j(self):
        """Jets of the covariant derivative T_i^k = (nabla_i JH)^k."""
        a, gm = self.a_j, self.gamma_j
        da = [[a[k].dx(), a[k].dy()] for k in range(2)]  # da[k][i] = d_i a^k
        a = [c.truncate(1) for c in a]  # T is read to first order
        return [
            [da[k][i] + gm[k][i][0] * a[0] + gm[k][i][1] * a[1] for k in range(2)]
            for i in range(2)
        ]  # indexed [i][k]

    @cached_property
    def nabla_a(self) -> np.ndarray:
        """Values T[i, k] = (nabla_i JH)^k."""
        return _real(self.nabla_a_j)

    @cached_property
    def norm_nabla_JH_sq(self) -> np.ndarray:
        """|nabla JH|^2 = g^{ik} g_{jl} T_i^j T_k^l."""
        T = self.nabla_a
        return np.einsum(
            "ik...,jl...,ij...,kl...->...", self.g_inv, self.g, T, T
        )

    @cached_property
    def laplace_JH(self) -> np.ndarray:
        """Rough Laplacian values (Delta JH)^k = g^{ij} (nabla_i nabla_j JH)^k."""
        gamma, Tv = self.gamma, self.nabla_a
        dT = _partials(self.nabla_a_j)  # dT[i, j, k] = d_i T_j^k
        # (nabla_i T)_j^k = d_i T_j^k + Gamma^k_{il} T_j^l - Gamma^l_{ij} T_l^k
        nabla_T = (
            dT
            + np.einsum("kil...,jl...->ijk...", gamma, Tv)
            - np.einsum("lij...,lk...->ijk...", gamma, Tv)
        )
        return np.einsum("ij...,ijk...->k...", self.g_inv, nabla_T)

    @cached_property
    def laplace_norm_H_sq(self) -> np.ndarray:
        """Scalar Laplace-Beltrami of |H|^2, exact from the |H|^2 jet."""
        f = self.norm_H_sq_j
        return _real(self._divergence_j(self._raise_j([f.dx(), f.dy()])))

    @cached_property
    def laplace_log_H(self) -> np.ndarray:
        """Delta log|H| = (Delta|H|^2 / |H|^2 - |grad |H|^2|^2 / |H|^4) / 2, where H != 0."""
        f, grad = self.norm_H_sq, self.grad_norm_H_sq
        grad_sq = np.einsum("ij...,i...,j...->...", self.g, grad, grad)
        return 0.5 * (self.laplace_norm_H_sq / f - grad_sq / f**2)

    @cached_property
    def sigma_chart_j(self):
        """Jets of sigma_ijk = real_inner(B_ij, J F_k) in chart indices, to first order."""
        JF = [ambient.apply_J(tuple(f.truncate(1) for f in F)) for F in (self.Fx, self.Fy)]
        B = self.B_j
        return _symmetric(lambda i, j: [ambient.real_inner(B[i][j], JF[k]) for k in range(2)])

    @cached_property
    def sigma_chart(self) -> np.ndarray:
        return _real(self.sigma_chart_j)

    @cached_property
    def d_sigma_chart(self) -> np.ndarray:
        """Chart partials d_l sigma_ijk, indexed [l, i, j, k]."""
        return _partials(self.sigma_chart_j)

    @cached_property
    def B_JH_JH_j(self):
        """Jet-vector B(JH, JH) = a^i a^j B_ij to degree ``degree - 4``, as far as it is read."""
        a = [c.truncate(self.degree - 4) for c in self.a_j]
        B = self.B_j
        xx, xy, yy = a[0] * a[0], a[0] * a[1], a[1] * a[1]
        off = [xy * b for b in B[0][1]]
        return tuple(xx * B[0][0][m] + off[m] + off[m] + yy * B[1][1][m] for m in range(3))

    @cached_property
    def div_JB_JH_JH(self) -> np.ndarray:
        """Div(J B(JH, JH)) of the tangential part."""
        return self._div_field(ambient.apply_J(self.B_JH_JH_j))

    @cached_property
    def willmore(self) -> np.ndarray:
        """Values of the Willmore-Legendrian operator W, half the bracket

        -J grad Div(JH) + B(JH,JH) - |H|^2 H / 2 - 2 Div(JH) R,  R = -iF,

        so that <W, R> = -Div(JH).  A normal variation N moves the Willmore
        energy by the integral of <W, N>.
        """
        gd = self.grad_div_JH
        return (
            (gd[0] * self.Fx_v + gd[1] * self.Fy_v) * -1j
            + values(self.B_JH_JH_j)
            - self.norm_H_sq * self.H * 0.5
            + self.div_JH * self.F_v * 2j
        ) * 0.5

    @cached_property
    def normal_laplacian_H(self) -> np.ndarray:
        """Delta^nu H = g^{ij} (nabla^nu_i nabla^nu_j H - Gamma^k_ij nabla^nu_k H).

        nabla^nu is the normal part of the chart derivative: it drops the
        tangential and the radial (sphere) components.
        """
        H = tuple(h.truncate(2) for h in self.H_j)  # dH is read to first order
        dH = [self._normal_j(jv_dx(H)), self._normal_j(jv_dy(H))]
        dH_v = [values(v) for v in dH]
        out = 0.0
        for i, d_i in enumerate((jv_dx, jv_dy)):
            for j in range(2):
                second = self._normal_v(values(d_i(dH[j])))
                for k in range(2):
                    second = second - self.gamma[k, i, j] * dH_v[k]
                out = out + self.g_inv[i, j] * second
        return out

    @cached_property
    def obstruction_density(self) -> np.ndarray:
        """trace <B(., nabla . JH), H> = g^{ij} T_j^k <B_ik, H> (values)."""
        return np.einsum("ij...,jk...,ik...->...", self.g_inv, self.nabla_a, self.form(self.H))

    @cached_property
    def willmore_legendrian_residual(self) -> np.ndarray:
        """Euclidean norm of the Willmore-Legendrian bracket 2 W (degree 4)."""
        return 2.0 * np.sqrt(np.sum(np.abs(self.willmore) ** 2, axis=0))

    @cached_property
    def csl_willmore_residual(self) -> np.ndarray:
        """The csL-Willmore residual (degree 5), with D = Div(JH):

        |Delta D + 2 trace<B(., nabla . JH), H> - |H|^2 D / 2 + 4 D|.

        Under a Legendrian variation theta R - J grad(theta) / 2 the Willmore
        energy changes by -1/4 of the integral of theta times the bracket.
        """
        return np.abs(
            self.laplace_div_JH
            + 2.0 * self.obstruction_density
            - 0.5 * self.norm_H_sq * self.div_JH
            + 4.0 * self.div_JH
        )

    @cached_property
    def grad_norm_H_sq(self) -> np.ndarray:
        """(grad |H|^2)^i values, exact from the |H|^2 jet."""
        return np.einsum("ij...,j...->i...", self.g_inv, _partials(self.norm_H_sq_j))

    def form(self, N) -> np.ndarray:
        """The chart quadratic form <B_ij, N> of an ambient vector field N, indexed [i, j]."""
        B = self.B
        return np.array([[ambient.real_inner(B[i, j], N) for j in range(2)] for i in range(2)])

    # --- jet calculus on the surface ---

    def _raise_j(self, w):
        """Jets of the chart vector g^{ij} w_j of a one-form w."""
        ginv = self.ginv_j
        return [ginv[i][0] * w[0] + ginv[i][1] * w[1] for i in range(2)]

    def _tangent_j(self, V):
        """Chart components g^{ij} real_inner(V, F_j) of an ambient jet-vector V."""
        return self._raise_j([ambient.real_inner(V, Fj) for Fj in (self.Fx, self.Fy)])

    def _normal_j(self, V):
        """V minus its tangential and radial parts (jet-vector)."""
        c, r = self._tangent_j(V), ambient.real_inner(V, self.F)
        return tuple(
            V[m] - c[0] * self.Fx[m] - c[1] * self.Fy[m] - r * self.F[m] for m in range(3)
        )

    def _normal_v(self, V) -> np.ndarray:
        """Values of ``_normal_j`` for a stacked ambient vector V of values."""
        g_inv, Fx, Fy = self.g_inv, self.Fx_v, self.Fy_v
        w = [ambient.real_inner(V, Fj) for Fj in (Fx, Fy)]
        c = [g_inv[i, 0] * w[0] + g_inv[i, 1] * w[1] for i in range(2)]
        return V - c[0] * Fx - c[1] * Fy - ambient.real_inner(V, self.F_v) * self.F_v

    def _divergence_j(self, c) -> Jet2:
        """Jet of (1/sqrt g) d_i (sqrt g c^i) for chart components c^i (one degree lower)."""
        s = self.sqrt_det_j
        return ((s * c[0]).dx() + (s * c[1]).dy()) * self.inv_sqrt_det_j

    def _div_field(self, V) -> np.ndarray:
        """Divergence values of the tangential part of an ambient jet-vector V."""
        return _real(self._divergence_j(self._tangent_j(V)))

    # --- frame values ---

    @cached_property
    def F_v(self) -> np.ndarray:
        return values(self.F)

    @cached_property
    def Fx_v(self) -> np.ndarray:
        return values(self.Fx)

    @cached_property
    def Fy_v(self) -> np.ndarray:
        return values(self.Fy)

    @cached_property
    def frame_change(self) -> np.ndarray:
        """E[a, i] with e_a = E[a, i] F_i (Gram-Schmidt, F_x first)."""
        g, det = self.g, self.det_g
        E = np.zeros((2, 2) + np.shape(det))
        E[0, 0] = 1.0 / np.sqrt(g[0, 0])
        L = np.sqrt(det / g[0, 0])
        E[1, 0] = -g[0, 1] / (g[0, 0] * L)
        E[1, 1] = 1.0 / L
        return E

    @cached_property
    def e1(self) -> np.ndarray:
        E = self.frame_change
        return E[0, 0] * self.Fx_v + E[0, 1] * self.Fy_v

    @cached_property
    def e2(self) -> np.ndarray:
        E = self.frame_change
        return E[1, 0] * self.Fx_v + E[1, 1] * self.Fy_v

    @cached_property
    def sigma_frame(self) -> np.ndarray:
        """Orthonormal-frame cubic form sigma_abc = <B(e_a, e_b), J e_c>."""
        E = self.frame_change
        return np.einsum(
            "ai...,bj...,ck...,ijk...->abc...", E, E, E, self.sigma_chart
        )

    @cached_property
    def mu(self) -> np.ndarray:
        """Mean-curvature components mu_a = <H, J e_a> in the orthonormal normal frame."""
        H = self.H
        return np.array([ambient.real_inner(H, ambient.apply_J(e)) for e in (self.e1, self.e2)])
