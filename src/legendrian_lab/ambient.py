"""Contact and Sasakian algebra of the unit 5-sphere inside complex 3-space.

Complex 3-space is treated as real 6-space with the flat metric
``real_inner(u, v) = Re <u, v>`` where ``<u, v> = sum_k u_k * conj(v_k)``
(linear in the *first* slot).  Multiplication by the imaginary unit is the
standard complex structure ``J``; it is an isometry with ``J^2 = -id``.

On the unit sphere the Reeb vector field is ``R(p) = -i p`` and the contact
form is ``alpha(v) = real_inner(v, R(p))``, so ``alpha(R) = 1``.  A tangent
vector at ``p`` splits uniquely as

    v = (contact-plane part) + alpha(v) R(p),

and the contact-plane part is invariant under ``J``.  The sphere's
Levi-Civita derivative of a field ``V`` along a curve is the ambient
derivative minus its radial projection (Gauss formula); with it the round
sphere is Sasakian:

    D_X R = -J X,        (D_X J)(Y) = real_inner(X, Y) R - alpha(Y) X,

where the second identity uses the contact-extended endomorphism
``J_c(v) = J(v - alpha(v) R)`` (plain ``J`` maps ``R`` to the radial
direction, so it does not restrict to the sphere).

Vectors are numpy arrays of shape ``(3,)`` (complex); every function also
accepts stacked arrays of shape ``(3, ...)`` and maps over the trailing axes,
and jet-vectors (tuples of three ``Jet2``), for which pairings return a jet:
so jets differentiate this very algebra, as the Sasakian checks do.
"""

from __future__ import annotations

import numpy as np

from .jets import Jet2


def _componentwise(f, *vectors):
    """``f`` on the stacked arrays, or per component of jet-vectors."""
    if isinstance(vectors[0][0], Jet2):
        return tuple(f(*parts) for parts in zip(*vectors))
    return f(*(np.asarray(v) for v in vectors))


def hermitian_inner(u, v) -> complex | np.ndarray | Jet2:
    """Hermitian product sum_k u_k * conj(v_k) (linear in the first slot)."""
    if isinstance(u[0], Jet2):
        (u0, u1, u2), (v0, v1, v2) = u, v
        return u0 * v0.conjugate() + u1 * v1.conjugate() + u2 * v2.conjugate()
    return np.sum(np.asarray(u) * np.conj(v), axis=0)


def real_inner(u, v) -> float | np.ndarray | Jet2:
    """Real part of the hermitian product: the flat metric on R^6."""
    h = hermitian_inner(u, v)
    return h.real_part() if isinstance(h, Jet2) else np.real(h)


def apply_J(v) -> np.ndarray | tuple[Jet2, ...]:
    """Multiplication by the imaginary unit, componentwise."""
    return _componentwise(lambda c: 1j * c, v)


def reeb(p) -> np.ndarray | tuple[Jet2, ...]:
    """Reeb field R(p) = -i p, the convention of the catalog's moving frames."""
    return _componentwise(lambda c: -1j * c, p)


def contact_projection(p, v) -> np.ndarray | tuple[Jet2, ...]:
    """Component of a tangent vector in the contact hyperplane.

    Assumes v is tangent at p; returns v - alpha(v) * R(p).
    """
    r = reeb(p)
    alpha = real_inner(v, r)
    return _componentwise(lambda vk, rk: vk - alpha * rk, v, r)


def contact_extended_J(p, v) -> np.ndarray | tuple[Jet2, ...]:
    """Sasakian endomorphism: J on the contact plane, zero on the Reeb line.

    For tangent v this is J(v - alpha(v) R); unlike plain multiplication by i
    it maps tangent vectors to tangent vectors (J R is radial).
    """
    return apply_J(contact_projection(p, v))
