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
accepts stacked arrays of shape ``(3, ...)`` and maps over the trailing axes.
"""

from __future__ import annotations

import numpy as np


def hermitian_inner(u: np.ndarray, v: np.ndarray) -> complex | np.ndarray:
    """Hermitian product sum_k u_k * conj(v_k) (linear in the first slot)."""
    u = np.asarray(u)
    v = np.asarray(v)
    return np.sum(u * np.conj(v), axis=0)


def real_inner(u: np.ndarray, v: np.ndarray) -> float | np.ndarray:
    """Real part of the hermitian product: the flat metric on R^6."""
    return np.real(hermitian_inner(u, v))


def apply_J(v: np.ndarray) -> np.ndarray:
    """Multiplication by the imaginary unit, componentwise."""
    return 1j * np.asarray(v)


def reeb(p: np.ndarray, sign: int = 1) -> np.ndarray:
    """Reeb field R(p) = -i p (``sign=-1`` selects the opposite convention).

    Both sign conventions appear in the literature; the default matches the
    moving frame used by the catalog surfaces (see the ``reeb_sign`` run
    option).
    """
    return (-1j * sign) * np.asarray(p)


def contact_projection(p: np.ndarray, v: np.ndarray, sign: int = 1) -> np.ndarray:
    """Component of a tangent vector in the contact hyperplane.

    Assumes v is tangent at p; returns v - alpha(v) * R(p).
    """
    r = reeb(p, sign)
    return v - real_inner(v, r) * r


def contact_extended_J(p: np.ndarray, v: np.ndarray, sign: int = 1) -> np.ndarray:
    """Sasakian endomorphism: J on the contact plane, zero on the Reeb line.

    For tangent v this is J(v - alpha(v) R); unlike plain multiplication by i
    it maps tangent vectors to tangent vectors (J R is radial).
    """
    return apply_J(contact_projection(p, v, sign))

