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
and jet-vectors (one ``Jet2`` whose batch starts with the three components),
for which pairings return a jet: so jets differentiate this very algebra, as
the Sasakian checks do.  Each formula is written once, for arrays and jets
alike.
"""

from __future__ import annotations

import numpy as np

from .jets import Jet2


def hermitian_inner(u, v) -> complex | np.ndarray | Jet2:
    """Hermitian product sum_k u_k * conj(v_k) (linear in the first slot).

    On arrays the explicit ufunc call gets no in-place temporary, so a
    point's value does not depend on the batch it sits in.  Two jets are
    truncated to their common degree before the conjugate is taken, as the
    product would truncate them anyway.
    """
    if isinstance(u, Jet2):
        if isinstance(v, Jet2):
            degree = min(u.degree, v.degree)
            u, v = u.truncate(degree), v.truncate(degree)
        return (u * v.conjugate()).component_sum()
    return np.sum(np.multiply(u, np.conj(v)), axis=0)


def real_inner(u, v) -> float | np.ndarray | Jet2:
    """Real part of the hermitian product: the flat metric on R^6."""
    h = hermitian_inner(u, v)
    return h.real_part() if isinstance(h, Jet2) else np.real(h)


def apply_J(v) -> np.ndarray | Jet2:
    """Multiplication by the imaginary unit."""
    return 1j * v


def reeb(p) -> np.ndarray | Jet2:
    """Reeb field R(p) = -i p, the convention of the catalog's moving frames."""
    return -1j * p


def contact_projection(p, v) -> np.ndarray | Jet2:
    """Component of a tangent vector in the contact hyperplane.

    Assumes v is tangent at p; returns v - alpha(v) * R(p).
    """
    r = reeb(p)
    return v - real_inner(v, r) * r


def contact_extended_J(p, v) -> np.ndarray | Jet2:
    """Sasakian endomorphism: J on the contact plane, zero on the Reeb line.

    For tangent v this is J(v - alpha(v) R); unlike plain multiplication by i
    it maps tangent vectors to tangent vectors (J R is radial).
    """
    return apply_J(contact_projection(p, v))
