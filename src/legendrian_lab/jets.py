"""Truncated bivariate Taylor arithmetic (jets) of degree at most 5.

A jet stores the coefficients c_jk = (d^{j+k} f / dx^j dy^k) / (j! k!) of a
smooth function at an (implicit) expansion point, for all j+k <= degree.
Arithmetic on jets is polynomial arithmetic truncated beyond the degree, so
every derivative that survives truncation is *exact* to roundoff — no
finite-difference error.  This is the mechanism that supplies all chart
derivatives of the immersions: lift the chart coordinates to jets, push them
through the closed-form immersion, and read the partials off the result.

Storage is a dense triangular array in graded-lexicographic order

    1, x, y, x^2, xy, y^2, x^3, x^2 y, ...

so index(j, k) = (j+k)(j+k+1)/2 + k and truncating to a lower degree is a
contiguous slice.  The coefficient array may carry extra trailing axes: a jet
of shape (ncoef, n) is n independent jets evaluated in one numpy pass, which
is how grids and stencils stay fast.

Expansion points are the caller's bookkeeping (they are not stored): combining
jets is only meaningful when the operands share the same expansion point.
Binary operations between jets of different degrees truncate to the lower
degree — a convenience for internal chains where, e.g., a degree-2 Christoffel
factor multiplies a degree-3 derivative.

``conjugate``/``real_part``/``imag_part`` act coefficientwise.  That is valid
here because both jet variables are *real* chart coordinates (conj commutes
with d/dx for real x); these helpers are what make real inner products of
complex jets exact.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegreeError, DivideByZeroJetError, DomainError, OrderError

MAX_DEGREE = 5

#: Divisor constant terms at or below this magnitude raise ERR_DIVIDE_BY_ZERO_JET.
DIVIDE_TOL = 1e-14


def _ncoef(degree: int) -> int:
    return (degree + 1) * (degree + 2) // 2


def _index(j: int, k: int) -> int:
    m = j + k
    return m * (m + 1) // 2 + k


def _exponents(degree: int) -> list[tuple[int, int]]:
    return [(m - k, k) for m in range(degree + 1) for k in range(m + 1)]


def _build_mul_table(degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index triples for truncated multiplication, grouped for add.reduceat.

    Returns (ia, ib, starts): prod = a[ia] * b[ib] summed within groups whose
    first elements sit at ``starts`` gives the product coefficients in order.
    """
    exps = _exponents(degree)
    triples = []
    for i1, (j1, k1) in enumerate(exps):
        for i2, (j2, k2) in enumerate(exps):
            if j1 + k1 + j2 + k2 <= degree:
                triples.append((_index(j1 + j2, k1 + k2), i1, i2))
    triples.sort()
    out = np.array([t[0] for t in triples])
    ia = np.array([t[1] for t in triples])
    ib = np.array([t[2] for t in triples])
    # Every output index occurs (the pair with the constant term always
    # contributes), so group starts are just the first occurrence of each.
    starts = np.searchsorted(out, np.arange(_ncoef(degree)))
    return ia, ib, starts


def _build_diff_table(degree: int, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Source indices and factors mapping coefficients to the derivative jet."""
    src = []
    fac = []
    for (j, k) in _exponents(degree - 1):
        if axis == 0:
            src.append(_index(j + 1, k))
            fac.append(j + 1)
        else:
            src.append(_index(j, k + 1))
            fac.append(k + 1)
    return np.array(src), np.array(fac, dtype=float)


_MUL_TABLES = {d: _build_mul_table(d) for d in range(MAX_DEGREE + 1)}
_DX_TABLES = {d: _build_diff_table(d, 0) for d in range(1, MAX_DEGREE + 1)}
_DY_TABLES = {d: _build_diff_table(d, 1) for d in range(1, MAX_DEGREE + 1)}


def _check_degree(degree: int) -> None:
    if not isinstance(degree, (int, np.integer)) or not 0 <= degree <= MAX_DEGREE:
        raise DegreeError(f"jet degree must be an integer in [0, {MAX_DEGREE}], got {degree!r}")


class Jet2:
    """Degree-``degree`` bivariate jet with coefficient array ``coeffs``.

    ``coeffs`` has shape ``(ncoef,) + batch_shape`` with the coefficient axis
    first; ``ncoef = (degree+1)(degree+2)/2``.
    """

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: np.ndarray):
        _check_degree(degree)
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape[0] != _ncoef(degree):
            raise DegreeError(
                f"coefficient array has leading size {coeffs.shape[0]}, "
                f"expected {_ncoef(degree)} for degree {degree}"
            )
        self.degree = degree
        self.coeffs = coeffs

    # -- basic accessors -------------------------------------------------

    @property
    def value(self) -> np.ndarray:
        """The constant coefficient c00, i.e. the function value."""
        return self.coeffs[0]

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.coeffs.shape[1:]

    def truncate(self, degree: int) -> "Jet2":
        _check_degree(degree)
        if degree > self.degree:
            raise DegreeError(f"cannot raise degree {self.degree} jet to degree {degree}")
        if degree == self.degree:
            return self
        return Jet2(degree, self.coeffs[: _ncoef(degree)])

    # -- ring operations -------------------------------------------------

    @staticmethod
    def _coerce(other, degree: int, batch_shape: tuple[int, ...]):
        if isinstance(other, Jet2):
            return other
        return constant(other, degree, batch_shape)

    def _binary_pair(self, other: "Jet2") -> tuple["Jet2", "Jet2"]:
        d = min(self.degree, other.degree)
        return self.truncate(d), other.truncate(d)

    def __add__(self, other):
        if not isinstance(other, Jet2):
            c = self.coeffs.copy()
            c[0] = c[0] + other
            return Jet2(self.degree, c)
        a, b = self._binary_pair(other)
        return Jet2(a.degree, a.coeffs + b.coeffs)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(self.degree, -self.coeffs)

    def __sub__(self, other):
        if not isinstance(other, Jet2):
            return self + (-other)
        a, b = self._binary_pair(other)
        return Jet2(a.degree, a.coeffs - b.coeffs)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet2):
            return Jet2(self.degree, self.coeffs * other)
        a, b = self._binary_pair(other)
        ia, ib, starts = _MUL_TABLES[a.degree]
        prod = a.coeffs[ia] * b.coeffs[ib]
        return Jet2(a.degree, np.add.reduceat(prod, starts, axis=0))

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet2":
        """Multiplicative inverse via the truncated Neumann series."""
        b0 = self.coeffs[0]
        magnitude = np.abs(b0)
        if np.any(magnitude <= DIVIDE_TOL):
            raise DivideByZeroJetError(
                f"divisor constant term has magnitude <= {DIVIDE_TOL:g}", magnitude
            )
        w = self * (1.0 / b0)
        w.coeffs[0] = w.coeffs[0] - 1.0  # w has zero constant term
        s = constant(np.ones_like(b0), self.degree, self.batch_shape)
        for _ in range(self.degree):
            s = 1.0 - w * s
        return s * (1.0 / b0)

    def __truediv__(self, other):
        if not isinstance(other, Jet2):
            return Jet2(self.degree, self.coeffs / other)
        a, b = self._binary_pair(other)
        return a * b.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    # -- calculus --------------------------------------------------------

    def dx(self) -> "Jet2":
        """Jet of the x-partial (degree drops by one)."""
        if self.degree == 0:
            raise OrderError("cannot differentiate a degree-0 jet")
        src, fac = _DX_TABLES[self.degree]
        fac = fac.reshape((-1,) + (1,) * len(self.batch_shape))
        return Jet2(self.degree - 1, self.coeffs[src] * fac)

    def dy(self) -> "Jet2":
        """Jet of the y-partial (degree drops by one)."""
        if self.degree == 0:
            raise OrderError("cannot differentiate a degree-0 jet")
        src, fac = _DY_TABLES[self.degree]
        fac = fac.reshape((-1,) + (1,) * len(self.batch_shape))
        return Jet2(self.degree - 1, self.coeffs[src] * fac)

    # -- real-chart helpers ----------------------------------------------

    def conjugate(self) -> "Jet2":
        """Coefficientwise conjugate (valid: the jet variables are real)."""
        return Jet2(self.degree, np.conj(self.coeffs))

    def real_part(self) -> "Jet2":
        """Jet of Re(f) (valid for real chart variables)."""
        return Jet2(self.degree, self.coeffs.real + 0j)

    def imag_part(self) -> "Jet2":
        """Jet of Im(f) (valid for real chart variables)."""
        return Jet2(self.degree, self.coeffs.imag + 0j)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Jet2(degree={self.degree}, batch={self.batch_shape}, value={self.value!r})"


# -- constructors ----------------------------------------------------------


def constant(value, degree: int, batch_shape: tuple[int, ...] = ()) -> Jet2:
    """Jet of a constant function (all derivative coefficients zero)."""
    _check_degree(degree)
    value = np.asarray(value, dtype=complex)
    shape = np.broadcast_shapes(value.shape, batch_shape)
    c = np.zeros((_ncoef(degree),) + shape, dtype=complex)
    c[0] = value
    return Jet2(degree, c)


def lift_point(x0, y0, degree: int) -> tuple[Jet2, Jet2]:
    """Coordinate jets (x, y) seeded at (x0, y0) with unit first-order terms.

    ``x0``/``y0`` may be scalars or same-shape arrays (a batch of expansion
    points handled in one pass).
    """
    _check_degree(degree)
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    shape = np.broadcast_shapes(x0.shape, y0.shape)
    cx = np.zeros((_ncoef(degree),) + shape, dtype=complex)
    cy = np.zeros((_ncoef(degree),) + shape, dtype=complex)
    cx[0] = x0
    cy[0] = y0
    if degree >= 1:
        cx[_index(1, 0)] = 1.0
        cy[_index(0, 1)] = 1.0
    return Jet2(degree, cx), Jet2(degree, cy)


# -- analytic functions -----------------------------------------------------


def _compose(a: Jet2, taylor_coeffs: list[np.ndarray]) -> Jet2:
    """Horner evaluation of sum_n taylor_coeffs[n] * (a - a0)^n."""
    w = Jet2(a.degree, a.coeffs.copy())
    w.coeffs[0] = np.zeros_like(w.coeffs[0])
    result = constant(taylor_coeffs[a.degree], a.degree, a.batch_shape)
    for n in range(a.degree - 1, -1, -1):
        result = result * w + taylor_coeffs[n]
    return result


def exp(a: Jet2) -> Jet2:
    a0 = a.coeffs[0]
    e = np.exp(a0)
    fact = 1.0
    coeffs = []
    for n in range(a.degree + 1):
        coeffs.append(e / fact)
        fact *= n + 1
    return _compose(a, coeffs)


def sin(a: Jet2) -> Jet2:
    a0 = a.coeffs[0]
    s, c = np.sin(a0), np.cos(a0)
    cycle = [s, c, -s, -c]
    fact = 1.0
    coeffs = []
    for n in range(a.degree + 1):
        coeffs.append(cycle[n % 4] / fact)
        fact *= n + 1
    return _compose(a, coeffs)


def cos(a: Jet2) -> Jet2:
    a0 = a.coeffs[0]
    s, c = np.sin(a0), np.cos(a0)
    cycle = [c, -s, -c, s]
    fact = 1.0
    coeffs = []
    for n in range(a.degree + 1):
        coeffs.append(cycle[n % 4] / fact)
        fact *= n + 1
    return _compose(a, coeffs)


def _check_branch_cut(a0: np.ndarray, what: str) -> None:
    bad = (a0.real <= 0.0) & (a0.imag == 0.0)
    if np.any(bad):
        raise DomainError(
            f"{what} of a jet whose constant term lies on the closed negative real axis"
        )


def sqrt(a: Jet2) -> Jet2:
    """Principal branch; ERR_DOMAIN on the closed negative real axis."""
    a0 = a.coeffs[0]
    _check_branch_cut(a0, "sqrt")
    r = np.sqrt(a0)
    # c_n = (1/2 choose n) * a0^(1/2 - n)
    coeffs = [r]
    binom = 1.0
    for n in range(1, a.degree + 1):
        binom *= (0.5 - (n - 1)) / n
        coeffs.append(binom * r / a0**n)
    return _compose(a, coeffs)


def log(a: Jet2) -> Jet2:
    """Principal branch; ERR_DOMAIN on the closed negative real axis."""
    a0 = a.coeffs[0]
    _check_branch_cut(a0, "log")
    coeffs = [np.log(a0)]
    for n in range(1, a.degree + 1):
        coeffs.append((-1.0) ** (n - 1) / (n * a0**n))
    return _compose(a, coeffs)


_ANALYTIC = {"exp": exp, "sin": sin, "cos": cos, "sqrt": sqrt, "log": log}


def analytic(name: str, a: Jet2) -> Jet2:
    """Apply one of {exp, sin, cos, sqrt, log} to a jet by name."""
    try:
        f = _ANALYTIC[name]
    except KeyError:
        raise DomainError(f"unknown analytic function {name!r}") from None
    return f(a)


# -- extraction --------------------------------------------------------------


def extract_partial(a: Jet2, j: int, k: int):
    """The partial derivative d^{j+k} f / dx^j dy^k = j! k! c_jk.

    Raises ERR_ORDER when j + k exceeds the jet degree (that coefficient was
    truncated away) or when j or k is negative.
    """
    if j < 0 or k < 0 or j + k > a.degree:
        raise OrderError(
            f"partial of order ({j},{k}) unavailable from a degree-{a.degree} jet"
        )
    return a.coeffs[_index(j, k)] * float(math.factorial(j) * math.factorial(k))
