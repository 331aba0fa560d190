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

Real jets stay real.  The coefficients are float64 when the input is real
and complex128 when it is complex: ``Jet2``, ``constant`` and ``lift_point``
follow the dtype of what they are given, ``real_part``/``imag_part`` return
float jets, ``conjugate`` of a real jet is the jet itself, and an operation
with a complex operand promotes the result to complex rather than casting
the imaginary part away.  The metric, Christoffel and curvature chains are
real, and real arithmetic does half the work of complex arithmetic or less.

The product kernel accumulates each output coefficient in place, row by row:
c_o = a_0 b_o + sum of a_i b_j over the other pairs with e_i + e_j = e_o, in
ascending i.  Its operands are row views of the coefficient arrays, so it
gathers nothing and its only temporary is one row; the order of the sum is
fixed, so a point's coefficients do not depend on the batch it sits in.

Analytic functions sum their Taylor series sum_n f_n (a - a0)^n, with
f_n = f^(n)(a0)/n!.  When ``a`` is affine (no coefficient of degree >= 2),
(a - a0) = p x + q y and the series has the closed form
c_jk = f_{j+k} C(j+k, j) p^j q^k, which needs no jet product; other
arguments take Horner's rule over jet products.  The Taylor rules follow
Griewank and Walther, *Evaluating Derivatives* (2nd ed., SIAM 2008), ch. 13.
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


def _build_mul_terms(degree: int) -> list[list[tuple[int, int]]]:
    """The terms of the truncated product, per output coefficient.

    ``terms[o]`` lists the index pairs (i, j) with e_i + e_j = e_o in
    ascending i; its first pair is (0, o).
    """
    exps = _exponents(degree)
    terms = [[] for _ in exps]
    for i1, (j1, k1) in enumerate(exps):
        for i2, (j2, k2) in enumerate(exps):
            if j1 + k1 + j2 + k2 <= degree:
                terms[_index(j1 + j2, k1 + k2)].append((i1, i2))
    return terms


def _build_affine_table(degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per coefficient (j, k): the exponents j, k, the order n = j + k and C(n, j)."""
    exps = _exponents(degree)
    j = np.array([e[0] for e in exps])
    k = np.array([e[1] for e in exps])
    binom = np.array([float(math.comb(a + b, a)) for a, b in exps])
    return j, k, j + k, binom


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


_MUL_TERMS = {d: _build_mul_terms(d) for d in range(MAX_DEGREE + 1)}
_AFFINE_TABLES = {d: _build_affine_table(d) for d in range(MAX_DEGREE + 1)}
_DX_TABLES = {d: _build_diff_table(d, 0) for d in range(1, MAX_DEGREE + 1)}
_DY_TABLES = {d: _build_diff_table(d, 1) for d in range(1, MAX_DEGREE + 1)}


def _check_degree(degree: int) -> None:
    if not isinstance(degree, (int, np.integer)) or not 0 <= degree <= MAX_DEGREE:
        raise DegreeError(f"jet degree must be an integer in [0, {MAX_DEGREE}], got {degree!r}")


def _dtype(values) -> type:
    """complex for complex input, float otherwise: real jets stay real."""
    return complex if np.iscomplexobj(values) else float


def _product(a: np.ndarray, b: np.ndarray, degree: int) -> np.ndarray:
    """Coefficients of the truncated product of two degree-``degree`` jets.

    Each output row is accumulated in place, one term a_i b_j at a time in
    the order of ``_MUL_TERMS``; every operand is a row view, so nothing is
    gathered and the temporaries are one row high.
    """
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), np.result_type(a, b))
    term = np.empty(out.shape[1:], out.dtype)
    a_rows, b_rows = list(a), list(b)
    for o, ((i, j), *rest) in enumerate(_MUL_TERMS[degree]):
        row = out[o, ...]  # a view, also when there are no batch axes
        np.multiply(a_rows[i], b_rows[j], out=row)
        for i, j in rest:
            np.multiply(a_rows[i], b_rows[j], out=term)
            row += term
    return out


def _affine_series(a: np.ndarray, taylor_coeffs: list, degree: int) -> np.ndarray:
    """Coefficients of sum_n f_n (p x + q y)^n for the affine jet coefficients ``a``."""
    f = np.stack(np.broadcast_arrays(*taylor_coeffs))
    if degree == 0:
        return f
    j, k, n, binom = _AFFINE_TABLES[degree]
    p, q = a[1], a[2]
    p_pow, q_pow = [np.ones_like(p)], [np.ones_like(q)]
    for _ in range(degree):
        p_pow.append(p_pow[-1] * p)
        q_pow.append(q_pow[-1] * q)
    binom = binom.reshape((-1,) + (1,) * (a.ndim - 1))
    return f[n] * binom * (np.stack(p_pow)[j] * np.stack(q_pow)[k])


class Jet2:
    """Degree-``degree`` bivariate jet with coefficient array ``coeffs``.

    ``coeffs`` has shape ``(ncoef,) + batch_shape`` with the coefficient axis
    first; ``ncoef = (degree+1)(degree+2)/2``.
    """

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: np.ndarray):
        _check_degree(degree)
        coeffs = np.asarray(coeffs, dtype=_dtype(coeffs))
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

    def _binary_pair(self, other: "Jet2") -> tuple["Jet2", "Jet2"]:
        d = min(self.degree, other.degree)
        return self.truncate(d), other.truncate(d)

    def __add__(self, other):
        if not isinstance(other, Jet2):
            c = self.coeffs.astype(np.result_type(self.coeffs, other))
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
        return Jet2(a.degree, _product(a.coeffs, b.coeffs, a.degree))

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
        s = 1.0 - w
        for _ in range(self.degree - 1):
            s = 1.0 - w * s
        return s * (1.0 / b0)

    def __truediv__(self, other):
        if not isinstance(other, Jet2):
            if np.any(np.abs(other) <= DIVIDE_TOL):
                raise DivideByZeroJetError(f"scalar divisor of magnitude <= {DIVIDE_TOL:g}", None)
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
        if not np.iscomplexobj(self.coeffs):
            return self
        return Jet2(self.degree, np.conj(self.coeffs))

    def real_part(self) -> "Jet2":
        """Float jet of Re(f) (valid for real chart variables)."""
        if not np.iscomplexobj(self.coeffs):
            return self
        return Jet2(self.degree, self.coeffs.real.copy())

    def imag_part(self) -> "Jet2":
        """Float jet of Im(f) (valid for real chart variables)."""
        return Jet2(self.degree, self.coeffs.imag.copy())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Jet2(degree={self.degree}, batch={self.batch_shape}, value={self.value!r})"


# -- constructors ----------------------------------------------------------


def constant(value, degree: int, batch_shape: tuple[int, ...] = ()) -> Jet2:
    """Jet of a constant function (all derivative coefficients zero)."""
    _check_degree(degree)
    value = np.asarray(value, dtype=_dtype(value))
    shape = np.broadcast_shapes(value.shape, batch_shape)
    c = np.zeros((_ncoef(degree),) + shape, dtype=value.dtype)
    c[0] = value
    return Jet2(degree, c)


def lift_point(x0, y0, degree: int) -> tuple[Jet2, Jet2]:
    """Coordinate jets (x, y) seeded at (x0, y0) with unit first-order terms.

    ``x0``/``y0`` may be scalars or same-shape arrays (a batch of expansion
    points handled in one pass).  The jets are float unless a seed is complex.
    """
    _check_degree(degree)
    dtype = np.result_type(_dtype(x0), _dtype(y0))
    x0 = np.asarray(x0, dtype=dtype)
    y0 = np.asarray(y0, dtype=dtype)
    shape = np.broadcast_shapes(x0.shape, y0.shape)
    cx = np.zeros((_ncoef(degree),) + shape, dtype=dtype)
    cy = np.zeros((_ncoef(degree),) + shape, dtype=dtype)
    cx[0] = x0
    cy[0] = y0
    if degree >= 1:
        cx[_index(1, 0)] = 1.0
        cy[_index(0, 1)] = 1.0
    return Jet2(degree, cx), Jet2(degree, cy)


# -- analytic functions -----------------------------------------------------


def _compose(a: Jet2, taylor_coeffs: list[np.ndarray]) -> Jet2:
    """sum_n taylor_coeffs[n] * (a - a0)^n, truncated at the degree of ``a``.

    An affine ``a`` (a - a0 = p x + q y) takes the closed form
    c_jk = f_n C(n, j) p^j q^k with n = j + k; any other ``a`` takes Horner's
    rule over jet products.
    """
    if not np.any(a.coeffs[3:]):
        return Jet2(a.degree, _affine_series(a.coeffs, taylor_coeffs, a.degree))
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
