"""Ambient C^3 primitives: inner products, J, Reeb field, contact splitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legendrian_lab import ambient, jets

E1 = np.array([1.0, 0.0, 0.0], dtype=complex)


@st.composite
def cvec3(draw):
    parts = draw(
        st.lists(
            st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
            min_size=3,
            max_size=3,
        )
    )
    return np.array(parts, dtype=complex)


def test_hermitian_inner_is_linear_in_the_first_slot():
    assert ambient.hermitian_inner(E1, E1) == 1.0
    assert ambient.hermitian_inner(1j * E1, E1) == 1j


def test_real_inner_examples():
    assert ambient.real_inner(1j * E1, E1) == 0.0
    v = (1.0 + 1.0j) * E1
    assert ambient.real_inner(v, v) == pytest.approx(2.0, abs=1e-15)


@given(cvec3(), cvec3())
@settings(max_examples=60, deadline=None)
def test_apply_J_is_an_isometry(u, v):
    lhs = ambient.real_inner(ambient.apply_J(u), ambient.apply_J(v))
    rhs = ambient.real_inner(u, v)
    assert abs(lhs - rhs) <= 1e-13 * (1.0 + abs(rhs))


@given(cvec3())
@settings(max_examples=60, deadline=None)
def test_apply_J_squares_to_minus_identity(v):
    # i * (i * v) is exact in IEEE arithmetic (component swap and negate).
    assert np.array_equal(ambient.apply_J(ambient.apply_J(v)), -v)


def test_reeb_field_at_the_base_point():
    assert np.array_equal(ambient.reeb(E1), np.array([-1j, 0.0, 0.0]))


def test_contact_projection_removes_the_reeb_part():
    rng = np.random.default_rng(4)
    p = rng.normal(size=3) + 1j * rng.normal(size=3)
    p = p / np.sqrt(ambient.real_inner(p, p))
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    v = v - ambient.real_inner(v, p) * p  # projection is defined on tangents
    w = ambient.contact_projection(p, v)
    assert abs(ambient.real_inner(w, p)) < 1e-13
    assert abs(ambient.real_inner(w, ambient.reeb(p))) < 1e-13


def test_contact_extended_J_maps_into_the_contact_plane():
    rng = np.random.default_rng(5)
    p = rng.normal(size=3) + 1j * rng.normal(size=3)
    p = p / np.sqrt(ambient.real_inner(p, p))
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    v = v - ambient.real_inner(v, p) * p  # make tangent
    jv = ambient.contact_extended_J(p, v)
    assert abs(ambient.real_inner(jv, p)) < 1e-13
    assert abs(ambient.real_inner(jv, ambient.reeb(p))) < 1e-13


#: Every ambient function, as a function of two vectors (p or u first).
BOTH_LAYOUTS = {
    "hermitian_inner": ambient.hermitian_inner,
    "real_inner": ambient.real_inner,
    "apply_J": lambda p, v: ambient.apply_J(v),
    "reeb": lambda p, v: ambient.reeb(p),
    "contact_projection": ambient.contact_projection,
    "contact_extended_J": ambient.contact_extended_J,
}


@pytest.mark.parametrize("points", [(), (7,)], ids=["one_vector", "stacked"])
@pytest.mark.parametrize("name", sorted(BOTH_LAYOUTS))
def test_the_value_of_a_jet_result_is_the_array_result_bitwise(name, points):
    # A degree-2 jet-vector has batch (3,) + points, and its value is the
    # (3,) + points array; each function is one formula on both.
    rng = np.random.default_rng(len(name) + len(points))
    shape = (jets._ncoef(2), 3) + points
    p, v = (
        jets.Jet2(2, rng.normal(size=shape) + 1j * rng.normal(size=shape)) for _ in range(2)
    )
    f = BOTH_LAYOUTS[name]
    on_jets, on_arrays = f(p, v), f(p.value, v.value)
    assert isinstance(on_jets, jets.Jet2) and on_jets.degree == 2
    assert np.array_equal(on_jets.value, on_arrays)


def test_hermitian_inner_conjugates_mixed_degree_jets_at_the_lower_degree(monkeypatch):
    # A degree-1 vector against a degree-4 one, as geometry pairs J H with
    # Fx: the pairing is bitwise the untruncated formula, and the conjugate
    # is taken at degree 1 in either slot.
    rng = np.random.default_rng(11)

    def jet(degree):
        shape = (jets._ncoef(degree), 3, 5)
        return jets.Jet2(degree, rng.normal(size=shape) + 1j * rng.normal(size=shape))

    low, high = jet(1), jet(4)
    expected = [(u * v.conjugate()).component_sum() for u, v in ((low, high), (high, low))]
    conjugated = []
    conjugate = jets.Jet2.conjugate

    def recorded(self):
        conjugated.append(self.degree)
        return conjugate(self)

    monkeypatch.setattr(jets.Jet2, "conjugate", recorded)
    for (u, v), want in zip(((low, high), (high, low)), expected):
        got = ambient.hermitian_inner(u, v)
        assert got.degree == 1 and np.array_equal(got.coeffs, want.coeffs)
    assert conjugated == [1, 1]
