import pytest
from hypothesis import given
from hypothesis import strategies as st

from leavitt import LaurentElement, laurent_perp_is_zero


def test_square_over_gf2():
    f = LaurentElement(2, {0: 1, 1: 1})
    assert f * f == LaurentElement(2, {0: 1, 2: 1})


def test_one_is_neutral():
    one = LaurentElement(5, {0: 1})
    f = LaurentElement(5, {-2: 3, 0: 1, 4: 2})
    assert one * f == f
    assert f * one == f


def test_perp_is_zero():
    assert laurent_perp_is_zero(LaurentElement(2, {0: 1, 1: 1}))
    assert laurent_perp_is_zero(LaurentElement(5, {-3: 4}))


def test_perp_rejects_zero():
    with pytest.raises(ValueError):
        laurent_perp_is_zero(LaurentElement(3, {}))


def test_zero_coefficients_are_dropped():
    f = LaurentElement(3, {0: 3, 1: 4})
    assert f.coeffs == {1: 1}
    assert LaurentElement(3, {0: 3}).is_zero


def test_field_mismatch():
    with pytest.raises(ValueError):
        LaurentElement(2, {0: 1}) * LaurentElement(3, {0: 1})
    with pytest.raises(ValueError):
        LaurentElement(6, {0: 1})


laurents = st.builds(
    lambda coeffs: LaurentElement(5, coeffs),
    st.dictionaries(
        st.integers(min_value=-6, max_value=6), st.integers(min_value=0, max_value=9), max_size=6
    ),
)


@given(laurents, laurents)
def test_degrees_are_additive(f, g):
    prod = f * g
    if f.is_zero or g.is_zero:
        assert prod.is_zero
    else:
        assert prod.min_degree == f.min_degree + g.min_degree
        assert prod.max_degree == f.max_degree + g.max_degree


@given(laurents)
def test_nonzero_elements_annihilate_nothing(f):
    if not f.is_zero:
        assert laurent_perp_is_zero(f)
