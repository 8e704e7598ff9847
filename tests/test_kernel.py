"""Property tests of the sum-of-products kernel ``Field.dot``: on every
field kind it equals the naive fold x0*y0 + x1*y1 + ... of the element
operators, for one sum and for a difference of two sums.

``hypothesis`` is a test-only dependency: without it this module is
skipped.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from picforms.fields import GF, QQ, FieldElement, rational_extension  # noqa: E402

BIG = 10 ** 30
FIELDS = [QQ, GF(7), GF(2 ** 61 - 1), GF(5, 3), rational_extension((-2, 0, 1))]
SETTINGS = settings(max_examples=60, deadline=None)


def _rational():
    return st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))


def _raw(field):
    """Canonical raw values of `field`, zero about one time in six."""
    if field.p is None:
        coeff = _rational()
        values = coeff if field.m == 1 else st.lists(coeff, min_size=2, max_size=2)
    elif field.m == 1:
        values = st.integers(0, field.p - 1)
    else:
        values = st.lists(st.integers(0, field.p - 1), min_size=field.m, max_size=field.m)
    return st.one_of(st.just(0), values, values, values, values, values).map(
        lambda v: field.elem(v).value)


def _naive_fold(field, xs, ys):
    acc = FieldElement(field, xs[0]) * FieldElement(field, ys[0])
    for x, y in zip(xs[1:], ys[1:]):
        acc = acc + FieldElement(field, x) * FieldElement(field, y)
    return acc


def _vectors(data, field, min_size):
    n = data.draw(st.integers(min_size, 8))
    return (data.draw(st.lists(_raw(field), min_size=n, max_size=n)),
            data.draw(st.lists(_raw(field), min_size=n, max_size=n)))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.label())
@SETTINGS
@given(data=st.data())
def test_dot_equals_naive_fold(field, data):
    xs, ys = _vectors(data, field, 1)
    got = field.dot(xs, ys)
    assert isinstance(got, FieldElement) and got.field is field
    assert got == _naive_fold(field, xs, ys)
    # the kernel returns the canonical value the element operators build
    assert got.value == _naive_fold(field, xs, ys).value
    zero = field.zero().value
    assert type(got.value) is type(zero)
    if isinstance(zero, tuple):  # QQ(sqrt d) coefficients stay Fractions
        assert [type(c) for c in got.value] == [type(c) for c in zero]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.label())
@SETTINGS
@given(data=st.data())
def test_dot_difference_equals_naive_folds(field, data):
    xs, ys = _vectors(data, field, 1)
    xs2, ys2 = _vectors(data, field, 1)
    want = _naive_fold(field, xs, ys) - _naive_fold(field, xs2, ys2)
    assert field.dot(xs, ys, xs2, ys2) == want
    assert field.dot(xs, ys, xs, ys) == field.zero()


def test_rational_result_in_lowest_terms():
    # 1/6 + 1/3 + 1/2 = 1, and 1/4 * 2 - 1/2 * 1 = 0
    x = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 2)]
    y = [Fraction(1, 3), Fraction(1), Fraction(1)]
    assert QQ.dot(x, y).value == 1 and QQ.dot(x, y).value.denominator == 1
    assert QQ.dot([Fraction(1, 4)], [Fraction(2)], [Fraction(1, 2)], [Fraction(1)]) == QQ.zero()
