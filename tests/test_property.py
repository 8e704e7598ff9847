"""Property tests of the polylog finite-field primitives on large fields.

``hypothesis`` is a test-only dependency: without it this module is
skipped.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from picforms.errors import DescriptorMismatch  # noqa: E402
from picforms.fields import GF, embed, unembed  # noqa: E402
from picforms.poly import Polynomial, roots_in_field  # noqa: E402

P61 = 2 ** 61 - 1
P20 = 1000033
FIELDS = [GF(P61), GF(P20), GF(P20, 2), GF(P20, 3), GF(P20, 4)]
PAIRS = [(GF(P20), GF(P20, 2)), (GF(P20), GF(P20, 3)), (GF(P20), GF(P20, 4)),
         (GF(P20, 2), GF(P20, 4))]
SETTINGS = settings(max_examples=40, deadline=None)


def _element(field):
    return st.integers(0, field.order - 1).map(field.element_from_index)


def _field_and_element():
    return st.sampled_from(FIELDS).flatmap(lambda f: st.tuples(st.just(f), _element(f)))


@SETTINGS
@given(_field_and_element())
def test_sqrt_and_euler(pair):
    field, a = pair
    r = field.sqrt(a)
    if not a:
        assert r == a
    elif a ** ((field.order - 1) // 2) == field.one():
        assert r * r == a
    else:
        assert r is None


@SETTINGS
@given(_field_and_element())
def test_sqrt_of_square_is_canonical(pair):
    field, x = pair
    r = field.sqrt(x * x)
    assert r in (x, -x)
    assert r.sort_key() <= (-r).sort_key()


@SETTINGS
@given(st.sampled_from(PAIRS).flatmap(
    lambda sd: st.tuples(st.just(sd), _element(sd[0]), _element(sd[0]))))
def test_embed_unembed_round_trip(args):
    (src, dst), x, y = args
    e = embed(x, dst)
    assert unembed(e, src) == x
    assert embed(x * y, dst) == e * embed(y, dst)
    assert embed(x + y, dst) == e + embed(y, dst)
    with pytest.raises(DescriptorMismatch):
        unembed(e + dst.generator(), src)


@SETTINGS
@given(st.sampled_from(FIELDS).flatmap(lambda f: st.tuples(
    st.just(f),
    st.lists(st.tuples(_element(f), st.integers(1, 2)), min_size=1, max_size=3),
    _element(f))))
def test_roots_of_linear_products(args):
    field, factors, lead = args
    if not lead:
        lead = field.one()
    f = Polynomial(field, (lead,))
    want = {}
    for r, mult in factors:
        f = f * Polynomial(field, (-r, field.one())) ** mult
        want[r] = want.get(r, 0) + mult
    assert roots_in_field(f) == sorted(want.items(), key=lambda pair: pair[0].sort_key())
