"""Property tests of the polylog finite-field primitives on large fields, of
the triples that the sampler, the Frobenius image and embedding build
without re-validation, of the class decision on moved triples, and of the
JSON renderer against ``json.dumps``.

``hypothesis`` is a test-only dependency: without it this module is
skipped.
"""

import json
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import rational_triples, seeded_curve  # noqa: E402

from picforms import serialize  # noqa: E402
from picforms.curves import make_curve  # noqa: E402
from picforms.equivalence import KIND_BOTH, KIND_CONJ, KIND_EQUAL, same_class  # noqa: E402
from picforms.errors import DescriptorMismatch  # noqa: E402
from picforms.fields import GF, QQ, embed, unembed  # noqa: E402
from picforms.galois import galois_context, galois_image  # noqa: E402
from picforms.ortho import OrthogonalMatrix  # noqa: E402
from picforms.poly import Polynomial, roots_in_field  # noqa: E402
from picforms.sampling import random_orthogonal_word, random_triple  # noqa: E402
from picforms.triples import act, conjugate, make_triple  # noqa: E402

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


# (curve, field of the sampled triples, a field it embeds into)
SAMPLED = [(seeded_curve(GF(P61), genus, genus), GF(P61), GF(P61, 2)) for genus in (1, 2)] + [
    (seeded_curve(GF(P20), genus, genus), GF(P20, 2), GF(P20, 4)) for genus in (1, 2)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SAMPLED), st.integers(0, 2 ** 32))
def test_constructed_triples_pass_validation(case, seed):
    # random_triple, galois_image and Triple.embedded skip make_triple;
    # re-validating what they return must give the same triple back
    curve, field, bigger = case
    t = random_triple(curve, field, random.Random(seed))
    for out in (t, galois_image(t, galois_context(field)), t.embedded(bigger)):
        assert make_triple(out.curve, out.u, out.v, out.w, field=out.field) == out


# (curve, field of the triples): QQ, GF(2^61 - 1) in genus 1-2, GF(1000033^2)
DECIDED = [(make_curve([-1, 0, 0, 0, 1], QQ), QQ)] + [
    (curve, field) for curve, field, _ in SAMPLED]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(DECIDED), st.integers(0, 2 ** 32), st.booleans())
def test_same_class_on_moved_triples(case, seed, improper):
    # t and act(W, t) for a proper or improper word W: the verdict must see
    # the move, and every witness must be a proper matrix over t's field
    # that carries t onto act(W, t), or onto its conjugate
    curve, field = case
    rng = random.Random(seed)
    if field is QQ:
        t = rational_triples(curve, rng, 1)[0]
    else:
        t = random_triple(curve, field, rng)
    moved = act(random_orthogonal_word(field, rng, improper=improper), t)
    rel = same_class(t, moved)
    assert rel.kind in ((KIND_CONJ, KIND_BOTH) if improper else (KIND_EQUAL, KIND_BOTH))
    for witness, target in ((rel.witness, moved), (rel.conjugate_witness, conjugate(moved))):
        if witness is None:
            continue
        assert witness.field is t.field
        assert OrthogonalMatrix(witness.rows).proper
        assert act(witness, t) == target


# strings with quotes, backslashes, control characters, non-ASCII and
# astral characters and lone surrogates; ints up to 200 digits
_CHARS = st.one_of(st.characters(), st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f'),
                   st.integers(0xD800, 0xDFFF).map(chr))
_TEXT = st.lists(_CHARS, max_size=12).map("".join)
_LEAVES = st.one_of(_TEXT, st.none(), st.booleans(), st.integers(),
                    st.integers(-10 ** 200, 10 ** 200), st.sampled_from([10 ** 199, 1 - 10 ** 200]))
_PAYLOADS = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=5), st.lists(inner, max_size=5).map(tuple),
    st.dictionaries(_TEXT, inner, max_size=5)), max_leaves=40)


@settings(max_examples=100, deadline=None)
@given(_PAYLOADS)
def test_dumps_equals_the_json_reference(payload):
    assert serialize.dumps(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"
