import random
from fractions import Fraction

import pytest

from picforms import serialize
from picforms.fields import GF, QQ, rational_extension
from picforms.poly import Polynomial
from picforms.quadform import gram
from picforms.sampling import random_proper_word, random_triple
from picforms.triples import make_triple

F5 = GF(5)
F25 = GF(5, 2)


def test_scalar_round_trips():
    cases = [
        (QQ, QQ.elem(Fraction(-7, 3))),
        (QQ, QQ.elem(4)),
        (F5, F5.elem(3)),
        (F25, F25.elem((2, 4))),
        (rational_extension((-2, 0, 1)), rational_extension((-2, 0, 1)).elem(
            (Fraction(1, 2), Fraction(-3)))),
    ]
    for field, e in cases:
        blob = serialize.scalar_to_json(e)
        assert serialize.scalar_from_json(field, blob) == e


def test_scalar_formats():
    assert serialize.scalar_to_json(QQ.elem(Fraction(1, 2))) == "1/2"
    assert serialize.scalar_to_json(QQ.elem(5)) == "5"
    assert serialize.scalar_to_json(F5.elem(3)) == [3]
    assert serialize.scalar_to_json(F25.elem((1, 4))) == [1, 4]


def test_field_round_trips():
    for field in (QQ, F5, F25, GF(7, 3), rational_extension((-3, 0, 1))):
        blob = serialize.field_to_json(field)
        assert serialize.field_from_json(blob) == field


def test_poly_round_trip():
    f = Polynomial(F25, ((1, 2), (0, 0), (3, 4)))
    blob = serialize.poly_to_json(f)
    assert blob == [[1, 2], [0, 0], [3, 4]]


def test_curve_triple_matrix_gram_round_trips(curve_f5b):
    blob = serialize.curve_to_json(curve_f5b)
    assert serialize.curve_from_json(blob) == curve_f5b
    rng = random.Random(60)
    t = random_triple(curve_f5b, F25, rng)
    tblob = serialize.triple_to_json(t)
    assert serialize.triple_from_json(curve_f5b, tblob) == t
    m = random_proper_word(F25, rng)
    mblob = serialize.matrix_to_json(m)
    assert serialize.matrix_from_json(mblob) == m
    S = gram(t)
    sblob = serialize.gram_to_json(S)
    assert serialize.gram_from_json(sblob) == S


def test_triple_default_field(curve_f5b):
    t = make_triple(curve_f5b, (1, 0, 1), (3, 0, 4), (0, 1, 0))
    blob = serialize.triple_to_json(t, with_field=False)
    assert "field" not in blob
    assert serialize.triple_from_json(curve_f5b, blob) == t


def test_dumps_stable():
    payload = {"b": 1, "a": [1, 2], "c": {"y": 0, "x": 1}}
    assert serialize.dumps(payload) == serialize.dumps(payload)
    assert serialize.dumps(payload).endswith("\n")
    assert serialize.dumps(payload).index('"a"') < serialize.dumps(payload).index('"b"')


@pytest.mark.parametrize("payload", [1.5, [0, {"a": -0.0}], {1: "a"}, {"a": {None: 1}},
                                     Fraction(1, 2), {"a": {1, 2}}])
def test_dumps_rejects_what_the_package_never_emits(payload):
    # json.dumps would write the floats and turn the keys 1 and None into
    # strings; the renderer takes only dicts with str keys, lists, tuples,
    # str, int, bool and None
    with pytest.raises(TypeError):
        serialize.dumps(payload)


@pytest.mark.parametrize("field, blob", [
    (F5, [1.9]),  # int() would truncate it to 1
    (F5, [True]),
    (F5, True),
    (F25, [1, 2.0]),
    (F25, {"0": 1}),
    (QQ, 0.5),  # Fraction() would take its binary expansion
    (QQ, True),
    (QQ, "1/0"),
    (QQ, ["1"]),
    (rational_extension((-2, 0, 1)), ["1/0", "1"]),
    (rational_extension((-2, 0, 1)), [False, "1"]),
])
def test_scalar_reader_rejects(field, blob):
    with pytest.raises(ValueError):
        serialize.scalar_from_json(field, blob)


@pytest.mark.parametrize("blob", [
    {"p": None, "m": 2, "modulus": ["1/0", "0", "1"]},
    {"p": None, "m": 2, "modulus": [-2.0, 0, 1]},
    {"p": 5, "m": 2, "modulus": [2, 4, True]},
    {"p": True},
    {"p": 5.0},
    {"p": 5, "m": 1.0},
    [5, 1],
])
def test_field_reader_rejects(blob):
    with pytest.raises(ValueError):
        serialize.field_from_json(blob)


def test_array_readers_reject_other_containers(curve_f5b):
    with pytest.raises(ValueError):
        serialize.triple_from_json(curve_f5b, {"u": {"0": [1], "1": [0], "2": [1]},
                                               "v": [[3], [0], [4]], "w": [[0], [1], [0]]})
    with pytest.raises(ValueError):
        serialize.matrix_from_json([], default_field=F5)
