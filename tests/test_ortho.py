import random
from fractions import Fraction

import pytest

from conftest import det, extension_word, row_by_column

from picforms.errors import (
    DescriptorMismatch,
    FieldTooLarge,
    NotOrthogonal,
    RationalsUnsupported,
    ZeroScale,
)
from picforms.fields import GF, QQ, FieldElement, adjoin_sqrt
from picforms.ortho import (
    OrthogonalMatrix,
    _det_raw,
    classify,
    enumerate_special_orthogonal,
    flip_matrix,
    identity_matrix,
    pairing_matrix,
    reduction_matrix,
    scale_matrix,
    shift_matrix,
    swap_matrix,
    swap_shift_matrix,
)
from picforms.sampling import random_b_word, random_orthogonal_word

F5 = GF(5)


def _mat(field, entries):
    return tuple(tuple(field.elem(x) for x in row) for row in entries)


def test_pairing_matrix_qq():
    half = Fraction(-1, 2)
    assert pairing_matrix(QQ) == _mat(QQ, ((0, half, 0), (half, 0, 0), (0, 0, 1)))


def test_pairing_matrix_f5():
    # -1/2 = 2 mod 5
    assert pairing_matrix(F5) == _mat(F5, ((0, 2, 0), (2, 0, 0), (0, 0, 1)))


def test_pairing_symmetric_invertible():
    m = pairing_matrix(QQ)
    assert m == tuple(zip(*m))
    assert det(m, QQ) != QQ.zero()


def _dense_classify(rows, field):
    omega = pairing_matrix(field)
    if row_by_column(row_by_column(tuple(zip(*rows)), omega), rows) != omega:
        return "not-orthogonal"
    return "proper" if det(rows, field) == field.one() else "improper"


def test_classification_examples():
    assert classify(identity_matrix(QQ).rows) == "proper"
    assert classify(_mat(QQ, ((1, 0, 0), (0, 1, 0), (0, 0, -1)))) == "improper"
    assert classify(_mat(QQ, ((2, 0, 0), (0, 2, 0), (0, 0, 1)))) == "not-orthogonal"
    # any single changed entry of a proper or improper matrix breaks orthogonality
    for field in (GF(7), QQ):
        proper = (reduction_matrix(field.elem(3)) @ scale_matrix(field.elem(2))
                  @ shift_matrix(field.elem(5)))
        improper = flip_matrix(field) @ swap_shift_matrix(field.elem(4)) @ proper
        for m, kind in ((proper, "proper"), (improper, "improper")):
            assert classify(m.rows) == kind
            for i in range(3):
                for j in range(3):
                    rows = [list(r) for r in m.rows]
                    rows[i][j] = rows[i][j] + 1
                    assert classify(rows) == "not-orthogonal", (field, kind, i, j)
    # the six-entry check and the cofactor determinant agree with the dense
    # A^T Omega A == Omega and the elimination determinant
    rng = random.Random(53)
    for field in (GF(7), F5, QQ, GF(2 ** 61 - 1), GF(5, 3), GF(3, 2)):
        for _ in range(20):
            m = random_orthogonal_word(field, rng, improper=bool(rng.randrange(2)))
            rows = [list(r) for r in m.rows]
            assert classify(rows) == _dense_classify(rows, field)
            assert m.proper == (classify(rows) == "proper")
            rows[rng.randrange(3)][rng.randrange(3)] += rng.randrange(1, 5)
            assert classify(rows) == _dense_classify(rows, field)
            # the shared cofactor determinant on a matrix that is not orthogonal
            raw = _det_raw(field, [field.values(r) for r in rows])
            assert FieldElement(field, raw) == det(rows, field)


def test_classify_rejects_entries_of_another_field():
    with pytest.raises(DescriptorMismatch):
        classify(identity_matrix(QQ).rows, GF(7))
    F25 = GF(5, 2)
    rows = [list(r) for r in identity_matrix(F5).rows]
    rows[2][2] = F25.one()
    with pytest.raises(DescriptorMismatch):
        classify(rows)
    with pytest.raises(DescriptorMismatch):
        OrthogonalMatrix(rows)


def test_generator_matrices_match_displays():
    a2 = QQ.elem(2)
    assert scale_matrix(a2).rows == _mat(QQ, ((2, 0, 0), (0, Fraction(1, 2), 0), (0, 0, 1)))
    assert classify(scale_matrix(a2).rows) == "proper"
    b = QQ.elem(3)
    assert shift_matrix(b).rows == _mat(QQ, ((1, 0, 0), (9, 1, -6), (-3, 0, 1)))
    assert swap_shift_matrix(b).rows == _mat(QQ, ((0, 1, 0), (1, 9, 6), (0, -3, -1)))
    assert reduction_matrix(QQ.elem(1)).rows == _mat(QQ, ((1, 1, -2), (0, 1, 0), (0, -1, 1)))
    assert swap_matrix(QQ).rows == _mat(QQ, ((0, 1, 0), (1, 0, 0), (0, 0, -1)))
    assert classify(swap_matrix(QQ).rows) == "proper"
    assert classify(flip_matrix(QQ).rows) == "improper"


def test_zero_scale_rejected():
    with pytest.raises(ZeroScale):
        scale_matrix(QQ.zero())


def test_not_orthogonal_rejected():
    with pytest.raises(NotOrthogonal):
        OrthogonalMatrix(_mat(QQ, ((2, 0, 0), (0, 2, 0), (0, 0, 1))))


def test_all_generators_orthogonal_det():
    # the generators skip validation, so classify them here as the reference
    rng = random.Random(4)
    for _ in range(50):
        a = F5.random_element(rng)
        for m in (shift_matrix(a), swap_shift_matrix(a), reduction_matrix(a)):
            assert m.proper and classify(m.rows) == "proper"
        if a:
            assert scale_matrix(a).proper and classify(scale_matrix(a).rows) == "proper"
    assert classify(identity_matrix(F5).rows) == "proper"
    m = scale_matrix(F5.elem(2)).embedded(GF(5, 2))
    assert m.proper and classify(m.rows) == "proper"


def test_inverse_and_composition():
    rng = random.Random(9)
    for _ in range(50):
        m = random_orthogonal_word(F5, rng, improper=bool(rng.randrange(2)))
        assert m @ m.inverse() == identity_matrix(F5)


@pytest.mark.parametrize("label", ["QQ", "GF(7)", "GF(5^2)", "QQ(sqrt 2)"])
def test_inverse_is_the_pairing_transpose(label):
    # A^{-1} = Omega^{-1} A^T Omega, against products of element operators
    rng = random.Random(22)
    if label == "QQ(sqrt 2)":
        field, root = adjoin_sqrt(QQ, QQ.elem(2))
        words = [extension_word(root, rng, improper=k % 2 == 1) for k in range(20)]
    else:
        field = {"QQ": QQ, "GF(7)": GF(7), "GF(5^2)": GF(5, 2)}[label]
        words = [random_orthogonal_word(field, rng, improper=k % 2 == 1) for k in range(20)]
    omega = pairing_matrix(field)
    omega_inv = _mat(field, ((0, -2, 0), (-2, 0, 0), (0, 0, 1)))
    for m in words:
        inv = m.inverse()
        assert inv.rows == row_by_column(row_by_column(omega_inv, tuple(zip(*m.rows))), omega)
        assert inv.field is field and inv.proper == m.proper
        assert inv @ m == identity_matrix(field) == m @ inv
        assert classify(inv.rows) == ("proper" if m.proper else "improper")


def test_enumeration_orders():
    assert len(enumerate_special_orthogonal(GF(3))) == 24 == 3 ** 3 - 3
    group = enumerate_special_orthogonal(F5)
    assert len(group) == 120 == 5 ** 3 - 5


def test_enumeration_group_axioms():
    group = enumerate_special_orthogonal(GF(3))
    elems = set(group)
    assert identity_matrix(GF(3)) in elems
    for m in group:
        assert m.proper
        assert m.inverse() in elems
    rng = random.Random(1)
    for _ in range(100):
        a, b = rng.choice(group), rng.choice(group)
        assert a @ b in elems


def test_enumeration_contains_other_generators():
    group = set(enumerate_special_orthogonal(F5))
    for a in F5.elements():
        assert reduction_matrix(a) in group
    assert swap_matrix(F5) in group


def test_b_words_inside_enumeration():
    for p in (3, 5):
        field = GF(p)
        group = set(enumerate_special_orthogonal(field))
        rng = random.Random(p)
        for _ in range(40):
            assert random_b_word(field, rng) in group


def test_enumeration_guards():
    with pytest.raises(RationalsUnsupported):
        enumerate_special_orthogonal(QQ)
    with pytest.raises(FieldTooLarge):
        enumerate_special_orthogonal(GF(17))


def test_enumeration_deterministic():
    g1 = enumerate_special_orthogonal(GF(3))
    g2 = enumerate_special_orthogonal(GF(3))
    assert g1 == g2
