import random
from fractions import Fraction

import pytest

from conftest import det, element_row_reduce, row_by_column

from picforms import linalg
from picforms.errors import DescriptorMismatch
from picforms.fields import GF, QQ, rational_extension

F5 = GF(5)


def _m(field, rows):
    return tuple(tuple(field.elem(x) for x in row) for row in rows)


def test_row_reduce_and_rank():
    rows, pivots = linalg.row_reduce(_m(QQ, ((1, 2, 3), (2, 4, 6), (0, 1, 1))), QQ)
    assert pivots == (0, 1)
    assert linalg.rank(_m(QQ, ((1, 2, 3), (2, 4, 6), (0, 1, 1))), QQ) == 2


@pytest.mark.parametrize("field", [QQ, GF(7), GF(5, 3), rational_extension((-2, 0, 1))],
                         ids=lambda f: f.label())
def test_row_reduce_agrees_with_element_elimination(field):
    # seeded n x k matrices, some with a row repeated (rank-deficient) or a
    # column zeroed (a missing pivot, the sampler's singular case), reduced
    # on all columns and on the first ncols < k only
    rng = random.Random(20261019)
    for n, k in ((1, 1), (2, 3), (3, 3), (3, 5), (4, 6), (5, 3)):
        for _ in range(6):
            rows = [[_random_entry(field, rng) for _ in range(k)] for _ in range(n)]
            if n > 1 and rng.random() < 0.5:
                rows[-1] = [x * _random_entry(field, rng) for x in rows[0]]
            if rng.random() < 0.5:
                zeroed = rng.randrange(k)
                for row in rows:
                    row[zeroed] = field.zero()
            rows = tuple(map(tuple, rows))
            assert linalg.row_reduce(rows, field) == element_row_reduce(rows, k)
            ncols = rng.randint(1, k)
            reduced, pivots = linalg._row_reduce(field, list(map(field.values, rows)), ncols)
            assert (tuple(map(field._wrap, reduced)), pivots) == element_row_reduce(rows, ncols)


def test_kernel_basis():
    rows = _m(F5, ((1, 0, 4), (0, 0, 0)))
    basis = linalg.kernel_basis(rows, F5, 3)
    assert len(basis) == 2
    for vec in basis:
        assert all(not x for x in linalg.mat_vec(rows, vec))


def test_solve_consistent_and_inconsistent():
    a = _m(QQ, ((1, 1), (1, -1), (2, 0)))
    b = (QQ.elem(3), QQ.elem(1), QQ.elem(4))
    x = linalg.solve(a, b, QQ)
    assert linalg.mat_vec(a, x) == b
    bad = (QQ.elem(3), QQ.elem(1), QQ.elem(5))
    assert linalg.solve(a, bad, QQ) is None


def test_det():
    # the elimination determinant, kept as the reference oracle for classify
    a = _m(QQ, ((Fraction(1, 2), 1), (0, 3)))
    assert det(a, QQ) == QQ.elem(Fraction(3, 2))
    singular = _m(QQ, ((1, 2), (2, 4)))
    assert det(singular, QQ) == QQ.zero()


def _random_entry(field, rng):
    if field.p is not None:
        return field.random_element(rng)
    if field.m == 1:
        return field.elem(Fraction(rng.randint(-40, 40), rng.randint(1, 9)))
    return field.elem([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(2)])


def test_mat_mul_agrees_with_row_by_column():
    rng = random.Random(11)
    for field in (QQ, GF(7), GF(2 ** 61 - 1), GF(5, 3), rational_extension((-2, 0, 1))):
        for n, k, m in ((1, 1, 1), (3, 3, 3), (3, 3, 5), (2, 4, 3)):
            a = tuple(tuple(_random_entry(field, rng) for _ in range(k)) for _ in range(n))
            b = tuple(tuple(_random_entry(field, rng) for _ in range(m)) for _ in range(k))
            assert linalg.mat_mul(a, b) == row_by_column(a, b), (field, n, k, m)
            vec = tuple(row[0] for row in b)
            assert linalg.mat_vec(a, vec) == tuple(r[0] for r in row_by_column(a, b))


def test_products_reject_entries_of_another_field():
    a = _m(F5, ((1, 2), (3, 4)))
    b = (a[0], (GF(5, 2).one(), F5.one()))
    with pytest.raises(DescriptorMismatch):
        linalg.mat_mul(a, b)
    with pytest.raises(DescriptorMismatch):
        linalg.mat_vec(a, b[1])
    with pytest.raises(DescriptorMismatch):
        linalg.dot(a[0], _m(QQ, ((1, 2),))[0])
