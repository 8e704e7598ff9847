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


def _reduce(field, rows, ncols):
    """linalg._row_reduce on the raw values of element rows, wrapped again."""
    reduced, pivots = linalg._row_reduce(field, list(map(field.values, rows)), ncols)
    return tuple(map(field._wrap, reduced)), pivots


def test_row_reduce_and_rank():
    rows, pivots = _reduce(QQ, _m(QQ, ((1, 2, 3), (2, 4, 6), (0, 1, 1))), 3)
    assert pivots == (0, 1)
    assert rows == _m(QQ, ((1, 0, 1), (0, 1, 1), (0, 0, 0)))


@pytest.mark.parametrize("field", [QQ, GF(7), GF(5, 3), rational_extension((-2, 0, 1))],
                         ids=lambda f: f.label())
def test_row_reduce_agrees_with_element_elimination(field):
    # seeded n x k matrices, some with a row repeated (rank-deficient) or a
    # column zeroed (a missing pivot, the sampler's singular case), reduced
    # on all columns and on the first ncols < k only; the kernel basis is
    # read off the reference reduction
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
            assert _reduce(field, rows, k) == element_row_reduce(rows, k)
            ncols = rng.randint(1, k)
            assert _reduce(field, rows, ncols) == element_row_reduce(rows, ncols)
            reduced, pivots = element_row_reduce(rows, k)
            basis = linalg._kernel_basis(field, list(map(field.values, rows)), k)
            assert len(basis) == k - len(pivots)
            for fc, vec in zip((c for c in range(k) if c not in pivots), basis):
                want = [field.zero()] * k
                want[fc] = field.one()
                for r, pc in enumerate(pivots):
                    want[pc] = -reduced[r][fc]
                assert field._wrap(vec) == tuple(want)
                assert all(not y for (y,) in row_by_column(rows, [(x,) for x in field._wrap(vec)]))


def test_kernel_basis():
    rows = [F5.values(row) for row in ((1, 0, 4), (0, 0, 0))]
    basis = linalg._kernel_basis(F5, rows, 3)
    assert basis == [[0, 1, 0], [1, 0, 1]]
    for vec in basis:
        assert linalg._mat_mul_raw(F5, rows, [[x] for x in vec]) == ([0], [0])
    # no rows: every column is free
    assert linalg._kernel_basis(F5, [], 2) == [[1, 0], [0, 1]]


def test_row_reduce_solves_augmented_rows():
    # a x = b from the reduction of [a | b] on the columns of a, as the
    # sampler and the isotropic search solve
    a = _m(QQ, ((1, 1), (1, -1), (2, 0)))
    b = (QQ.elem(3), QQ.elem(1), QQ.elem(4))
    reduced, pivots = _reduce(QQ, [(*row, y) for row, y in zip(a, b)], 2)
    assert pivots == (0, 1) and not any(reduced[2])
    x = tuple(row[2] for row in reduced[:2])
    assert row_by_column(a, [(y,) for y in x]) == tuple((y,) for y in b)


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
            values = field.values
            got = linalg._mat_mul_raw(field, list(map(values, a)), list(map(values, b)))
            assert tuple(map(field._wrap, got)) == row_by_column(a, b), (field, n, k, m)


def test_products_reject_entries_of_another_field():
    # the raw kernels trust their input; the one unwrapping step is the check
    a = _m(F5, ((1, 2), (3, 4)))
    with pytest.raises(DescriptorMismatch):
        F5.values((GF(5, 2).one(), F5.one()))
    with pytest.raises(DescriptorMismatch):
        F5.values(_m(QQ, ((1, 2),))[0])
    assert F5.values(a[0]) == [1, 2] and F5.values((1, Fraction(1, 2))) == [1, 3]
