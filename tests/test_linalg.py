from fractions import Fraction

from picforms import linalg
from picforms.fields import GF, QQ

F5 = GF(5)


def _m(field, rows):
    return tuple(tuple(field.elem(x) for x in row) for row in rows)


def test_row_reduce_and_rank():
    rows, pivots = linalg.row_reduce(_m(QQ, ((1, 2, 3), (2, 4, 6), (0, 1, 1))), QQ)
    assert pivots == (0, 1)
    assert linalg.rank(_m(QQ, ((1, 2, 3), (2, 4, 6), (0, 1, 1))), QQ) == 2


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
    a = _m(QQ, ((Fraction(1, 2), 1), (0, 3)))
    assert linalg.det(a, QQ) == QQ.elem(Fraction(3, 2))
    singular = _m(QQ, ((1, 2), (2, 4)))
    assert linalg.det(singular, QQ) == QQ.zero()
