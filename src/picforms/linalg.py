"""Small exact linear algebra on raw values.

Vectors are lists of raw values of one :class:`picforms.fields.Field`
(``Field.values`` of its elements), and matrices are sequences of such
rows; callers unwrap their elements once and wrap only what they return.
There are three kernels.

``_mat_mul_raw`` is the product: each row is one call of the field's
vector kernel (``Field._raw_comb``, the vector form of
:meth:`picforms.fields.Field.dot`), the combination of the rows of the
right factor with the entries of the left row as coefficients, so each
entry is normalised once and in lowest terms.

``_row_reduce`` is Gauss-Jordan elimination with exact division, which
can stop at a column limit and carry the later columns along (an
augmented part, for solving); ``_kernel_basis`` reads a basis of the
null space off one reduction.  :mod:`picforms.fields` (subfield
coordinates) and :mod:`picforms.sampling` (closed points) reduce over
GF(p); :mod:`picforms.quadform` (radical and rank-3 section),
:mod:`picforms.triples`, :mod:`picforms.ortho` and
:mod:`picforms.equivalence` multiply and reduce over any field.  Sizes
never exceed a few rows, so no pivoting strategy beyond "first nonzero"
is needed, and that choice keeps every result deterministic.  This module
imports nothing from the package.
"""

from __future__ import annotations


def _mat_mul_raw(field, a, b):
    """a @ b on raw values of ``field``, as a tuple of row lists; row i is
    one vector-kernel call, sum_k a[i][k] b[k]."""
    comb = field._raw_comb
    return tuple([comb(r, b) for r in a])


def _row_reduce(field, rows, ncols):
    """(rows, pivots) for a list of rows of raw values of ``field``, reduced
    in place by Gauss-Jordan elimination until its first ``ncols`` columns
    are in reduced row echelon form; later columns (an augmented part) are
    carried along.  pivots are the pivot column indices, in order."""
    zero = field._zero.value
    mul, sub = field._raw_mul, field._raw_sub
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != zero), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field._raw_inv(rows[r][c])
        top = rows[r] = [mul(x, inv) for x in rows[r]]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and f != zero:
                rows[i] = [sub(x, mul(f, y)) for x, y in zip(row, top)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, tuple(pivots)


def _kernel_basis(field, rows, ncols):
    """A deterministic basis of {x : rows @ x = 0} for raw rows with
    ``ncols`` columns, as raw vectors, one per free column."""
    reduced, pivots = _row_reduce(field, list(rows), ncols)
    zero, one, neg = field._zero.value, field._one.value, field._raw_neg
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = neg(reduced[r][fc])
        basis.append(vec)
    return basis
