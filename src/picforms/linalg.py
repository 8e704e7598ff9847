"""Small exact linear algebra over field elements.

Matrices are tuples of row tuples of FieldElement.  Products go through
the field's vector kernel (``Field._raw_comb``, the vector form of
:meth:`picforms.fields.Field.dot`): each row of a product is one kernel
call on raw values, the combination of the rows of the right factor with
the entries of the left row as coefficients, and each entry is
normalised once and in lowest terms.  ``_mat_mul_raw`` is that product
on raw rows; the class decision uses it directly and wraps only the
witnesses it returns.

Everything else is Gauss-Jordan elimination with exact division, in one
kernel on raw rows, ``_row_reduce``, which can stop at a column limit and
carry the later columns along; ``row_reduce``, ``rank``, ``kernel_basis``
and ``solve`` wrap it, and :mod:`picforms.fields` (subfield coordinates)
and :mod:`picforms.sampling` (closed points) call it over GF(p).  Sizes
never exceed a few rows, so no pivoting strategy beyond "first nonzero"
is needed, and that choice keeps every result deterministic.  This module
imports nothing from the package.
"""

from __future__ import annotations


def mat_mul(a, b):
    """a @ b, the rows of a times the matrix b, over the field of a[0][0].

    Also the action of a 3 x 3 matrix on the forms (u, v, w), read as the
    rows of a 3 x (g + 2) matrix.  An entry from another field raises
    DescriptorMismatch.
    """
    field = a[0][0].field
    values = field.values
    rows = _mat_mul_raw(field, list(map(values, a)), list(map(values, b)))
    return tuple(map(field._wrap, rows))


def _mat_mul_raw(field, a, b):
    """a @ b on raw values of ``field``, as a tuple of row lists; row i is
    one vector-kernel call, sum_k a[i][k] b[k]."""
    comb = field._raw_comb
    return tuple([comb(r, b) for r in a])


def mat_vec(a, v):
    field = v[0].field
    dot, values = field.dot, field.values
    vals = values(v)
    return tuple(dot(values(row), vals) for row in a)


def dot(u, v):
    values = u[0].field.values
    return u[0].field.dot(values(u), values(v))


def row_reduce(rows, field):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    if not rows:
        return (), ()
    reduced, pivots = _row_reduce(field, list(map(field.values, rows)), len(rows[0]))
    return tuple(map(field._wrap, reduced)), pivots


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


def rank(rows, field):
    return len(row_reduce(rows, field)[1])


def kernel_basis(rows, field, ncols):
    """Deterministic basis of {x : rows @ x = 0}, one vector per free column."""
    reduced, pivots = row_reduce(rows, field)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    zero, one = field.zero(), field.one()
    for fc in free:
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(tuple(vec))
    return basis


def solve(rows, rhs, field):
    """One solution of rows @ x = rhs (free variables set to 0), or None."""
    if not rows:
        return None
    ncols = len(rows[0])
    zero = field._zero.value
    aug = [field.values((*r, b)) for r, b in zip(rows, rhs)]
    reduced, pivots = _row_reduce(field, aug, ncols)
    # the rows below the pivots vanish on the first ncols columns
    if any(row[-1] != zero for row in reduced[len(pivots):]):
        return None
    x = [zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = reduced[r][-1]
    return field._wrap(x)
