"""Deciding the relation between the divisor classes of two triples.

Two triples on one curve represent equal divisor classes exactly when a
proper orthogonal matrix of the pairing w^2 - u v carries one to the
other.  That matrix is written down in closed form from a frame, and no
search runs.  The verdict is one of

    equal | equal-and-self-conjugate | conjugate-only | distinct

and each positive verdict carries its proper witness matrix, checked once
(orthogonality, determinant, action) before it is returned.

The frame.  Let T be a triple's 3 x (g+2) coefficient matrix, whose
column i is (u_i, v_i, w_i), and Omega the matrix of w^2 - u v.  On t1
:func:`_frame` takes the first index triple I, in lexicographic order,
whose minor delta1 = det T1[:, I] is nonzero, and M1 = T1[:, I].  If every
3x3 minor vanishes (rank 2), it takes the first column pair (i, j) whose
columns a, b give an invertible M1 = [a b n(a, b)], with
n(a, b) = Omega^-1 (a x b).  The cofactor identity gives
n(R a, R b) = det R * R n(a, b) for every orthogonal R, so a proper R with
R T1 = T2 carries M1 to M2, the same frame built on the same columns of
T2.  Hence the witness, if there is one, is

    R = M2 adj(M1) / det M1,

and it is unique: a failed check proves that there is none.  The
conjugate witness is the same formula onto conj(t2) = (u2, v2, -w2).  In
rank 2 the first independent pair already gives an invertible frame:
det [a b n(a, b)] is the dual form of Omega at a x b, which vanishes only
when the form is degenerate on the plane of the columns, and then
F = w^2 - u v would be a constant times a square, not squarefree.

The sign rule.  act(R, t) has matrix R T, so det (R T1)[:, I] =
det R * delta1.  In rank 3 a proper witness onto t2 needs
delta2 = det T2[:, I] = delta1, and one onto conj(t2), whose minor is
-delta2, needs delta2 = -delta1; any other delta2 admits neither, and no
witness is built.  Rank 2 tries both.

The check.  With e = det M1 and A = M2 adj(M1) = e R, the witness is
accepted when A^T Omega A = e^2 Omega, det A = e^3 and A T1 = e T2, with
no division.  On GF(p) and on the integer kernel this runs in inline int
arithmetic (:func:`_witness_int`), reduced mod p over GF(p) and exact over
the integers; over GF(p^m), m >= 2, it runs on the field's vector kernel
on R = A e^-1 (:func:`_witness_vector`).  ``FieldElement`` values are
built only for the witnesses returned.  The witness is rational in the
entries of the triples, so it lies over their field, and the search
domain named by ``same_class(..., extension=...)`` is reported with the
verdict but cannot change it.

Over QQ both triples are first multiplied by one common denominator D.
The action is linear, so this changes neither the verdict nor the
witness, and the whole decision runs on the integer kernel
:data:`picforms.fields.ZZ` (the GF(p) sums without the reduction mod p):
no ``Fraction`` is built until the returned entries A_ij / e.  Both
minors scale by D^3, so the sign rule holds on the cleared triples.

``same_class`` turns most unrelated pairs away on one Gram entry, twice
S_02, before it builds anything: a witness forces equal Gram matrices,
and the check decides the rest (``recover_transform``, which reports a
mismatch, compares twice the entries with j >= i + 2, the whole invariant
on one curve; see :func:`picforms.quadform._twice_gram`).  Every class
decision, here and in :mod:`picforms.galois`, picks its frame with
:func:`_frame`; :func:`_witnesses` applies the sign rule and yields the
witness onto t2 and then the one onto conj(t2).

``recover_transform`` builds the constructive orbit statement for the
full orthogonal group from the same two witnesses: equal Gram matrices
put t2 in the orthogonal orbit of t1, and the improper flip
(u, v, w) -> (u, v, -w) sends a class to its conjugate, so t2 is the
image of t1 under a proper witness or under the flip times one onto
conj(t2).

``orbit_oracle`` is the independent brute-force check: it exhausts the
full enumerated proper group over a small field.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import GramMismatch, RationalsUnsupported, SearchExhausted
from .fields import QQ, ZZ, Field, FieldElement, _cleared, common_field, embed
from .linalg import _mat_mul_raw
from .ortho import (
    OrthogonalMatrix,
    _classify_raw,
    _det_raw,
    enumerate_special_orthogonal,
    reduction_matrix,
    swap_matrix,
)
from .quadform import _twice_gram
from .triples import _canonical_forms, act

KIND_EQUAL = "equal"
KIND_BOTH = "equal-and-self-conjugate"
KIND_CONJ = "conjugate-only"
KIND_DISTINCT = "distinct"


@dataclass(frozen=True)
class ClassRelation:
    kind: str
    witness: OrthogonalMatrix = None
    conjugate_witness: OrthogonalMatrix = None
    field: Field = None
    extension: int = 1

    @functools.cached_property
    def search_domain(self):
        """The field in the role of the algebraic closure, built on first
        read: the extension of relative degree ``extension`` over the
        triples' field, or the rationals themselves."""
        if self.field.p is None:
            return self.field
        return self.field.extension(self.extension)


def reduction_step(t, a):
    """act(reduction_matrix(a), t).

    The reduced u never vanishes on a valid triple: that would make
    F = (w - a v)^2, which is not squarefree.
    """
    field = t.field
    a = field.elem(a) if not hasattr(a, "field") else embed(a, field)
    return act(reduction_matrix(a), t)


def swap_step(t):
    """act(swap_matrix, t) = (v, u, -w)."""
    return act(swap_matrix(t.field), t)


# -- the frame witness, on raw values ---------------------------------------------

def _det3(rows, p):
    """The determinant of a 3x3 matrix of ints, reduced mod p unless p is None."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
    d = a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0)
    return d % p if p else d


def _det(kernel, rows):
    """The determinant of a raw 3x3 matrix: in inline int arithmetic on
    GF(p) and the integers, on the vector kernel otherwise."""
    if type(rows[0][0]) is int:
        return _det3(rows, kernel.p)
    return _det_raw(kernel, rows)


def _cross(kernel, x, y):
    """The cross product of two raw 3-vectors."""
    (x0, x1, x2), (y0, y1, y2) = x, y
    if type(x0) is int:
        z = [x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0]
        return [c % kernel.p for c in z] if kernel.p else z
    dot = kernel._raw_dot
    return [dot((x1,), (y2,), (x2,), (y1,)), dot((x2,), (y0,), (x0,), (y2,)),
            dot((x0,), (y1,), (x1,), (y0,))]


def _normal(kernel, a, b):
    """n(a, b) = Omega^-1 (a x b), Omega^-1 having rows (0, -2, 0),
    (-2, 0, 0) and (0, 0, 1)."""
    c0, c1, c2 = _cross(kernel, a, b)
    neg, add = kernel._raw_neg, kernel._raw_add
    return [neg(add(c1, c1)), neg(add(c0, c0)), c2]


def _adjugate(kernel, cols):
    """adj(M) for the 3x3 matrix M with the raw columns a, b, c: its rows
    are b x c, c x a and a x b."""
    a, b, c = cols
    return [_cross(kernel, b, c), _cross(kernel, c, a), _cross(kernel, a, b)]


def _frame_columns(kernel, forms, index):
    """The three columns of the frame on the columns ``index`` of the raw
    forms: those columns for three indices, and a, b, n(a, b) for two."""
    cols = [[f[i] for f in forms] for i in index]
    if len(cols) == 2:
        cols.append(_normal(kernel, *cols))
    return cols


def _frame(kernel, forms):
    """(index, e): the columns of T that the frame of the raw forms is built
    on, three in rank 3 and two in rank 2, and its determinant e != 0
    (see the module docstring)."""
    zero = kernel._zero.value
    for size in (3, 2):
        for index in combinations(range(len(forms[0])), size):
            e = _det(kernel, _frame_columns(kernel, forms, index))
            if e != zero:
                return index, e


def _witness(kernel, frame, t1, t2):
    """The proper witness carrying the raw forms t1 onto t2, built on t1's
    frame and checked once, or None when the check fails, which proves
    that there is none.  Int-valued kernels, GF(p) and the integers, take
    :func:`_witness_int`; GF(p^m), m >= 2, takes :func:`_witness_vector`."""
    if type(t1[0][0]) is int:
        return _witness_int(kernel, frame, t1, t2)
    return _witness_vector(kernel, frame, t1, t2)


def _witness_int(kernel, frame, t1, t2):
    """:func:`_witness` in inline int arithmetic, reduced mod p over GF(p)
    and exact over the integer kernel.

    A = M2 adj(M1) is checked for A^T Omega A = e^2 Omega (six entries,
    the diagonal ones halved), det A = e^3 and A t1 = e t2, which over
    GF(p) is the check of R itself.  Each returned entry is A_ij / e: the
    residue A_ij e^-1 over GF(p), the rational A_ij / e over the integers.
    """
    index, e = frame
    p = kernel.p
    r0, r1, r2 = _adjugate(kernel, _frame_columns(kernel, t1, index))
    # row i of A is sum_k M2[i][k] adj(M1)[k]; zip(*columns) gives the rows of M2
    rows = [[x * y0 + y * y1 + z * y2 for y0, y1, y2 in zip(r0, r1, r2)]
            for x, y, z in zip(*_frame_columns(kernel, t2, index))]
    if p:
        rows = [[x % p for x in row] for row in rows]
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
    checks = [a0 * b0 - c0 * c0, a1 * b1 - c1 * c1, c2 * c2 - a2 * b2 - e * e,
              2 * c0 * c1 - a0 * b1 - a1 * b0 + e * e, 2 * c0 * c2 - a0 * b2 - a2 * b0,
              2 * c1 * c2 - a1 * b2 - a2 * b1, _det3(rows, None) - e * e * e]
    if any([x % p for x in checks] if p else checks):
        return None
    # the rows of A t1 - e t2, interleaved by column
    diff = [x for u, v, w, u2, v2, w2 in zip(*t1, *t2) for x in (
        a0 * u + a1 * v + a2 * w - e * u2, b0 * u + b1 * v + b2 * w - e * v2,
        c0 * u + c1 * v + c2 * w - e * w2)]
    if any([x % p for x in diff] if p else diff):
        return None
    field, ei = (kernel, pow(e, -1, p)) if p else (QQ, None)
    return OrthogonalMatrix._trusted(tuple([tuple([
        FieldElement(field, x * ei % p if p else Fraction(x, e)) for x in row]) for row in rows]),
        field, True)


def _witness_vector(field, frame, t1, t2):
    """:func:`_witness` on a field's vector kernel: R = M2 (adj(M1) e^-1),
    checked for R^T Omega R = Omega, det R = 1 and R t1 = t2."""
    index, e = frame
    ei = (field._raw_inv(e),)
    adj = [field._raw_comb(ei, (row,)) for row in
           _adjugate(field, _frame_columns(field, t1, index))]
    rows = _mat_mul_raw(field, list(zip(*_frame_columns(field, t2, index))), adj)
    if _classify_raw(field, rows) != "proper" or _mat_mul_raw(field, rows, t1) != t2:
        return None
    return OrthogonalMatrix._trusted(tuple(map(field._wrap, rows)), field, True)


def _conjugate(field, forms):
    """The raw forms of conj(t), (u, v, -w)."""
    u, v, w = forms
    return u, v, field._raw_comb((field._raw_neg(field._one.value),), (w,))


def _signs(kernel, frame, r2):
    """(direct, conj): whether the sign rule admits a proper witness from
    the frame's forms onto r2 and onto conj(r2); both in rank 2."""
    index, e = frame
    if len(index) == 2:
        return True, True
    d2 = _det(kernel, _frame_columns(kernel, r2, index))
    return d2 == e, d2 == kernel._raw_neg(e)


def _witnesses(kernel, r1, r2):
    """Yield the checked proper witness of the raw forms r1 onto r2, then
    the one onto conj(r2): each None when the sign rule rules it out or
    the check fails, and each built only when asked for."""
    frame = _frame(kernel, r1)
    direct, conj = _signs(kernel, frame, r2)
    yield _witness(kernel, frame, r1, r2) if direct else None
    yield _witness(kernel, frame, r1, _conjugate(kernel, r2)) if conj else None


def _on_common_field(t1, t2):
    """t1 and t2 over their common field; they must lie on one curve."""
    if t1.curve != t2.curve:
        raise ValueError("the triples live on different curves")
    if t1.field != t2.field:
        field = common_field(t1.field, t2.field)
        t1, t2 = t1.embedded(field), t2.embedded(field)
    return t1, t2


def _decision_forms(t1, t2):
    """(kernel, r1, r2): the kernel and raw forms the class decision runs
    on.  Over QQ that is the integer kernel, on the forms of t1 and t2
    times one common denominator D; the action is linear, so scaling both
    triples by D changes neither the verdict nor the witness.  Any other
    field decides on its own kernel and raw forms."""
    field = t1.field
    r1, r2 = t1._raw_forms(), t2._raw_forms()
    if field is not QQ:
        return field, r1, r2
    _, forms = _cleared(r1 + r2)
    return ZZ, forms[:3], forms[3:]


def same_class(t1, t2, extension=2):
    """The relation between the divisor classes of t1 and t2.

    ``extension`` names the search domain reported with the verdict (the
    extension of that relative degree over the triples' common field, or
    the rationals themselves), which is built only when it is read.
    Verdicts and witnesses do not depend on it: the witness is the frame
    formula of the module docstring, rational in the triples' entries, so
    witnesses come out over the triples' field.  It must be an ``int``
    >= 1, not a ``bool``; anything else raises ValueError before any work
    is done.
    """
    if type(extension) is not int or extension < 1:
        raise ValueError("extension degree must be an int >= 1, got %r" % (extension,))
    t1, t2 = _on_common_field(t1, t2)
    field = t1.field
    if field.p is None and field.m > 1:
        raise RationalsUnsupported(
            "the class search takes triples over QQ or a finite field")
    kernel, r1, r2 = _decision_forms(t1, t2)
    # twice S_02, 2 w0 w2 - u0 v2 - u2 v0, turns most unrelated pairs away
    s1, s2 = (kernel._raw_dot((w[0], w[0]), (w[2], w[2]), (u[0], u[2]), (v[2], v[0]))
              for u, v, w in (r1, r2))
    if s1 != s2:
        return ClassRelation(KIND_DISTINCT, field=field, extension=extension)
    witness, conj_witness = _witnesses(kernel, r1, r2)
    if witness is None:
        kind = KIND_DISTINCT if conj_witness is None else KIND_CONJ
    else:
        kind = KIND_EQUAL if conj_witness is None else KIND_BOTH
    return ClassRelation(kind, witness, conj_witness, field, extension)


def recover_transform(t1, t2):
    """A verified orthogonal matrix A with act(A, t1) = t2.

    Requires gram(t1) = gram(t2) exactly.  The result is the proper
    witness of t1 onto t2 when there is one, and otherwise the flip times
    the proper witness of t1 onto conj(t2); either way it lies over the
    triples' common field, and in rank 3 it is the unique such matrix.
    """
    t1, t2 = _on_common_field(t1, t2)
    kernel, r1, r2 = _decision_forms(t1, t2)
    if _twice_gram(kernel, *r1, 2) != _twice_gram(kernel, *r2, 2):
        raise GramMismatch("the triples have different Gram matrices")
    witnesses = _witnesses(kernel, r1, r2)
    witness = next(witnesses)
    if witness is not None:
        return witness
    witness = next(witnesses)
    if witness is None:
        # excluded: the Gram matrix is a complete invariant of the full orbit
        raise SearchExhausted("equal Gram matrices but neither orbit matched")
    # the flip (u, v, w) -> (u, v, -w) times the witness
    top, middle, bottom = witness.rows
    return OrthogonalMatrix._trusted((top, middle, tuple([-x for x in bottom])),
                                     witness.field, False)


def orbit_oracle(t1, t2):
    """Exhaustive classification over the full enumerated proper group.

    Independent of the frame formula: every group element is applied
    directly.  Only for small finite fields.
    """
    t1, t2 = _on_common_field(t1, t2)
    field = t1.field
    group = enumerate_special_orthogonal(field)
    r1, r2 = t1._raw_forms(), t2._raw_forms()
    key2 = _canonical_forms(field, *r2)[0]
    key2c = _canonical_forms(field, *_conjugate(field, r2))[0]
    equal = False
    conj = False
    for m in group:
        rows = [field.values(row) for row in m.rows]
        key = _canonical_forms(field, *_mat_mul_raw(field, rows, r1))[0]
        if key == key2:
            equal = True
        if key == key2c:
            conj = True
        if equal and conj:
            break
    if equal and conj:
        return KIND_BOTH
    if equal:
        return KIND_EQUAL
    if conj:
        return KIND_CONJ
    return KIND_DISTINCT
