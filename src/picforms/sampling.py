"""Seeded random generation of triples and orthogonal words.

Random triples over a finite field K = GF(q) are built from the divisor
side: draw closed points (an affine point together with its conjugates
over K), an optional multiplicity, and an optional part at infinity, then
assemble U as the product of the minimal polynomials, W by the Chinese
remainder theorem, Hensel lifting and matching the branch expansion at
infinity, and V by exact division.  A zero remainder in that division is
the proof of F = W^2 - U V, so the triple is built without a second
check; a configuration that leaves a remainder is simply redrawn.

A closed point of degree d is a random x in GF(q^d) with F(x) = y^2.
Its minimal polynomial U_i and the W_i of degree < d with W_i(x) = y come
from one linear solve over GF(p), by :func:`picforms.linalg._row_reduce`
on the augmented system: in the GF(p)-basis x^j e_l of GF(q^d), (e_l) the
image of K's power basis, the coordinates of x^d are the coefficients of
X^d - U_i, and those of y are the coefficients of W_i.  The system is
singular, a pivot is missing, exactly when x has degree below d over K,
and the point is then redrawn.  The polynomial arithmetic runs on raw coefficient
lists through the kernels of :mod:`picforms.poly`; elements are built
only for the returned triple.

All randomness flows through the caller's ``random.Random`` instance,
which keeps searches reproducible from their seed.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import LiftRejected, RationalsUnsupported, SearchExhausted
from .fields import FieldElement, _embedding
from .linalg import _row_reduce
from .ortho import (
    flip_matrix,
    reduction_matrix,
    scale_matrix,
    shift_matrix,
    swap_shift_matrix,
)
from .poly import (_add_coeffs, _crt_coeffs, _divmod_coeffs, _invert_mod_coeffs,
                   _pow_coeffs, _product_coeffs, _sub_coeffs)
from .triples import Triple


# configurations drawn by random_triple, and x values drawn per closed point,
# before giving up
MAX_ATTEMPTS = 400
CLOSED_POINT_TRIES = 40


def _random_closed_point(field, rng, d, curve):
    """(U_i, W_i mod U_i, y_is_zero) for a degree-d closed point, or None.

    U_i is the degree-d minimal polynomial over `field` of a random x in
    the degree-d extension with F(x) = y^2 there, and W_i(x) = y; both are
    raw coefficient lists.
    """
    big = field.extension(d)
    F = curve._raw_F(big)
    one = big._one.value
    mul = big._raw_mul
    m, p = field.m, field.p
    if d > 1:
        # the images of the power basis of `field`: e_0 = 1
        basis = [one] if m == 1 else _embedding(field, big)[0]
        prime = field._prime
    for _ in range(CLOSED_POINT_TRIES):
        x = big.random_element(rng).value
        pows = [one, x]
        for _ in range(max(d, len(F) - 1) - 1):
            pows.append(mul(pows[-1], x))
        r = big.sqrt(big.dot(F, pows[:len(F)]))
        if r is None:
            continue
        y = r.value
        if d == 1:
            if rng.random() < 0.5:
                y = big._raw_neg(y)
            return [big._raw_neg(x), one], [y] if r else [], not r
        # solve sum_(j,l) z_jl x^j e_l = x^d and = y over GF(p)
        cols = [pows[j] if l == 0 else mul(pows[j], basis[l])
                for j in range(d) for l in range(m)]
        n = d * m
        rows, pivots = _row_reduce(prime, [[col[i] for col in cols] + [pows[d][i], y[i]]
                                           for i in range(n)], n)
        if pivots != tuple(range(n)):
            continue  # x lies in a proper subfield
        top, w = [row[n] for row in rows], [row[n + 1] for row in rows]
        if rng.random() < 0.5:
            w = [-z % p for z in w]
        if m == 1:
            U_i = [-z % p for z in top] + [1]
        else:
            U_i = [tuple(-z % p for z in top[j:j + m]) for j in range(0, d * m, m)]
            U_i.append(field._one.value)
            w = [tuple(w[j:j + m]) for j in range(0, d * m, m)]
        zero = field._zero.value
        while w and w[-1] == zero:
            w.pop()
        return U_i, w, not r
    return None


def _hensel_square_root(field, W, U, e, F):
    """(W_e, U^e): W_e^2 = F (mod U^e) lifted from W^2 = F (mod U), on raw
    lists; needs W invertible mod U (the point is not a Weierstrass
    point).  A lift that fails its final check raises LiftRejected."""
    acc = _divmod_coeffs(field, W, U)[1]
    prec, step = 1, U
    while prec < e:
        prec = min(2 * prec, e)
        step = _pow_coeffs(field, U, prec)
        inv = _invert_mod_coeffs(
            field, _divmod_coeffs(field, _add_coeffs(field, acc, acc), step)[1], step)
        acc = _divmod_coeffs(field, _product_coeffs(
            field, _add_coeffs(field, _product_coeffs(field, acc, acc), F), inv), step)[1]
    # step = U^e now
    if _divmod_coeffs(field, _sub_coeffs(field, _product_coeffs(field, acc, acc), F),
                      step)[1]:
        raise LiftRejected("lifted W^2 - F is not divisible by U^%d" % e)
    return acc, step


def _complete_at_infinity(field, W0, U, k, F, s_top, s0):
    """W = W0 + U*S with the branch at infinity matched to multiplicity k,
    on raw lists.

    S's coefficients are solved top-down: the coefficient of X^(g+1+d+j)
    of W^2 - F is affine in s_j with constant slope 2*s_top (U is monic),
    so each step kills one coefficient exactly.  s_0 stays free (the
    representation shift) and is supplied by the caller.
    """
    d = len(U) - 1
    g1 = d + k  # = g + 1, the degree of W
    one = field._one.value
    S = [field._zero.value] * (k + 1)
    S[k] = s_top
    slope_inv = field._raw_inv(field._raw_add(s_top, s_top))
    for j in range(k - 1, 0, -1):
        W = _add_coeffs(field, W0, _product_coeffs(field, U, S))
        n = g1 + d + j
        # coefficient n of W^2 - F: sum of W_i W_(n-i) for n - g1 <= i <= g1
        c = field._raw_dot(W[n - g1:g1 + 1], W[g1:n - g1 - 1:-1], [F[n]], [one])
        S[j] = field._raw_neg(field._raw_mul(c, slope_inv))
    S[0] = s0
    return _add_coeffs(field, W0, _product_coeffs(field, U, S))


def _form(field, coeffs, genus):
    """The length g + 2 linear form of raw coefficients of degree <= g + 1."""
    return field._wrap(coeffs + [field._zero.value] * (genus + 2 - len(coeffs)))


def random_triple(curve, field, rng):
    """A pseudo-random valid triple over `field` (finite), seeded by `rng`;
    SearchExhausted when MAX_ATTEMPTS configurations all fail."""
    if field.p is None:
        raise RationalsUnsupported("random triples are sampled over finite fields")
    F = curve._raw_F(field)
    genus = curve.genus
    g1 = genus + 1
    zero, one = field._zero.value, field._one.value
    r_lead = field.sqrt(FieldElement(field, F[-1]))
    if r_lead is not None:
        r_lead = r_lead.value
    for _ in range(MAX_ATTEMPTS):
        k = rng.randint(0, g1) if r_lead is not None else 0
        remaining = g1 - k
        residues, moduli = [], []
        seen = set()
        failed = False
        while remaining > 0:
            d = rng.randint(1, remaining)
            pt = _random_closed_point(field, rng, d, curve)
            if pt is None:
                failed = True
                break
            U_i, W_i, y_zero = pt
            if tuple(U_i) in seen:
                failed = True
                break
            seen.add(tuple(U_i))
            e = 1
            if not y_zero and remaining >= 2 * d and rng.random() < 0.3:
                e = 2
            if e > 1:
                W_i, U_i = _hensel_square_root(field, W_i, U_i, e, F)
            residues.append(W_i)
            moduli.append(U_i)
            remaining -= d * e
        if failed:
            continue
        W0, U = _crt_coeffs(field, residues, moduli) if moduli else ([], [one])
        if k > 0:
            s_top = r_lead if rng.random() < 0.5 else field._raw_neg(r_lead)
            s0 = field.random_element(rng).value
            W = _complete_at_infinity(field, W0, U, k, F, s_top, s0)
        else:
            s0 = field.random_element(rng).value
            W = _add_coeffs(field, W0, _product_coeffs(field, U, [s0] if s0 != zero else []))
        V, rem = _divmod_coeffs(field, _sub_coeffs(field, _product_coeffs(field, W, W), F), U)
        if rem or not V or len(V) - 1 > g1:
            continue
        return Triple(curve, field, _form(field, U, genus), _form(field, V, genus),
                      _form(field, W, genus))
    raise SearchExhausted("sampler failed to produce a triple; curve has too few points")


# ---------------------------------------------------------------------------
# random group words

def _random_param(field, rng, nonzero=False):
    if field.p is not None:
        while True:
            x = field.random_element(rng)
            if x or not nonzero:
                return x
    while True:
        x = field.elem(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        if x or not nonzero:
            return x


def random_proper_word(field, rng, length=None):
    """A random product of proper generators."""
    if length is None:
        length = rng.randint(1, 5)
    acc = None
    for _ in range(length):
        kind = rng.randrange(4)
        if kind == 0:
            m = scale_matrix(_random_param(field, rng, nonzero=True))
        elif kind == 1:
            m = shift_matrix(_random_param(field, rng))
        elif kind == 2:
            m = swap_shift_matrix(_random_param(field, rng))
        else:
            m = reduction_matrix(_random_param(field, rng))
        acc = m if acc is None else m @ acc
    return acc


def random_orthogonal_word(field, rng, improper=False):
    w = random_proper_word(field, rng)
    if improper:
        w = flip_matrix(field) @ w
    return w


def random_b_word(field, rng, length=None):
    """A random product of scale and shift generators only."""
    if length is None:
        length = rng.randint(1, 5)
    acc = None
    for _ in range(length):
        if rng.randrange(2):
            m = scale_matrix(_random_param(field, rng, nonzero=True))
        else:
            m = shift_matrix(_random_param(field, rng))
        acc = m if acc is None else m @ acc
    return acc
