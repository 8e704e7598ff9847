"""Seeded random generation of triples and orthogonal words.

Random triples over a finite field are built from the divisor side: draw
closed points (an affine point together with its conjugates over the
coefficient field), an optional multiplicity, and an optional part at
infinity, then assemble U by multiplying minimal polynomials, W by
Lagrange interpolation / Hensel lifting / matching the branch expansion
at infinity, and V by exact division.  A zero remainder in that division
is the proof of F = W^2 - U V, so the triple is built without a second
check; a configuration that leaves a remainder is simply redrawn.

All randomness flows through the caller's ``random.Random`` instance,
which keeps searches reproducible from their seed.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .curves import poly_to_form
from .errors import RationalsUnsupported
from .fields import unembed
from .ortho import (
    flip_matrix,
    reduction_matrix,
    scale_matrix,
    shift_matrix,
    swap_shift_matrix,
)
from .poly import Polynomial, crt, invert_mod
from .triples import Triple


@functools.lru_cache(maxsize=None)
def _embedded_F(curve, field):
    return curve.F.embedded(field)


def _random_closed_point(field, rng, d, F_big, tries=40):
    """(U_i, W_i mod U_i, y_is_zero) for a degree-d closed point, or None.

    U_i is the degree-d minimal polynomial over `field` of a random x in
    the degree-d extension with F(x) a square there; W_i interpolates the
    conjugate orbit of (x, y).
    """
    big = field.extension(d)
    k = field.m  # x -> x^q is the k-th power of Frobenius
    for _ in range(tries):
        x = big.random_element(rng)
        xs = [x]
        while True:
            nxt = xs[-1].frobenius(k)
            if nxt == x:
                break
            xs.append(nxt)
        if len(xs) != d:
            continue
        y = big.sqrt(F_big(x))
        if y is None:
            continue
        if rng.random() < 0.5:
            y = -y
        ys = [y]
        for _ in range(d - 1):
            ys.append(ys[-1].frobenius(k))
        # minimal polynomial of x over `field`
        U_big = Polynomial.one(big)
        for xi in xs:
            U_big = U_big * Polynomial(big, (-xi, big.one()))
        U_i = Polynomial(field, tuple(unembed(c, field) for c in U_big.coeffs))
        # Lagrange interpolation of the orbit, coefficients descend to `field`
        W_big = Polynomial.zero(big)
        for j, (xj, yj) in enumerate(zip(xs, ys)):
            num = Polynomial.one(big)
            den = big.one()
            for l, xl in enumerate(xs):
                if l == j:
                    continue
                num = num * Polynomial(big, (-xl, big.one()))
                den = den * (xj - xl)
            W_big = W_big + num * (yj / den)
        W_i = Polynomial(field, tuple(unembed(c, field) for c in W_big.coeffs))
        return U_i, W_i, not y
    return None


def _hensel_square_root(W, U, e, F):
    """Lift W with W^2 = F (mod U) to the same congruence mod U^e; needs W
    invertible mod U (the point is not a Weierstrass point)."""
    modulus = U ** e
    acc = W % U
    prec = 1
    while prec < e:
        prec = min(2 * prec, e)
        step = U ** prec
        inv = invert_mod((acc + acc) % step, step)
        acc = ((acc * acc + F) * inv) % step
    assert ((acc * acc - F) % modulus).is_zero
    return acc


def _complete_at_infinity(W0, U, k, F, s_top, s0):
    """W = W0 + U*S with the branch at infinity matched to multiplicity k.

    S's coefficients are solved top-down: the coefficient of X^(g+1+d+j)
    of W^2 - F is affine in s_j with constant slope 2*s_top, so each step
    kills one coefficient exactly.  s_0 stays free (the representation
    shift) and is supplied by the caller.
    """
    field = W0.field
    d = U.degree
    g1 = d + k  # = g + 1
    s_coeffs = [field.zero()] * (k + 1)
    s_coeffs[k] = s_top
    slope_inv = (s_top + s_top).inverse()
    for j in range(k - 1, 0, -1):
        W = W0 + U * Polynomial(field, s_coeffs)
        c = (W * W - F)[g1 + d + j]
        s_coeffs[j] = -c * slope_inv
    s_coeffs[0] = s0
    return W0 + U * Polynomial(field, s_coeffs)


def random_triple(curve, field=None, rng=None, max_attempts=400):
    """A pseudo-random valid triple over `field` (finite), seeded by `rng`."""
    if field is None:
        field = curve.field
    if field.p is None:
        raise RationalsUnsupported("random triples are sampled over finite fields")
    F = _embedded_F(curve, field)
    genus = curve.genus
    g1 = genus + 1
    lead = F.leading()
    r_lead = field.sqrt(lead)
    for _ in range(max_attempts):
        k = rng.randint(0, g1) if r_lead is not None else 0
        remaining = g1 - k
        parts = []
        seen = set()
        failed = False
        while remaining > 0:
            d = rng.randint(1, remaining)
            pt = _random_closed_point(field, rng, d, _embedded_F(curve, field.extension(d)))
            if pt is None:
                failed = True
                break
            U_i, W_i, y_zero = pt
            if U_i in seen:
                failed = True
                break
            seen.add(U_i)
            e = 1
            if not y_zero and remaining >= 2 * d and rng.random() < 0.3:
                e = 2
            if e > 1:
                W_i = _hensel_square_root(W_i, U_i, e, F)
            parts.append((U_i ** e, W_i))
            remaining -= d * e
        if failed:
            continue
        U = Polynomial.one(field)
        for U_e, _ in parts:
            U = U * U_e
        if parts:
            W0 = crt([w for _, w in parts], [u for u, _ in parts])
        else:
            W0 = Polynomial.zero(field)
        if k > 0:
            s_top = r_lead if rng.random() < 0.5 else -r_lead
            W = _complete_at_infinity(W0, U, k, F, s_top, field.random_element(rng))
        else:
            W = W0 + U * Polynomial(field, (field.random_element(rng),))
        num = W * W - F
        V, rem = divmod(num, U)
        if not rem.is_zero or V.is_zero or V.degree > g1:
            continue
        return Triple(curve, field, poly_to_form(U, genus), poly_to_form(V, genus),
                      poly_to_form(W, genus))
    raise RuntimeError("sampler failed to produce a triple; curve has too few points")


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
