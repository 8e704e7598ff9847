"""Exact univariate polynomials over any picforms field.

Coefficients are stored lowest degree first with no trailing zeros; the
zero polynomial is the empty tuple and has degree -1 by convention, which
keeps every degree bound uniform.  The operators +, -, *, //, %, divmod
and ** are overloaded, polynomials are callable (evaluation), and the gcd
is always returned monic.  Each coefficient of a product is one call of
the field's sum-of-products kernel, so it is normalised once.

Below the public API there is one representation, raw coefficient
lists, and one kernel per algorithm on them: sum, difference, product,
power (optionally modulo a polynomial), division, derivative, gcd,
extended gcd, inverse modulo a polynomial, the Chinese remainder chain,
the squarefree test gcd(A, A') = 1, distinct roots and multiplicity.
``Polynomial``, ``gcd``, ``is_squarefree`` and ``roots_in_field`` wrap
them; the sampler, :mod:`picforms.fields` (Rabin's test, the inverse in
GF(p^m), the embedding root) and the squarefree certificate over QQ call
them directly.

Root finding uses gcd(f, X^q - X) and Cantor-Zassenhaus splitting over
finite fields, polylogarithmic in q, and the rational-root bound on the
cleared integers over QQ; both return multiplicities.  There is no
general factorization into irreducibles here.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .errors import (DescriptorMismatch, DivisionByZero, RationalsUnsupported,
                     ZeroPolynomial)
from .fields import GF, QQ, FieldElement, _cleared, embed


class Polynomial:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        out = []
        for c in coeffs:
            if isinstance(c, FieldElement):
                if c.field != field:
                    raise DescriptorMismatch("coefficient field mismatch")
                out.append(c)
            else:
                out.append(field.elem(c))
        while out and not out[-1]:
            out.pop()
        self.field = field
        self.coeffs = tuple(out)

    @classmethod
    def _trusted(cls, field, coeffs):
        # internal: coefficients already in `field`, with a nonzero last one
        self = object.__new__(cls)
        self.field = field
        self.coeffs = coeffs
        return self

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (field.one(),))

    @classmethod
    def x(cls, field):
        return cls(field, (field.zero(), field.one()))

    # -- structure ----------------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    def __getitem__(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero()

    def leading(self):
        if not self.coeffs:
            raise ZeroPolynomial("leading coefficient of 0")
        return self.coeffs[-1]

    def monic(self):
        if not self.coeffs:
            raise ZeroPolynomial("monic form of 0")
        lc = self.coeffs[-1]
        if lc == self.field.one():
            return self
        inv = lc.inverse()
        return Polynomial(self.field, tuple(c * inv for c in self.coeffs))

    def derivative(self):
        field = self.field
        return Polynomial._trusted(field, field._wrap(_derivative_coeffs(field, self._raw())))

    def embedded(self, field):
        if field == self.field:
            return self
        return Polynomial(field, tuple(embed(c, field) for c in self.coeffs))

    # -- arithmetic ------------------------------------------------------------------

    def _check(self, other):
        if isinstance(other, Polynomial):
            if other.field != self.field:
                raise DescriptorMismatch("polynomial field mismatch")
            return other
        if isinstance(other, (int, Fraction, FieldElement)):
            return Polynomial(self.field, (self.field.elem(other),))
        return None

    def _raw(self):
        return [c.value for c in self.coeffs]

    def __add__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        field = self.field
        return Polynomial._trusted(field, field._wrap(_add_coeffs(field, self._raw(), o._raw())))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        field = self.field
        return Polynomial._trusted(field, field._wrap(_sub_coeffs(field, self._raw(), o._raw())))

    def __rsub__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Polynomial(self.field, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            c = self.field.elem(other)
            return Polynomial(self.field, tuple(a * c for a in self.coeffs))
        o = self._check(other)
        if o is None:
            return NotImplemented
        if self.is_zero or o.is_zero:
            return Polynomial.zero(self.field)
        field = self.field
        prod = _product_coeffs(field, self._raw(), o._raw())
        # the leading coefficient is a product of two nonzero ones
        return Polynomial._trusted(field, field._wrap(prod))

    __rmul__ = __mul__

    def __divmod__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise DivisionByZero("polynomial division by zero")
        field = self.field
        q, rem = _divmod_coeffs(field, self._raw(), o._raw())
        return (Polynomial._trusted(field, field._wrap(q)),
                Polynomial._trusted(field, field._wrap(rem)))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        field = self.field
        return Polynomial._trusted(field, field._wrap(_pow_coeffs(field, self._raw(), n)))

    def __call__(self, x):
        x = self.field.elem(x) if not isinstance(x, FieldElement) else x
        if x.field != self.field:
            raise DescriptorMismatch("evaluation point outside coefficient field")
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- identity -----------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.field == other.field and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("%s*X" % c)
            else:
                parts.append("%s*X^%d" % (c, i))
        return " + ".join(reversed(parts))


def _product_coeffs(field, a, b, c=(), d=()):
    """The raw coefficients of A B - C D, lowest degree first, from raw
    coefficient sequences a, b and optional c, d of the same lengths; []
    when a or b is empty.

    Each coefficient is one call of the field's sum-of-products kernel,
    sum a_i b_(k-i) - sum c_i d_(k-i), so it is reduced once.
    """
    la, lb = len(a), len(b)
    if not la or not lb:
        return []
    dot = field._raw_dot
    br, dr = b[::-1], d[::-1]
    out = []
    for k in range(la + lb - 1):
        lo, hi = max(0, k - lb + 1), min(k + 1, la)
        # b_(k-i) for i in [lo, hi) is br[lb - 1 - k + i]
        rev = slice(lb - 1 - k + lo, lb - 1 - k + hi)
        out.append(dot(a[lo:hi], br[rev], c[lo:hi], dr[rev]))
    return out


def gcd(f, g):
    """Monic greatest common divisor."""
    field = f.field
    g = f._check(g)
    return Polynomial._trusted(field, field._wrap(_gcd_coeffs(field, f._raw(), g._raw())))


# ---------------------------------------------------------------------------
# kernels on raw coefficient lists: raw values of `field`, lowest degree
# first, no trailing zeros; the operators and gcd above wrap some of them

def _add_coeffs(field, a, b):
    """The raw coefficients of A + B."""
    return _zip_coeffs(field, field._raw_add, a, b)


def _sub_coeffs(field, a, b):
    """The raw coefficients of A - B."""
    return _zip_coeffs(field, field._raw_sub, a, b)


def _zip_coeffs(field, op, a, b):
    zero = field._zero.value
    la, lb = len(a), len(b)
    out = [op(a[i] if i < la else zero, b[i] if i < lb else zero)
           for i in range(max(la, lb))]
    while out and out[-1] == zero:
        out.pop()
    return out


def _pow_coeffs(field, a, n, mod=None):
    """The raw coefficients of A^n, n >= 0, by square-and-multiply from the
    top bit; with a nonzero modulus M, of A^n mod M, reduced after every
    product."""
    if not a:
        return [] if n else [field._one.value]
    out = [field._one.value]
    for bit in bin(n)[2:]:
        out = _product_coeffs(field, out, out)
        if bit == "1":
            out = _product_coeffs(field, out, a)
        if mod is not None:
            out = _divmod_coeffs(field, out, mod)[1]
            if not out:
                return out  # M divides A^k, so every later power too
    return out


def _divmod_coeffs(field, a, b):
    """(quotient, remainder) of A by the nonzero B: one inverse of B's
    leading coefficient, none when B is monic, then one product and one
    difference per coefficient and step."""
    zero = field._zero.value
    mul, sub = field._raw_mul, field._raw_sub
    rem = list(a)
    db = len(b) - 1
    inv = None if b[-1] == field._one.value else field._raw_inv(b[-1])
    q = [zero] * max(len(rem) - db, 0)
    while len(rem) - 1 >= db and rem:
        k = len(rem) - 1 - db
        f = rem[-1] if inv is None else mul(rem[-1], inv)
        q[k] = f  # the top one, set first, is nonzero
        for i, bc in enumerate(b):
            rem[i + k] = sub(rem[i + k], mul(f, bc))
        while rem and rem[-1] == zero:
            rem.pop()
    return q, rem


def _gcd_coeffs(field, a, b):
    """The monic gcd of A and B (not both zero), by Euclid's algorithm."""
    if not a and not b:
        raise ZeroPolynomial("gcd(0, 0)")
    while b:
        a, b = b, _divmod_coeffs(field, a, b)[1]
    mul, lc = field._raw_mul, field._raw_inv(a[-1])
    return [mul(c, lc) for c in a]


def _bezout_coeffs(field, a, b):
    """(d, s) with d the monic gcd of A and B (not both zero) and
    d = s A (mod B), by the extended Euclidean algorithm."""
    if not a and not b:
        raise ZeroPolynomial("extended gcd of 0 and 0")
    if len(a) < len(b):
        # the first division would only swap the pair: A = 0 B + A
        r0, r1, s0, s1 = b, a, [], [field._one.value]
    else:
        r0, r1, s0, s1 = a, b, [field._one.value], []
    while r1:
        q, r = _divmod_coeffs(field, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _sub_coeffs(field, s0, _product_coeffs(field, q, s1))
    mul, lc = field._raw_mul, field._raw_inv(r0[-1])
    return [mul(c, lc) for c in r0], [mul(c, lc) for c in s0]


def _invert_mod_coeffs(field, a, m):
    """The inverse of A modulo M; raises DivisionByZero if they share a factor.

    The Bezout coefficient s is already reduced: the extended Euclidean
    algorithm gives deg s < deg M - deg d for a nonconstant M, and s = 0
    for a constant one.
    """
    d, s = _bezout_coeffs(field, a, m)
    if len(d) != 1:
        raise DivisionByZero("%r is not invertible mod %r over %s" % (a, m, field.label()))
    return s


def _crt_coeffs(field, residues, moduli):
    """(W, M): M the product of the pairwise coprime moduli, in order, and
    W mod M the residue congruent to residues[i] mod moduli[i]."""
    acc, mod = _divmod_coeffs(field, residues[0], moduli[0])[1], moduli[0]
    for r, m in zip(residues[1:], moduli[1:]):
        delta = _divmod_coeffs(field, _sub_coeffs(field, r, acc), m)[1]
        lift = _divmod_coeffs(field, _product_coeffs(
            field, delta, _invert_mod_coeffs(field, mod, m)), m)[1]
        acc = _add_coeffs(field, acc, _product_coeffs(field, mod, lift))
        mod = _product_coeffs(field, mod, m)
    return _divmod_coeffs(field, acc, mod)[1], mod


# the primes of the squarefree certificate over QQ, in the order tried: the
# first four above 10^4.  A squarefree F fails the certificate only when the
# one prime tried divides its discriminant, and inverses mod a prime this
# small stay cheap.
_CERTIFICATE_PRIMES = (10007, 10009, 10037, 10039)


def _derivative_coeffs(field, a):
    """The raw coefficients of A'."""
    mul, zero = field._raw_mul, field._zero.value
    out = [mul(field._scalar(i), a[i]) for i in range(1, len(a))]
    while out and out[-1] == zero:
        out.pop()  # in characteristic p the top term may vanish
    return out


def _squarefree_coeffs(field, a):
    """True iff gcd(A, A') = 1 for the nonzero raw A.

    Valid over the perfect fields used here: when A' = 0, A is a p-th
    power, and the gcd is A itself, nonconstant unless A is.
    """
    return len(_gcd_coeffs(field, a, _derivative_coeffs(field, a))) == 1


def is_squarefree(f):
    """True iff gcd(f, f') is constant (:func:`_squarefree_coeffs`).

    Over QQ a certificate mod p comes first (:func:`_squarefree_prime`).
    It only ever proves squarefreeness; when it does not, the exact test
    over QQ decides, as it does over every other field.
    """
    if f.is_zero:
        raise ZeroPolynomial("squarefree test on 0")
    if f.field is QQ and _squarefree_prime(f) is not None:
        return True
    return _squarefree_coeffs(f.field, f._raw())


def _squarefree_prime(f):
    """The prime p that certifies the nonconstant f over QQ squarefree, or
    None.

    F is f cleared to integer coefficients, and p the first prime of
    ``_CERTIFICATE_PRIMES`` that does not divide its leading coefficient.
    Then F mod p has the degree of F, and gcd(F, F') = 1 over GF(p) means
    that p does not divide the discriminant of F, which is therefore
    nonzero: F, and so f, is squarefree.  Only that one prime is tried, so
    a polynomial that is not squarefree costs one gcd over GF(p) before the
    exact one.
    """
    _, (a,) = _cleared((f._raw(),))
    for p in _CERTIFICATE_PRIMES:
        if a[-1] % p:
            break
    else:
        return None
    return p if _squarefree_coeffs(GF(p), [x % p for x in a]) else None


def _divisors(n):
    n = abs(n)
    return sorted({d for k in range(1, math.isqrt(n) + 1) if n % k == 0 for d in (k, n // k)})


def roots_in_field(f, field=None):
    """All roots of f in the given field, with multiplicities.

    Returns a list of (root, multiplicity) pairs sorted by the canonical
    element order.  Over a finite field the roots come from
    :func:`_distinct_roots`, over QQ from :func:`_rational_roots`; each
    multiplicity from :func:`_multiplicity`.
    """
    if f.is_zero:
        raise ZeroPolynomial("roots of 0")
    if field is None:
        field = f.field
    if field != f.field:
        f = f.embedded(field)
    if field.p is None and field.m > 1:
        raise RationalsUnsupported("root finding inside extensions of QQ is not supported")
    a = f._raw()
    roots = _distinct_roots(field, a) if field.p is not None else _rational_roots(a)
    return [(FieldElement(field, r), _multiplicity(field, a, r)) for r in roots]


def _distinct_roots(field, a):
    """The distinct roots of the nonzero raw A in the finite field GF(q),
    as raw values in canonical (index) order.

    g = gcd(A, X^q - X) is the product of the distinct linear factors of A.
    Cantor-Zassenhaus splits g by gcd(g, (X + c)^((q - 1)/2) - 1), which
    keeps the roots r with r + c a nonzero square; about half of all c
    separate any two roots.  The c are drawn from GF(q) by a generator with
    a fixed seed, so the work is reproducible; c from GF(p) alone would
    never separate two roots conjugate over GF(p).
    """
    if len(a) < 2:
        return []
    one = field._one.value
    x = [field._zero.value, one]
    half = (field.order - 1) // 2
    rng = random.Random(0)
    roots = []
    pending = [_gcd_coeffs(field, a, _sub_coeffs(field, _pow_coeffs(field, x, field.order, a), x))]
    while pending:
        g = pending.pop()
        if len(g) == 2:
            roots.append(field._raw_neg(g[0]))
        elif len(g) > 2:
            shifted = [field.random_element(rng).value, one]  # X + c
            h = _gcd_coeffs(field, g, _sub_coeffs(
                field, _pow_coeffs(field, shifted, half, g), [one]))
            if 2 <= len(h) < len(g):
                pending += [h, _divmod_coeffs(field, g, h)[0]]
            else:
                pending.append(g)
    # the index c0 + c1 p + ... compares as the reversed coefficient tuple
    return sorted(roots, key=None if field.m == 1 else lambda r: r[::-1])


def _rational_roots(a):
    """The distinct roots in QQ of the nonzero raw A over QQ, increasing.

    After the factor X^k, with A cleared to integer coefficients
    c_0 .. c_n, a root num/den in lowest terms has num | c_0 and
    den | c_n, and it is one exactly when the integer den^n A(num/den) =
    sum c_i num^i den^(n - i) vanishes.
    """
    k = 0
    while not a[k]:
        k += 1
    roots = [Fraction(0)] if k else []
    _, (c,) = _cleared((a[k:],))
    n = len(c) - 1
    for num in _divisors(c[0]):
        for den in _divisors(c[-1]):
            if math.gcd(num, den) == 1:
                roots += [Fraction(x, den) for x in (num, -num)
                          if not sum(ci * x ** i * den ** (n - i) for i, ci in enumerate(c))]
    return sorted(roots)


def _multiplicity(field, a, r):
    """The multiplicity of the root r of the nonzero raw A: how often
    X - r divides it."""
    lin, mult = [field._raw_neg(r), field._one.value], 0
    while True:
        q, rem = _divmod_coeffs(field, a, lin)
        if rem:
            return mult
        a, mult = q, mult + 1
