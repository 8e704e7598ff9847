"""Exact univariate polynomials over any picforms field.

Coefficients are stored lowest degree first with no trailing zeros; the
zero polynomial is the empty tuple and has degree -1 by convention, which
keeps every degree bound uniform.  The operators +, -, *, //, %, divmod
and ** are overloaded, polynomials are callable (evaluation), and the gcd
is always returned monic.  Each coefficient of a product is one call of
the field's sum-of-products kernel, so it is normalised once.

Every polynomial algorithm has one kernel on raw coefficient lists, the
``_*_coeffs`` functions: sum, difference, product, power (optionally
modulo a polynomial), division, gcd, extended gcd, inverse modulo a
polynomial and the Chinese remainder chain.  The operators and ``gcd``
wrap them; root finding, the sampler (:mod:`picforms.sampling`), Rabin's
irreducibility test and the inverse in GF(p^m) (:mod:`picforms.fields`,
over GF(p)), and the squarefree certificate over QQ
(``_squarefree_prime``, over GF(p)) call them directly.  The extended
gcd, the inverse modulo a polynomial and the Chinese remainder chain
have no wrapper: only those callers need them.

Root finding uses gcd(f, X^q - X) and Cantor-Zassenhaus splitting over
finite fields, polylogarithmic in q, and the rational-root bound over QQ;
both return multiplicities.  There is no general factorization into
irreducibles here.
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
        return Polynomial(self.field,
                          tuple(self.coeffs[i] * i for i in range(1, len(self.coeffs))))

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
        raise DivisionByZero("%r is not invertible mod %r" % (
            Polynomial(field, field._wrap(a)), Polynomial(field, field._wrap(m))))
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


def is_squarefree(f):
    """True iff gcd(f, f') is constant.

    Valid over the perfect fields used here: when f' = 0 the polynomial is
    a p-th power, and the gcd comes out nonconstant as required.

    Over QQ a certificate mod p comes first (:func:`_squarefree_prime`).
    It only ever proves squarefreeness; when it does not, the exact gcd
    over QQ decides, as it does over every other field.
    """
    if f.is_zero:
        raise ZeroPolynomial("squarefree test on 0")
    if f.degree == 0:
        return True
    if f.field is QQ and _squarefree_prime(f) is not None:
        return True
    return gcd(f, f.derivative()).degree == 0


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
    a = [x % p for x in a]
    da = [i * x % p for i, x in enumerate(a)][1:]
    while da and not da[-1]:
        da.pop()
    return p if len(_gcd_coeffs(GF(p), a, da)) == 1 else None


def _divisors(n):
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def roots_in_field(f, field=None):
    """All roots of f in the given field, with multiplicities.

    Returns a list of (root, multiplicity) pairs sorted by the canonical
    element order.  Over a finite field the roots come from
    :func:`_distinct_roots`; over QQ the candidates come from the
    rational-root bound.
    """
    if f.is_zero:
        raise ZeroPolynomial("roots of 0")
    if field is None:
        field = f.field
    if field != f.field:
        f = f.embedded(field)
    if field.p is None and field.m > 1:
        raise RationalsUnsupported("root finding inside extensions of QQ is not supported")
    out = []
    if field.p is not None:
        return [(x, _multiplicity(f, x)) for x in _distinct_roots(f)]
    # QQ: strip powers of X, clear denominators, try p/q candidates
    k = 0
    while k <= f.degree and not f.coeffs[k]:
        k += 1
    if k:
        out.append((field.zero(), k))
        f = Polynomial(field, f.coeffs[k:])
    if f.degree >= 1:
        denom = 1
        for c in f.coeffs:
            denom = denom * c.value.denominator // math.gcd(denom, c.value.denominator)
        ints = [int(c.value * denom) for c in f.coeffs]
        a0, an = ints[0], ints[-1]
        seen = set()
        for num in _divisors(a0):
            for den in _divisors(an):
                for sign in (1, -1):
                    cand = Fraction(sign * num, den)
                    if cand in seen:
                        continue
                    seen.add(cand)
                    x = field.elem(cand)
                    if not f(x):
                        out.append((x, _multiplicity(f, x)))
    out.sort(key=lambda pair: pair[0].sort_key())
    return out


def _distinct_roots(f):
    """The distinct roots of f in its finite coefficient field GF(q), in
    canonical order.

    g = gcd(f, X^q - X) is the product of the distinct linear factors of f.
    Cantor-Zassenhaus splits g by gcd(g, (X + c)^((q - 1)/2) - 1), which
    keeps the roots r with r + c a nonzero square; about half of all c
    separate any two roots.  The c are drawn from GF(q) by a generator with
    a fixed seed, so the work is reproducible; c from GF(p) alone would
    never separate two roots conjugate over GF(p).
    """
    if f.degree < 1:
        return []
    field = f.field
    zero, one = field._zero.value, field._one.value
    x, a = [zero, one], f._raw()
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
    return sorted(field._wrap(roots), key=lambda r: r.sort_key())


def _multiplicity(f, x):
    """The multiplicity of the root x of f."""
    mult = 0
    lin = Polynomial(f.field, (-x, f.field.one()))
    while True:
        q, r = divmod(f, lin)
        if not r.is_zero:
            return mult
        mult += 1
        f = q
