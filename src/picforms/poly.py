"""Exact univariate polynomials over any picforms field.

Coefficients are stored lowest degree first with no trailing zeros; the
zero polynomial is the empty tuple and has degree -1 by convention, which
keeps every degree bound uniform.  The operators +, -, *, //, %, divmod
and ** are overloaded, polynomials are callable (evaluation), and the gcd
is always returned monic.  Each coefficient of a product is one call of
the field's sum-of-products kernel, so it is normalised once.

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
from .fields import FieldElement, embed


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

    def __add__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return Polynomial(self.field, tuple(self[i] + o[i] for i in range(n)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return Polynomial(self.field, tuple(self[i] - o[i] for i in range(n)))

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
        prod = _product_coeffs(field, [c.value for c in self.coeffs],
                               [c.value for c in o.coeffs])
        # the leading coefficient is a product of two nonzero ones
        return Polynomial._trusted(field, field._wrap(prod))

    __rmul__ = __mul__

    def __divmod__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise DivisionByZero("polynomial division by zero")
        # on raw values: one inverse of the divisor's leading coefficient,
        # then one product and one difference per coefficient and step
        field = self.field
        zero = field._zero.value
        mul, sub = field._raw_mul, field._raw_sub
        rem = [c.value for c in self.coeffs]
        div = [c.value for c in o.coeffs]
        db = len(div) - 1
        inv = field._raw_inv(div[-1])
        q = [zero] * max(len(rem) - db, 0)
        while len(rem) - 1 >= db and rem:
            k = len(rem) - 1 - db
            f = mul(rem[-1], inv)
            q[k] = f
            for i, bc in enumerate(div):
                rem[i + k] = sub(rem[i + k], mul(f, bc))
            while rem and rem[-1] == zero:
                rem.pop()
        # the top quotient coefficient, set first, is a nonzero one
        return (Polynomial._trusted(field, field._wrap(q)),
                Polynomial._trusted(field, field._wrap(rem)))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = Polynomial.one(self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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
    coefficient sequences a, b and optional c, d of the same lengths.

    Each coefficient is one call of the field's sum-of-products kernel,
    sum a_i b_(k-i) - sum c_i d_(k-i), so it is reduced once.
    """
    dot = field._raw_dot
    la, lb = len(a), len(b)
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
    if f.is_zero and g.is_zero:
        raise ZeroPolynomial("gcd(0, 0)")
    a, b = f, g
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def gcdext(f, g):
    """(d, s, t) with d = s*f + t*g and d the monic gcd."""
    if f.is_zero and g.is_zero:
        raise ZeroPolynomial("gcdext(0, 0)")
    field = f.field
    r0, r1 = f, g
    s0, s1 = Polynomial.one(field), Polynomial.zero(field)
    t0, t1 = Polynomial.zero(field), Polynomial.one(field)
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    lc = r0.leading().inverse()
    return r0 * lc, s0 * lc, t0 * lc


def invert_mod(f, modulus):
    """Inverse of f modulo `modulus`; raises DivisionByZero if they share a factor."""
    d, s, _ = gcdext(f, modulus)
    if d.degree != 0:
        raise DivisionByZero("%r is not invertible mod %r" % (f, modulus))
    return s % modulus


def crt(residues, moduli):
    """The polynomial congruent to residues[i] mod moduli[i] (pairwise coprime)."""
    acc, mod = residues[0] % moduli[0], moduli[0]
    for r, m in zip(residues[1:], moduli[1:]):
        delta = (r - acc) % m
        lift = (delta * invert_mod(mod, m)) % m
        acc = acc + mod * lift
        mod = mod * m
    return acc % mod


def is_squarefree(f):
    """True iff gcd(f, f') is constant.

    Valid over the perfect fields used here: when f' = 0 the polynomial is
    a p-th power, and the gcd comes out nonconstant as required.
    """
    if f.is_zero:
        raise ZeroPolynomial("squarefree test on 0")
    if f.degree == 0:
        return True
    return gcd(f, f.derivative()).degree == 0


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


def _powmod(f, e, modulus):
    """f^e mod `modulus`, by square-and-multiply."""
    result = Polynomial.one(f.field) % modulus
    for bit in bin(e)[2:]:
        result = (result * result) % modulus
        if bit == "1":
            result = (result * f) % modulus
    return result


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
    x = Polynomial.x(field)
    half = (field.order - 1) // 2
    rng = random.Random(0)
    roots = []
    pending = [gcd(f, _powmod(x, field.order, f) - x)]
    while pending:
        g = pending.pop()
        if g.degree == 1:
            roots.append(-g[0])
        elif g.degree > 1:
            h = gcd(g, _powmod(x + field.random_element(rng), half, g) - 1)
            if 0 < h.degree < g.degree:
                pending += [h, g // h]
            else:
                pending.append(g)
    return sorted(roots, key=lambda r: r.sort_key())


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
