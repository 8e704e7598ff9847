"""Exact scalar arithmetic over the rationals and finite fields.

A ``Field`` describes one coefficient domain:

* the rationals QQ (arbitrary-precision ``Fraction`` values),
* a prime field GF(p), p an odd prime,
* an extension GF(p^m) realised as GF(p)[T]/(modulus) with a monic
  irreducible modulus, either supplied or found deterministically
  (lowest coefficient tuple first),
* a quadratic extension QQ[T]/(T^2 + c1*T + c0), used when a square root
  or a reduction parameter leaves the rationals.

Fields are interned, so requesting the same parameters twice returns the
same object; fields compare by identity, and element equality never
crosses descriptors silently.  :func:`GF` validates each request (the
primality test, the degree, the modulus) once and looks up a repeated one
before any check.
Elements are immutable and hashable; every operation is exact.  There is
no floating point anywhere in this package.

Square roots, irreducibility tests, roots and subfield coordinates are
polylogarithmic in the field order, so any field size works; only the
explicit enumerations (``Field.elements`` and its callers) are O(q).
Over a quadratic extension of QQ a square root comes from the norm, two
rational square roots.

Element values are kept in canonical form: ``Fraction`` in lowest terms,
integers reduced into [0, p), coefficient tuples of length m for
extensions.  The canonical total order used for deterministic searches is
the natural order on QQ and the integer index c0 + c1*p + ... on finite
fields.

Polynomials have no arithmetic of their own here: Rabin's
irreducibility test, the inverse in GF(p^m) and the root of an embedding
run on the raw kernels of :mod:`picforms.poly`, imported inside the
functions since that module imports this one, and the subfield
coordinates of an embedding come from :func:`picforms.linalg._row_reduce`.

Sums of products go through one kernel, :meth:`Field.dot`, with one
implementation per field kind.  Over QQ it accumulates a numerator and a
denominator as Python ints and builds one ``Fraction``; over GF(p) it
sums int products and takes one ``% p``; over an extension, GF(p^m) or
QQ(sqrt d), it accumulates the unreduced convolutions and reduces once by
the modulus, and by p in a finite field.  Each call therefore normalises
once, and its value is in the canonical form above.  The integers have
a kernel of the same shape, ``ZZ``: the GF(p) sums without the reduction
mod p, and no inverse.  It is not a field; the class decision, the
curve identity of a triple and the squarefree certificate over QQ run on
it, on vectors cleared of their denominators by ``_cleared``.

Linear combinations of vectors go through its vector form,
``Field._raw_comb(cs, vs)``, the list of sums cs[0] vs[0][i] + cs[1]
vs[1][i] + ... over the entries i of equal-length raw vectors vs.  It is
bound beside ``_raw_dot``: over GF(p) it takes one ``% p`` per entry,
and over QQ or an extension it calls ``_raw_dot`` once per entry.
A matrix product, a Gram row or a form move is thus one call, and each
of its entries is normalised once, to the same value ``_raw_dot`` gives.

The Frobenius x -> x^p, :func:`embed` and :func:`unembed` are GF(p)-linear
on coordinate vectors, so each is one ``_raw_comb`` call of the prime
field (bound once per field as ``Field._prime``) on cached raw rows: the
powers of T^p, the powers of the embedding's root, and the transposed
subfield coordinate matrix.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import isqrt, lcm
from operator import add, mul, neg, sub

from .errors import (
    CharacteristicTwo,
    DescriptorMismatch,
    DivisionByZero,
    FactorizationNeedsExtension,
    NotFiniteField,
    RationalsUnsupported,
)
from .linalg import _row_reduce

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to every base in _MR_BASES
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin; the first 13 prime bases are exact for
    every n below _MR_LIMIT."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_irreducible(mod, p):
    """Rabin's test for a monic polynomial f of degree n over GF(p).

    f is irreducible iff X^(p^n) = X mod f and gcd(X^(p^(n/r)) - X, f) = 1
    for every prime r dividing n (Rabin, SIAM J. Comput. 9, 1980).  The
    powers X^(p^k) come from X^p by composition, since h(X)^p = h(X^p) for
    h over GF(p).  The arithmetic is that of the raw kernels of
    :mod:`picforms.poly` over GF(p).
    """
    from .poly import (_add_coeffs, _divmod_coeffs, _gcd_coeffs, _pow_coeffs,
                       _product_coeffs, _sub_coeffs)  # poly imports this module
    mod = list(mod)
    n = len(mod) - 1
    if n < 1 or mod[-1] != 1:
        return False
    if n == 1:
        return True
    base = _make_field(p, 1, None)
    checks = {n // r for r in range(2, n + 1) if n % r == 0 and _is_prime(r)}
    xp = _pow_coeffs(base, [0, 1], p, mod)
    h = xp
    for k in range(1, n + 1):
        if k > 1:
            # h(X^p) mod f by Horner's rule
            acc = []
            for c in reversed(h):
                if acc:
                    acc = _divmod_coeffs(base, _product_coeffs(base, acc, xp), mod)[1]
                acc = _add_coeffs(base, acc, [c])
            h = acc
        if k in checks and len(_gcd_coeffs(base, mod, _sub_coeffs(base, h, [0, 1]))) > 1:
            return False
    return h == [0, 1]


def _irreducible_binomials(p, m):
    """The c in increasing order with X^m + c irreducible over GF(p), m >= 2.

    X^m - a, a != 0, is irreducible iff every prime r | m divides p - 1
    with a^((p-1)/r) != 1, and p = 1 (mod 4) when 4 | m (Lidl &
    Niederreiter, Thm. 3.75): O(log p) per binomial, and nothing at all
    when no a can qualify.
    """
    primes = [r for r in range(2, m + 1) if m % r == 0 and _is_prime(r)]
    if any((p - 1) % r for r in primes) or (m % 4 == 0 and p % 4 != 1):
        return
    for c in range(1, p):
        if all(pow(p - c, (p - 1) // r, p) != 1 for r in primes):
            yield c


def _digits(k, p, m):
    """The m lowest base-p digits of k, least significant first."""
    digits = []
    for _ in range(m):
        digits.append(k % p)
        k //= p
    return tuple(digits)


@functools.lru_cache(maxsize=None)
def _default_modulus(p, m):
    """Lowest monic irreducible of degree m over GF(p), lexicographic on (c0..c_{m-1}).

    The walk starts with the p binomials X^m + c, decided in closed form;
    every later candidate is Rabin-tested.
    """
    for c in _irreducible_binomials(p, m):
        return (c,) + (0,) * (m - 1) + (1,)
    for idx in range(p, p ** m):
        cand = _digits(idx, p, m) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible modulus found")  # unreachable: they always exist


class Field:
    """One exact coefficient domain.  Use :func:`GF`, :data:`QQ` or
    :func:`rational_extension` instead of calling the constructor directly;
    they intern every field, so fields compare by identity."""

    __slots__ = (
        "p", "m", "modulus", "char", "order",
        "_prime", "_red", "_zero", "_one", "_half", "_ts", "_frob", "_embed_cache",
        "_raw_dot", "_raw_comb",
    )

    def __init__(self, p, m, modulus):
        self.p = p
        self.m = m
        self.modulus = modulus
        self.char = p if p is not None else 0
        self.order = p ** m if p is not None else None
        self._ts = None
        self._embed_cache = {}
        if p is None:
            zero, one, half = Fraction(0), Fraction(1), Fraction(1, 2)
        else:
            zero, one, half = 0, 1, (p + 1) // 2
        self._zero = FieldElement(self, zero if m == 1 else (zero,) * m)
        self._one = FieldElement(self, self._scalar(one))
        self._half = self._scalar(half)
        # QQ or GF(p): the base scalars and the kernel of the linear maps
        self._prime = self if m == 1 else _make_field(p, 1, None)
        self._red = None
        if m == 1 and p is None:
            self._raw_dot, self._raw_comb = self._dot_rational, self._comb_generic
        elif m == 1:
            self._raw_dot, self._raw_comb = self._dot_prime, self._comb_prime
        else:
            # rows for T^k mod modulus, k = m .. 2m-2, in base-field scalars
            base = self._prime
            top = [base._raw_neg(c) for c in modulus[:-1]]
            rows = [tuple(top)]
            for _ in range(m - 2):
                # T times the last row: shifted up, with its top entry folded back
                prev = rows[-1]
                rows.append(tuple(base._raw_comb((one, prev[-1]), ((zero,) + prev[:-1], top))))
            # kept sparse: default moduli are often binomials
            self._red = [tuple((i, r) for i, r in enumerate(row) if r) for row in rows]
            self._raw_dot, self._raw_comb = self._dot_convolved, self._comb_generic
            if p:
                # x -> x^p is GF(p)-linear on the power basis: rows (T^p)^i, i < m
                tp = self._raw_pow(self.generator().value, p)
                self._frob = [self._one.value]
                for _ in range(m - 1):
                    self._frob.append(self._raw_mul(self._frob[-1], tp))

    def __repr__(self):
        return self.label()

    def label(self):
        if self.p is None:
            if self.m == 1:
                return "QQ"
            return "QQ[T]/(%s)" % ",".join(str(c) for c in self.modulus)
        if self.m == 1:
            return "GF(%d)" % self.p
        return "GF(%d^%d)" % (self.p, self.m)

    @property
    def is_rationals(self):
        return self.p is None and self.m == 1

    # -- raw element values ----------------------------------------------------

    def _scalar(self, s):
        """The raw value of the base scalar s (an int in [0, p), or a Fraction)."""
        return s if self.m == 1 else (s,) + self._zero.value[1:]

    def _raw_add(self, a, b):
        if self.m == 1:
            return (a + b) % self.p if self.p else a + b
        if self.p:
            p = self.p
            return tuple((x + y) % p for x, y in zip(a, b))
        return tuple(x + y for x, y in zip(a, b))

    def _raw_sub(self, a, b):
        if self.m == 1:
            return (a - b) % self.p if self.p else a - b
        if self.p:
            p = self.p
            return tuple((x - y) % p for x, y in zip(a, b))
        return tuple(x - y for x, y in zip(a, b))

    def _raw_neg(self, a):
        if self.m == 1:
            return (-a) % self.p if self.p else -a
        if self.p:
            p = self.p
            return tuple((-x) % p for x in a)
        return tuple(-x for x in a)

    def _raw_mul(self, a, b):
        if self.m == 1:
            return (a * b) % self.p if self.p else a * b
        prod = [0 if self.p else Fraction(0)] * (2 * self.m - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        return self._fold(prod)

    def _fold(self, prod):
        """Reduce the 2m - 1 coefficients of an unreduced product by the
        modulus, and then by p in a finite field."""
        m = self.m
        out = prod[:m]
        red = self._red
        for k in range(m, 2 * m - 1):
            c = prod[k]
            if c:
                for i, r in red[k - m]:
                    out[i] += c * r
        if self.p:
            p = self.p
            return tuple([x % p for x in out])
        return tuple(out)

    # -- sums of products: one kernel per field kind --------------------------------

    def dot(self, xs, ys, xs2=(), ys2=()):
        """sum xs[i] * ys[i] - sum xs2[j] * ys2[j] on raw values, as one
        element; the sequences are raw values of this field."""
        return FieldElement(self, self._raw_dot(xs, ys, xs2, ys2))

    def _wrap(self, values):
        """The elements with the raw values ``values``, as a tuple."""
        return tuple([FieldElement(self, x) for x in values])

    def values(self, xs):
        """The raw values of the elements xs, as a list; ints and Fractions
        are coerced, and an element of another field raises DescriptorMismatch."""
        return [x.value if type(x) is FieldElement and x.field is self
                else self.elem(x).value for x in xs]

    def _dot_rational(self, xs, ys, xs2, ys2):
        # n / d in ints, d a product of term denominators; one Fraction,
        # normalised once
        n, d = 0, 1
        for sign, pairs in ((1, zip(xs, ys)), (-1, zip(xs2, ys2))):
            for x, y in pairs:
                a, b = x.as_integer_ratio()
                c, e = y.as_integer_ratio()
                if a and c:
                    a *= sign
                    t = b * e
                    if t == d:
                        n += a * c
                    else:
                        n = n * t + a * c * d
                        d *= t
        return Fraction(n, d)

    def _dot_prime(self, xs, ys, xs2, ys2):
        return (sum(map(mul, xs, ys)) - sum(map(mul, xs2, ys2))) % self.p

    def _dot_convolved(self, xs, ys, xs2, ys2):
        # the unreduced convolutions, reduced once by the modulus (and by p)
        prod = [0 if self.p else Fraction(0)] * (2 * self.m - 1)
        for sign, pairs in ((1, zip(xs, ys)), (-1, zip(xs2, ys2))):
            for x, y in pairs:
                for i, xi in enumerate(x):
                    if xi:
                        xi *= sign
                        for j, yj in enumerate(y):
                            prod[i + j] += xi * yj
        return self._fold(prod)

    def _comb_prime(self, cs, vs):
        p = self.p
        return [sum(map(mul, cs, col)) % p for col in zip(*vs)]

    def _comb_generic(self, cs, vs):
        dot = self._raw_dot
        return [dot(cs, col, (), ()) for col in zip(*vs)]

    def _raw_inv(self, a):
        if a == self._zero.value:
            raise DivisionByZero("inverse of zero in %s" % self.label())
        if self.m == 1:
            return pow(a, -1, self.p) if self.p else Fraction(1) / a
        if self.m == 2:
            # quadratic extension: closed-form conjugate inverse
            c0, c1 = self.modulus[0], self.modulus[1]
            x, y = a
            norm = x * x - x * y * c1 + y * y * c0
            if self.p is None:
                return ((x - y * c1) / norm, -y / norm)
            p = self.p
            inv = pow(norm, -1, p)
            return ((x - y * c1) * inv % p, -y * inv % p)
        # the inverse of a mod the modulus over GF(p); the sum with 0 trims
        # the top zeros of a
        from .poly import _add_coeffs, _invert_mod_coeffs  # poly imports this module
        base = self._prime
        inv = _invert_mod_coeffs(base, _add_coeffs(base, a, ()), self.modulus)
        return tuple(inv) + (0,) * (self.m - len(inv))

    def _raw_pow(self, a, e):
        if self.m == 1 and self.p:
            return pow(a, e, self.p)
        out = self._one.value
        for bit in bin(e)[2:]:
            out = self._raw_mul(out, out)
            if bit == "1":
                out = self._raw_mul(out, a)
        return out

    def _raw_frobenius(self, value, power=1):
        """value ** (p ** power) on a raw value of a finite field."""
        for _ in range(power % self.m):
            value = tuple(self._prime._raw_comb(value, self._frob))
        return value

    # -- element constructors --------------------------------------------------

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def elem(self, value):
        """Coerce an int, Fraction, coefficient sequence, or FieldElement."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise DescriptorMismatch(
                    "element of %s used in %s" % (value.field.label(), self.label()))
            return value
        if isinstance(value, (int, Fraction)):
            p = self.p
            if p is None:
                s = value if isinstance(value, Fraction) else Fraction(value)
            elif isinstance(value, int):
                s = value % p
            elif value.denominator % p == 0:
                raise DivisionByZero("%s has no value in %s" % (value, self.label()))
            else:
                s = value.numerator * pow(value.denominator, -1, p) % p
            return FieldElement(self, self._scalar(s))
        if isinstance(value, (tuple, list)):
            if len(value) != self.m:
                raise DescriptorMismatch(
                    "coefficient vector of length %d for %s" % (len(value), self.label()))
            if self.p:
                raw = tuple(int(c) % self.p for c in value)
            else:
                raw = tuple(Fraction(c) for c in value)
            if self.m == 1:
                return FieldElement(self, raw[0])
            return FieldElement(self, raw)
        raise DescriptorMismatch("cannot coerce %r into %s" % (value, self.label()))

    def generator(self):
        """The class of T in an extension field."""
        if self.m == 1:
            raise DescriptorMismatch("no generator in %s" % self.label())
        # (0, 1, 0, ..., 0)
        return FieldElement(self, self._zero.value[:1] + self._one.value[:-1])

    # -- enumeration -----------------------------------------------------------

    def element_from_index(self, idx):
        if self.p is None:
            raise RationalsUnsupported("cannot index elements of %s" % self.label())
        if self.m == 1:
            return FieldElement(self, idx % self.p)
        return FieldElement(self, _digits(idx, self.p, self.m))

    def index_of(self, e):
        if self.p is None:
            raise RationalsUnsupported("cannot index elements of %s" % self.label())
        if self.m == 1:
            return e.value
        idx = 0
        for c in reversed(e.value):
            idx = idx * self.p + c
        return idx

    def elements(self):
        """All field elements in canonical (index) order.  Finite fields only."""
        if self.p is None:
            raise RationalsUnsupported("cannot enumerate %s" % self.label())
        for idx in range(self.order):
            yield self.element_from_index(idx)

    def random_element(self, rng):
        if self.p is None:
            raise RationalsUnsupported("cannot sample %s uniformly" % self.label())
        return self.element_from_index(rng.randrange(self.order))

    def extension(self, degree):
        """The canonical extension of this finite field of relative degree `degree`."""
        if degree == 1:
            return self
        if self.p is None:
            raise RationalsUnsupported(
                "extensions of %s are built explicitly from a modulus" % self.label())
        return GF(self.p, self.m * degree)

    # -- square roots ------------------------------------------------------------

    def _tonelli_shanks(self):
        """(s, t, zs) with order - 1 = 2^s t, t odd, and zs[j] = z^(t 2^j)
        for j < s, z the first non-square in a walk done once per field.
        Over GF(p) the walk starts at 2; above it every element of GF(p) may
        be a square, so it starts at the generator T (index p)."""
        if self._ts is None:
            q1 = self.order - 1
            s, t = 0, q1
            while t % 2 == 0:
                s += 1
                t //= 2
            one = self._one.value
            idx = 2 if self.m == 1 else self.p
            while self._raw_pow(self.element_from_index(idx).value, q1 // 2) == one:
                idx += 1
            zs = [self._raw_pow(self.element_from_index(idx).value, t)]
            for _ in range(s - 1):
                zs.append(self._raw_mul(zs[-1], zs[-1]))
            self._ts = (s, t, zs)
        return self._ts

    def _quadratic_sqrt(self, a):
        """A square root of the raw value a = x + y T of QQ[T]/(T^2 + c1 T + c0),
        or None.

        With S = T + c1/2, S^2 = n = c1^2/4 - c0 and a = X + y S, X = x - y c1/2.
        A root u + v S has u^2 + n v^2 = X and 2 u v = y.  For y = 0 it is
        sqrt(X), or sqrt(X / n) S.  Otherwise N = X^2 - n y^2 = (u^2 - n v^2)^2
        is a rational square, u^2 is one of (X +- sqrt N) / 2, and v = y / (2 u).
        The root returned has its first nonzero coefficient positive.
        """
        c0, c1 = self.modulus[0], self.modulus[1]
        x, y = a
        h = c1 / 2
        n = h * h - c0
        X = x - y * h
        if y:
            r = _rational_sqrt(X * X - n * y * y)
            u = r is not None and (_rational_sqrt((X + r) / 2) or _rational_sqrt((X - r) / 2))
            if not u:
                return None
            v = y / (2 * u)
        else:
            u, v = _rational_sqrt(X), y
            if u is None:
                u, v = Fraction(0), _rational_sqrt(X / n)
                if v is None:
                    return None
        root = (u + v * h, v)
        return root if root > (0, 0) else (-root[0], -v)

    def sqrt(self, e):
        """A canonical square root of e, or None if e is not a square here.

        Finite fields use Tonelli-Shanks, polylogarithmic in the order, so
        any field size works; the canonical choice is the root with the
        smaller element index.  Over QQ and its quadratic extensions the
        canonical root is the one whose first nonzero coefficient is
        positive (see :meth:`_quadratic_sqrt`).
        """
        e = self.elem(e)
        if self.p is None:
            root = _rational_sqrt(e.value) if self.m == 1 else self._quadratic_sqrt(e.value)
            return None if root is None else FieldElement(self, root)
        a = e.value
        if a == self._zero.value:
            return e
        s, t, zs = self._tonelli_shanks()
        mul, one = self._raw_mul, self._one.value
        w = self._raw_pow(a, t // 2)
        x = mul(a, w)  # a^((t + 1) / 2), and x^2 = a b
        b = mul(x, w)  # a^t, of order 2^i below
        r = s
        while b != one:
            i, b2 = 0, b
            while b2 != one:
                b2 = mul(b2, b2)
                i += 1
                if i == r:
                    return None  # a^((order - 1) / 2) = -1: Euler's criterion
            x = mul(x, zs[s - i - 1])
            b = mul(b, zs[s - i])
            r = i
        y = self._raw_neg(x)
        if self.m == 1:
            return FieldElement(self, min(x, y))
        # the index c0 + c1 p + ... compares as the reversed coefficient tuple
        return FieldElement(self, min(x, y, key=lambda r: r[::-1]))


def _rational_sqrt(v):
    """The nonnegative square root of the Fraction v, or None."""
    if v < 0:
        return None
    n, d = v.numerator, v.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


class FieldElement:
    """An immutable exact scalar tied to its :class:`Field`."""

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        self.field = field
        self.value = value

    # -- conversions -------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise DescriptorMismatch(
                    "%s vs %s" % (self.field.label(), other.field.label()))
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.elem(other)
        return None

    # -- arithmetic ----------------------------------------------------------------
    # + - * go straight to the raw kernel when both operands share one
    # (interned) field; anything else passes through _coerce and its check.

    def __add__(self, other):
        field = self.field
        if not (isinstance(other, FieldElement) and other.field is field):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return FieldElement(field, field._raw_add(self.value, other.value))

    __radd__ = __add__

    def __sub__(self, other):
        field = self.field
        if not (isinstance(other, FieldElement) and other.field is field):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return FieldElement(field, field._raw_sub(self.value, other.value))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field._raw_sub(o.value, self.value))

    def __neg__(self):
        return FieldElement(self.field, self.field._raw_neg(self.value))

    def __mul__(self, other):
        field = self.field
        if not (isinstance(other, FieldElement) and other.field is field):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return FieldElement(field, field._raw_mul(self.value, other.value))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field._raw_mul(self.value, self.field._raw_inv(o.value)))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field._raw_mul(o.value, self.field._raw_inv(self.value)))

    def inverse(self):
        return FieldElement(self.field, self.field._raw_inv(self.value))

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        return FieldElement(self.field, self.field._raw_pow(self.value, n))

    # -- predicates -------------------------------------------------------------

    def __bool__(self):
        return self.value != self.field._zero.value

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field == other.field and self.value == other.value
        if isinstance(other, (int, Fraction)):
            return self == self.field.elem(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.value))

    def __repr__(self):
        if self.field.m == 1:
            return str(self.value)
        return "[%s]" % ",".join(str(c) for c in self.value)

    def sort_key(self):
        """Key for the canonical total order used in deterministic searches."""
        if self.field.p is not None:
            return self.field.index_of(self)
        return self.value

    # -- Galois -------------------------------------------------------------------

    def frobenius(self, power=1):
        """self ** (p ** power); the identity when power is a multiple of m."""
        f = self.field
        if f.p is None:
            raise NotFiniteField("Frobenius of an element of %s" % f.label())
        if power < 0:
            raise ValueError("Frobenius power must be >= 0")
        if f.m == 1:
            return self
        return FieldElement(f, f._raw_frobenius(self.value, power))

    def sqrt(self):
        return self.field.sqrt(self)


# ---------------------------------------------------------------------------
# interned constructors

@functools.lru_cache(maxsize=None)
def _make_field(p, m, modulus):
    return Field(p, m, modulus)


QQ = _make_field(None, 1, None)


class _Integers:
    """The integers as a raw kernel: the sums of products of GF(p) without
    the reduction mod p, and no inverse.  It is not a field and is not
    interned with them; the QQ computations of the module docstring run on
    it, on vectors cleared of their denominators (see :func:`_cleared`)."""

    __slots__ = ("_zero", "_one")

    p = None  # no reduction, as over QQ
    _raw_add, _raw_sub, _raw_neg, _raw_mul = add, sub, neg, mul

    def __init__(self):
        self._zero = FieldElement(self, 0)
        self._one = FieldElement(self, 1)

    @staticmethod
    def _raw_dot(xs, ys, xs2, ys2):
        return sum(map(mul, xs, ys)) - sum(map(mul, xs2, ys2))

    @staticmethod
    def _raw_comb(cs, vs):
        return [sum(map(mul, cs, col)) for col in zip(*vs)]


ZZ = _Integers()


def _cleared(vectors):
    """(D, cleared): D the least common denominator of the Fractions in
    ``vectors``, and each vector times D, as a list of ints."""
    ratios = [[x.as_integer_ratio() for x in vec] for vec in vectors]
    D = lcm(*[d for vec in ratios for _, d in vec])
    return D, [[n * (D // d) for n, d in vec] for vec in ratios]


# every GF() request that passed validation, by its arguments
_GF_FIELDS = {}


def GF(p, m=1, modulus=None):
    """The finite field GF(p^m), with an optional explicit monic modulus.

    The modulus is verified irreducible by Rabin's test.  Without one,
    the deterministic default (lowest coefficient tuple) is used so that
    element encodings are reproducible across runs.  Each request is
    validated once; a repeated one returns the interned field at once.
    """
    key = (p, m, modulus if modulus is None else tuple(modulus))
    field = _GF_FIELDS.get(key)
    if field is not None:
        return field
    if p == 2:
        raise CharacteristicTwo("characteristic 2 is out of scope")
    if p >= _MR_LIMIT:
        raise ValueError("p must be below %d, where the primality test is exact" % _MR_LIMIT)
    if not _is_prime(p):
        raise ValueError("%d is not prime" % p)
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    if m == 1:
        mod = None
    elif modulus is None:
        mod = _default_modulus(p, m)
    else:
        mod = tuple(int(c) % p for c in modulus)
        if len(mod) != m + 1 or mod[-1] != 1:
            raise ValueError("modulus must be monic of degree m")
        if not _is_irreducible(mod, p):
            raise ValueError("modulus is reducible over GF(%d)" % p)
    field = _GF_FIELDS[key] = _make_field(p, m, mod)
    return field


def rational_extension(modulus):
    """QQ[T]/(modulus) for a monic irreducible quadratic modulus."""
    mod = tuple(Fraction(c) for c in modulus)
    if len(mod) != 3 or mod[-1] != 1:
        raise ValueError("only monic quadratic extensions of QQ are supported")
    disc = mod[1] * mod[1] - 4 * mod[0]
    if QQ.sqrt(QQ.elem(disc)) is not None:
        raise ValueError("modulus is reducible over QQ")
    return _make_field(None, 2, mod)


def adjoin_sqrt(field, e):
    """A field containing a square root of e, with that root.

    Returns ``(field, root)`` when e is already a square; otherwise builds
    the canonical quadratic extension and returns the root there.  Above a
    quadratic extension of QQ that is out of scope, and a non-square raises
    FactorizationNeedsExtension.
    """
    e = field.elem(e)
    r = field.sqrt(e)
    if r is not None:
        return field, r
    if field.p is not None:
        ext = field.extension(2)
        r = ext.sqrt(embed(e, ext))
        assert r is not None  # every element of GF(q) is a square in GF(q^2)
        return ext, r
    if field.m > 1:
        raise FactorizationNeedsExtension(
            "a square root above %s is out of scope" % field.label())
    ext = rational_extension((-e.value, Fraction(0), Fraction(1)))
    return ext, ext.generator()


# ---------------------------------------------------------------------------
# embeddings

def can_embed(src, dst):
    if src == dst:
        return True
    if src.p != dst.p:
        return False
    if src.p is None:
        return src.m == 1  # QQ into any QQ extension
    return dst.m % src.m == 0


def _embedding(src, dst):
    """(powers, coords) for src = GF(p^a) inside dst = GF(p^b), cached per
    pair, both as raw values.

    powers are 1, r, r^2, ... in dst, for r the root of src's modulus with
    the smallest index.  coords is the transpose of a b x b matrix P over
    GF(p) with P E = [I; 0], where the columns of E are the coordinates of
    the powers: the first a entries of P e are the coordinates of e over
    src, and the others vanish exactly when e lies in the image.  P is the
    right half of [E | I] after :func:`picforms.linalg._row_reduce` over
    GF(p) on its first a columns.  P e and the image of e are thus one
    ``_raw_comb`` call each.
    """
    cached = dst._embed_cache.get(src)
    if cached is not None:
        return cached
    from .poly import _distinct_roots  # poly imports this module
    root = _distinct_roots(dst, [dst._scalar(c) for c in src.modulus])[0]
    powers = [dst._one.value]
    for _ in range(src.m - 1):
        powers.append(dst._raw_mul(powers[-1], root))
    # [E | I] reduced on its first a columns over GF(p); E has full column
    # rank since r generates src
    a, b = src.m, dst.m
    rows, pivots = _row_reduce(dst._prime, [
        [pw[i] for pw in powers] + [int(i == j) for j in range(b)] for i in range(b)], a)
    assert pivots == tuple(range(a))
    cached = (powers, tuple(zip(*(row[a:] for row in rows))))
    dst._embed_cache[src] = cached
    return cached


def embed(e, dst):
    """Map a field element into a larger compatible field.

    Prime fields and QQ embed as constants; GF(p^a) embeds into GF(p^b)
    (a | b) along the root of its modulus with the smallest index, found by
    :func:`picforms.poly._distinct_roots`.  The choice is cached per field
    pair, so it is consistent within and across computations in one
    process.
    """
    src = e.field
    if src == dst:
        return e
    if not can_embed(src, dst):
        raise DescriptorMismatch("cannot embed %s into %s" % (src.label(), dst.label()))
    if src.m == 1:
        return FieldElement(dst, dst._scalar(e.value))
    return FieldElement(dst, tuple(dst._prime._raw_comb(e.value, _embedding(src, dst)[0])))


def unembed(e, src):
    """Inverse of :func:`embed` on its image; raises if e is outside the subfield."""
    dst = e.field
    if src == dst:
        return e
    if not can_embed(src, dst):
        raise DescriptorMismatch("cannot embed %s into %s" % (src.label(), dst.label()))
    if src.m == 1:
        coords = e.value  # constants: coordinates 1, 2, ... must vanish
    else:
        coords = dst._prime._raw_comb(e.value, _embedding(src, dst)[1])
    if any(coords[src.m:]):
        raise DescriptorMismatch("element does not lie in %s" % src.label())
    return FieldElement(src, coords[0] if src.m == 1 else tuple(coords[:src.m]))


def common_field(f1, f2):
    """The larger of two comparable fields (one must embed into the other)."""
    if can_embed(f2, f1):
        return f1
    if can_embed(f1, f2):
        return f2
    raise DescriptorMismatch("incomparable fields %s and %s" % (f1.label(), f2.label()))
