import operator
import random
from fractions import Fraction

import pytest

from conftest import long_division

from picforms import fields
from picforms.errors import (
    CharacteristicTwo,
    DescriptorMismatch,
    DivisionByZero,
    FactorizationNeedsExtension,
    NotFiniteField,
)
from picforms.fields import (
    GF,
    QQ,
    Field,
    _default_modulus,
    _irreducible_binomials,
    _is_irreducible,
    _is_prime,
    adjoin_sqrt,
    can_embed,
    common_field,
    embed,
    rational_extension,
    unembed,
)
from picforms.poly import Polynomial, roots_in_field

F5 = GF(5)
F25 = GF(5, 2, (3, 0, 1))  # T^2 - 2


def test_prime_field_ops():
    assert F5.elem(2) * F5.elem(3) == F5.elem(1)
    assert F5.elem(2) - F5.elem(3) == F5.elem(4)
    assert F5.elem(2) / F5.elem(3) == F5.elem(4)


def test_rational_ops():
    assert QQ.elem(Fraction(1, 2)) + QQ.elem(Fraction(1, 3)) == QQ.elem(Fraction(5, 6))
    x = QQ.elem(Fraction(-7, 3))
    assert x / x == QQ.one()


def test_division_identity_and_zero():
    for x in (F5.elem(3), QQ.elem(Fraction(2, 7))):
        assert x / x == x.field.one()
    with pytest.raises(DivisionByZero):
        F5.elem(1) / F5.elem(0)
    with pytest.raises(DivisionByZero):
        F25.one() / F25.zero()
    # a rational whose denominator p divides has no value mod p
    for field, x in ((F5, Fraction(1, 5)), (F5, Fraction(3, 10)), (GF(5, 2), Fraction(1, 5))):
        with pytest.raises(DivisionByZero):
            field.elem(x)


_P61 = 2 ** 61 - 1


@pytest.mark.parametrize("field", [GF(7), GF(_P61), GF(_P61, 2)], ids=str)
def test_inverse_matches_fermat(field):
    # pow(x, -1, p) at the three inverse sites gives the Fermat values
    # x^(q - 2): GF(p) inverses, the norm inverse of GF(p^2) and a Fraction
    # coerced into the field
    rng = random.Random(61)
    p, q = field.p, field.order
    for _ in range(40):
        e = field.random_element(rng)
        if e:
            assert e.inverse() == e ** (q - 2)
            assert e * e.inverse() == field.one()
        n, d = rng.randrange(-10 ** 20, 10 ** 20), rng.randrange(1, 10 ** 20)
        if d % p:
            assert field.elem(Fraction(n, d)) == field.elem(n * pow(d, p - 2, p))
    with pytest.raises(DivisionByZero):
        field.zero().inverse()
    with pytest.raises(DivisionByZero):
        field.one() / field.zero()


def test_descriptor_mismatch():
    with pytest.raises(DescriptorMismatch):
        F5.elem(1) + GF(7).elem(1)
    with pytest.raises(DescriptorMismatch):
        QQ.elem(1) * F5.elem(1)
    # the same-field fast path of + - * must not admit a subfield or another prime
    for other in (F25.elem(2), GF(7).elem(2)):
        for x, y in ((F5.elem(3), other), (other, F5.elem(3))):
            for op in (operator.add, operator.sub, operator.mul):
                with pytest.raises(DescriptorMismatch):
                    op(x, y)
    # ints and Fractions still coerce
    assert F5.elem(2) * 3 == F5.elem(1)
    assert 3 * F5.elem(2) == F5.elem(1)
    assert F5.elem(2) - 3 == F5.elem(4)
    assert F5.elem(2) + Fraction(1, 2) == F5.elem(0)
    assert QQ.elem(1) - Fraction(1, 3) == QQ.elem(Fraction(2, 3))


def test_characteristic_two_rejected():
    with pytest.raises(CharacteristicTwo):
        GF(2)


def test_frobenius_prime_field_fixed():
    for x in F5.elements():
        assert x.frobenius() == x


def test_frobenius_full_orbit_closes():
    rng = random.Random(0)
    for _ in range(20):
        a = F25.random_element(rng)
        assert a.frobenius(2) == a


def test_frobenius_sqrt2_conjugate():
    # the two square roots of 2 in GF(25) are conjugate: t^5 = -t for t^2 = 2
    t = F25.generator()
    assert t * t == F25.elem(2)
    assert t.frobenius() == -t
    assert t ** 5 == -t  # direct exponentiation oracle


def test_frobenius_is_homomorphism():
    rng = random.Random(1)
    for _ in range(200):
        a, b = F25.random_element(rng), F25.random_element(rng)
        assert (a * b).frobenius() == a.frobenius() * b.frobenius()
        assert (a + b).frobenius() == a.frobenius() + b.frobenius()


def test_frobenius_fixed_set_is_prime_field():
    fixed = {x for x in F25.elements() if x.frobenius() == x}
    assert fixed == {embed(x, F25) for x in F5.elements()}


@pytest.mark.parametrize("field", [GF(3, 3), GF(5, 3), GF(3, 4), GF(7, 2)], ids=str)
def test_frobenius_matches_powers(field):
    # x -> x^(p^k) from the cached GF(p)-linear map, against direct powers
    for x in field.elements():
        for k in range(field.m):
            assert x.frobenius(k) == x ** (field.p ** k), (x, k)


def test_frobenius_rejects_rationals():
    with pytest.raises(NotFiniteField):
        QQ.elem(1).frobenius()


@pytest.mark.parametrize("field", [F5, F25, GF(7), QQ, GF(5, 3), GF(3, 4), GF(2 ** 61 - 1, 2)])
def test_field_axioms_on_samples(field):
    rng = random.Random(7)

    def sample():
        if field.p is None:
            return field.elem(Fraction(rng.randint(-20, 20), rng.randint(1, 9)))
        return field.random_element(rng)

    for _ in range(200):
        a, b, c = sample(), sample(), sample()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * a.inverse() == field.one()


def test_embeddings_consistent():
    F625 = GF(5, 4)
    t = F25.generator()
    e = embed(t, F625)
    assert e * e == F625.elem(2)
    assert unembed(e, F25) == t
    # embedding is a homomorphism
    rng = random.Random(3)
    for _ in range(50):
        a, b = F25.random_element(rng), F25.random_element(rng)
        assert embed(a * b, F625) == embed(a, F625) * embed(b, F625)
        assert embed(a + b, F625) == embed(a, F625) + embed(b, F625)


def test_common_field():
    assert common_field(F5, F25) == F25
    assert common_field(QQ, QQ) == QQ
    with pytest.raises(DescriptorMismatch):
        common_field(F5, GF(7))
    assert can_embed(F5, GF(5, 4)) and not can_embed(F25, GF(5, 3))


def test_sqrt():
    assert F5.sqrt(F5.elem(4)) == F5.elem(2)
    assert F5.sqrt(F5.elem(2)) is None
    assert QQ.sqrt(QQ.elem(Fraction(9, 4))) == QQ.elem(Fraction(3, 2))
    assert QQ.sqrt(QQ.elem(2)) is None
    ext, r = adjoin_sqrt(F5, F5.elem(2))
    assert r * r == embed(F5.elem(2), ext)
    qext, rq = adjoin_sqrt(QQ, QQ.elem(2))
    assert rq * rq == embed(QQ.elem(2), qext)


# QQ(sqrt 2), QQ(i) and QQ[T]/(T^2 + 3T + 1) = QQ(sqrt 5), a non-binomial modulus
RATIONAL_QUADRATICS = [(-2, 0, 1), (1, 0, 1), (1, 3, 1)]


@pytest.mark.parametrize("modulus", RATIONAL_QUADRATICS, ids=str)
def test_sqrt_over_rational_extension(modulus):
    field = rational_extension(modulus)
    rng = random.Random(sum(modulus))
    three = field.elem(3)  # not a square in any of the three fields
    for _ in range(60):
        e = field.elem([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2)])
        if rng.randrange(4) == 0:
            e = field.elem([e.value[rng.randrange(2)], 0])  # y = 0, or X = 0
        r = field.sqrt(e * e)
        assert r in (e, -e)
        # the canonical root: its first nonzero coefficient is positive
        assert r.value >= (0, 0)
        if e:
            assert field.sqrt(e * e * three) is None
    assert field.sqrt(field.zero()) == field.zero()
    assert field.sqrt(field.generator()) is None


def test_sqrt_over_rational_extension_examples():
    sqrt2, i = rational_extension((-2, 0, 1)), rational_extension((1, 0, 1))
    assert sqrt2.sqrt(sqrt2.elem(2)) == sqrt2.generator()
    assert sqrt2.sqrt(sqrt2.elem((3, 2))) == sqrt2.elem((1, 1))  # (1 + sqrt 2)^2
    assert sqrt2.sqrt(sqrt2.elem(-1)) is None
    assert i.sqrt(i.elem(-1)) == i.generator()
    assert i.sqrt(i.elem((0, 2))) == i.elem((1, 1))  # (1 + i)^2 = 2i
    assert i.sqrt(i.elem((0, -2))) == i.elem((1, -1))


def test_adjoin_sqrt_above_rational_extension_raises():
    # square roots above a quadratic extension of QQ are out of scope
    qext = rational_extension((-2, 0, 1))
    with pytest.raises(FactorizationNeedsExtension):
        adjoin_sqrt(qext, qext.elem(3))


def test_modulus_validation():
    with pytest.raises(ValueError):
        GF(5, 2, (4, 0, 1))  # T^2 - 1 splits
    with pytest.raises(ValueError):
        rational_extension((Fraction(-4), Fraction(0), Fraction(1)))
    # deterministic default modulus
    assert GF(5, 2).modulus == GF(5, 2).modulus
    assert GF(5, 2) is GF(5, 2)


def test_element_order_enumeration():
    xs = list(F25.elements())
    assert len(xs) == 25
    assert len(set(xs)) == 25
    assert xs[0] == F25.zero() and xs[1] == F25.one()
    keys = [x.sort_key() for x in xs]
    assert keys == sorted(keys)


def _trial_division_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def test_is_prime_matches_trial_division():
    assert [n for n in range(2 * 10 ** 5) if _is_prime(n)] == \
        [n for n in range(2 * 10 ** 5) if _trial_division_prime(n)]


def test_is_prime_large_inputs():
    # a strong pseudoprime to the bases 2, 3, 5 and 7
    assert not _is_prime(3215031751)
    assert _is_prime(2 ** 61 - 1)
    assert not _is_prime((2 ** 31 - 1) * (2 ** 61 - 1))


def test_gf_refuses_p_beyond_the_exact_primality_test():
    # 1287836182261 * 2575672364521 passes Miller-Rabin for all 13 bases
    psi13 = 1287836182261 * 2575672364521
    assert _is_prime(psi13)
    for p in (psi13, 2 ** 89 - 1):
        with pytest.raises(ValueError, match="below"):
            GF(p)


def test_fields_are_interned():
    assert GF(5, 2) is GF(5, 2)
    assert GF(5, 2, (3, 0, 1)) is F25
    assert GF(5, 2) != F25  # same order, different modulus
    assert rational_extension((-2, 0, 1)) is rational_extension((-2, 0, 1))


def test_interned_fields_skip_validation(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return _is_prime(n)

    first = GF(2 ** 61 - 1), GF(101, 2), GF(5, 2, [3, 0, 1])
    monkeypatch.setattr(fields, "_is_prime", counted)
    assert (GF(2 ** 61 - 1), GF(101, 2), GF(5, 2, [3, 0, 1])) == first
    assert calls == []
    # an invalid request is checked again on every call
    for _ in range(2):
        for args in ((15,), (5, 0), (5, 2, (4, 0, 1)), (fields._MR_LIMIT,)):
            with pytest.raises(ValueError):
                GF(*args)
    assert calls.count(15) == 2


# ---------------------------------------------------------------------------
# reference oracles: the exhaustive primitives the polylog ones replaced

def _table_sqrt(field):
    """Every square's root of smallest index, from one pass over the field."""
    table = {}
    for x in field.elements():
        sq = (x * x).value
        prev = table.get(sq)
        if prev is None or field.index_of(x) < field.index_of(prev):
            table[sq] = x
    return table


def _trial_division_irreducible(mod, p):
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(mod) - 1
    if deg < 1 or mod[-1] != 1:
        return False
    f = Polynomial(GF(p), mod)
    for d in range(1, deg // 2 + 1):
        for div in _monic_polys(p, d):
            if long_division(f, Polynomial(GF(p), div))[1].is_zero:
                return False
    return True


def _monic_polys(p, d):
    """Every monic coefficient list of degree d over GF(p), lexicographic on
    (c0 .. c_{d-1})."""
    for idx in range(p ** d):
        cand = []
        for _ in range(d):
            cand.append(idx % p)
            idx //= p
        yield cand + [1]


def _scan_roots(f, candidates=None):
    """The roots of f among the candidates (every element of a finite
    field by default), with multiplicities from repeated long division."""
    field = f.field
    out = []
    for x in field.elements() if candidates is None else candidates:
        if not f(x):
            mult, g = 0, f
            while True:
                q, r = divmod(g, Polynomial(field, (-x, field.one())))
                if not r.is_zero:
                    break
                mult, g = mult + 1, q
            out.append((x, mult))
    return out


SQRT_FIELDS = [GF(7), GF(13), GF(17), GF(257), GF(7681), GF(9973), F25, GF(5, 2),
               GF(3, 4), GF(7, 4), GF(13, 3), GF(97, 2), GF(3, 8)]


@pytest.mark.parametrize("field", SQRT_FIELDS, ids=str)
def test_sqrt_matches_table(field):
    table = _table_sqrt(field)
    for x in field.elements():
        assert field.sqrt(x) == table.get(x.value)


def test_irreducibility_matches_trial_division():
    for p, top in ((3, 6), (5, 4), (7, 3), (11, 3)):
        for d in range(1, top + 1):
            for mod in _monic_polys(p, d):
                assert _is_irreducible(mod, p) == _trial_division_irreducible(mod, p), (p, mod)
    assert not _is_irreducible([1, 0, 2], 3)  # not monic


def _odd_prime_powers(limit):
    for p in range(3, limit):
        if _is_prime(p):
            m = 2
            while p ** m <= limit:
                yield p, m
                m += 1


def test_default_modulus_unchanged():
    for p, m in _odd_prime_powers(10 ** 4):
        ref = next(tuple(c) for c in _monic_polys(p, m) if _trial_division_irreducible(c, p))
        assert _default_modulus(p, m) == ref, (p, m)
    # pinned from the trial-division walk; every binomial is reducible here
    assert _default_modulus(1031, 3) == (4, 1, 0, 1)


def test_binomial_criterion_matches_rabin():
    # Lidl & Niederreiter, Thm. 3.75, against Rabin's test on every binomial
    for p in (3, 5, 7, 11, 13, 17, 19, 29, 31, 37, 41, 43, 61, 73):
        for m in range(2, 9):
            rabin = [c for c in range(1, p)
                     if _is_irreducible((c,) + (0,) * (m - 1) + (1,), p)]
            assert list(_irreducible_binomials(p, m)) == rabin, (p, m)


@pytest.mark.parametrize("field,degree", [(GF(5), 4), (GF(7), 3), (F25, 2), (GF(3, 3), 2)],
                         ids=str)
def test_roots_match_scan(field, degree):
    for d in range(degree + 1):
        for idx in _monic_polys(field.order, d):
            f = Polynomial(field, [field.element_from_index(i) for i in idx])
            assert roots_in_field(f) == _scan_roots(f), f
    rng = random.Random(degree)
    for _ in range(20):
        f = Polynomial(field, [field.random_element(rng) for _ in range(degree)]
                       + [field.element_from_index(rng.randrange(2, field.order))])
        assert roots_in_field(f) == _scan_roots(f), f


def test_rational_roots_match_scan():
    # X^2 (3X - 2)^2 (X + 5) (2X^2 + 1) / 7: a double root at 0, a double
    # root 2/3 of a non-monic factor, a simple root -5, and no others
    X = Polynomial.x(QQ)
    f = X * X * (3 * X - 2) ** 2 * (X + 5) * (2 * X * X + 1) * Fraction(1, 7)
    candidates = sorted({QQ.elem(Fraction(n, d)) for n in range(-12, 13) for d in range(1, 10)},
                        key=lambda x: x.sort_key())
    want = [(QQ.elem(-5), 1), (QQ.zero(), 2), (QQ.elem(Fraction(2, 3)), 2)]
    assert roots_in_field(f) == _scan_roots(f, candidates) == want
    assert roots_in_field(f // (X * X)) == want[:1] + want[2:]


@pytest.mark.parametrize("src,dst", [(GF(5), F25), (F25, GF(5, 4)), (GF(5, 2), GF(5, 4)),
                                     (GF(3, 2), GF(3, 4)), (GF(3, 2), GF(3, 6)),
                                     (GF(3, 3), GF(3, 6)), (GF(3, 4), GF(3, 8)),
                                     (GF(7, 2), GF(7, 4))], ids=str)
def test_embed_unembed_match_scan(src, dst):
    if src.m > 1:
        # the image of T is the first root of src's modulus in element order
        first = next(x for x in dst.elements()
                     if not Polynomial(dst, src.modulus)(x))
        assert embed(src.generator(), dst) == first
    table = {embed(x, dst).value: x for x in src.elements()}
    assert len(table) == src.order
    for e in dst.elements():
        want = table.get(e.value)
        if want is None:
            with pytest.raises(DescriptorMismatch):
                unembed(e, src)
        else:
            assert unembed(e, src) == want


def test_unembed_rationals():
    qext = rational_extension((-2, 0, 1))
    assert unembed(embed(QQ.elem(Fraction(3, 4)), qext), QQ) == QQ.elem(Fraction(3, 4))
    with pytest.raises(DescriptorMismatch):
        unembed(qext.generator(), QQ)


def test_no_element_scans(monkeypatch):
    """sqrt, irreducibility, roots, embed and unembed never enumerate."""
    scanned = []
    original = Field.elements

    def counting(self):
        scanned.append(self.label())
        return original(self)

    monkeypatch.setattr(Field, "elements", counting)
    rng = random.Random(11)
    for field in (GF(31, 3), GF(101, 2)):
        big = field.extension(2)
        big._embed_cache.clear()
        field._ts = None
        assert _is_irreducible(field.modulus, field.p)
        assert not _is_irreducible([1, 2, 1], field.p)
        for _ in range(40):
            x = field.random_element(rng)
            r = field.sqrt(x * x)
            assert r * r == x * x
            assert unembed(embed(x, big), field) == x
            c = GF(field.p).elem(rng.randrange(field.p))
            assert unembed(embed(c, field), GF(field.p)) == c
        roots = [field.random_element(rng) for _ in range(3)]
        f = Polynomial.one(field)
        for r in roots:
            f = f * Polynomial(field, (-r, field.one()))
        assert [x for x, _ in roots_in_field(f)] == sorted(set(roots), key=lambda e: e.sort_key())
    assert scanned == []


def _raw_value(field, rng):
    """A random raw value of `field`, zero about one time in five."""
    if rng.randrange(5) == 0:
        return field.zero().value
    if field.p is not None:
        return field.random_element(rng).value
    parts = [Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4))
             for _ in range(field.m)]
    return field.elem(parts[0] if field.m == 1 else parts).value


@pytest.mark.parametrize("field", [QQ, GF(7), GF(5, 3), rational_extension((-2, 0, 1))],
                         ids=lambda f: f.label())
def test_comb_agrees_with_dot(field):
    # entry i of the vector kernel is the scalar kernel on the i-th column,
    # down to the canonical value's representation
    rng = random.Random(20261019)
    for _ in range(80):
        k, n = rng.randint(1, 4), rng.randint(0, 6)
        cs = [_raw_value(field, rng) for _ in range(k)]
        vs = [[_raw_value(field, rng) for _ in range(n)] for _ in range(k)]
        got = field._raw_comb(cs, vs)
        want = [field._raw_dot(cs, [v[i] for v in vs], (), ()) for i in range(n)]
        assert [repr(x) for x in got] == [repr(x) for x in want]
