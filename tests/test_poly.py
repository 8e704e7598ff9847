import random
from fractions import Fraction

import pytest

from conftest import element_crt, element_gcdext, long_division

from picforms.errors import DivisionByZero, ZeroPolynomial
from picforms.fields import GF, QQ, embed, rational_extension
from picforms.poly import (
    Polynomial,
    _bezout_coeffs,
    _crt_coeffs,
    _invert_mod_coeffs,
    _pow_coeffs,
    _product_coeffs,
    gcd,
    is_squarefree,
    roots_in_field,
)

F5 = GF(5)


def P(field, *coeffs):
    return Polynomial(field, coeffs)


def test_divmod_factorization():
    q, r = divmod(P(QQ, -1, 0, 0, 0, 1), P(QQ, -1, 0, 1))
    assert q == P(QQ, 1, 0, 1) and r.is_zero


def _random_coeff(field, rng):
    """A random element, zero about one time in four."""
    if rng.randrange(4) == 0:
        return field.zero()
    if field.p is not None:
        return field.random_element(rng)
    parts = [Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(field.m)]
    return field.elem(parts[0] if field.m == 1 else parts)


@pytest.mark.parametrize("field", [QQ, GF(7), GF(5, 3), rational_extension((-2, 0, 1))],
                         ids=lambda f: f.label())
def test_divmod_agrees_with_long_division(field):
    rng = random.Random(20261018)
    for _ in range(150):
        a = P(field, *(_random_coeff(field, rng) for _ in range(rng.randint(0, 9))))
        b = P(field, *(_random_coeff(field, rng) for _ in range(rng.randint(1, 6))))
        if b.is_zero:
            b = P(field, *(b.coeffs + (field.one(),)))
        q, r = divmod(a, b)
        ref_q, ref_r = long_division(a, b)
        assert (q.coeffs, r.coeffs) == (ref_q.coeffs, ref_r.coeffs)
        # same canonical values, down to the coefficient types
        for got, want in ((q, ref_q), (r, ref_r)):
            assert [repr(c.value) for c in got.coeffs] == [repr(c.value) for c in want.coeffs]
        assert q * b + r == a and r.degree < b.degree


@pytest.mark.parametrize("field", [QQ, GF(7), GF(5, 3), rational_extension((-2, 0, 1))],
                         ids=lambda f: f.label())
def test_add_sub_pow_agree_with_coefficientwise(field):
    rng = random.Random(11)
    zero = P(field)
    assert zero ** 0 == P(field, 1) and (zero ** 3).is_zero
    # a product with an empty operand has no coefficients
    cubic = P(field, 1, 2, 3)._raw()
    for a, b in (([], cubic), (cubic, []), ([], [])):
        assert _product_coeffs(field, a, b) == []
    for _ in range(60):
        a = P(field, *(_random_coeff(field, rng) for _ in range(rng.randint(0, 6))))
        b = P(field, *(_random_coeff(field, rng) for _ in range(rng.randint(0, 6))))
        n = max(a.degree, b.degree) + 1
        for got, want in ((a + b, [a[i] + b[i] for i in range(n)]),
                          (a - b, [a[i] - b[i] for i in range(n)])):
            assert got == P(field, *want)
            assert [repr(c.value) for c in got.coeffs] == [
                repr(c.value) for c in P(field, *want).coeffs]
        assert (a - a).is_zero and (a + b) - b == a
        acc = P(field, 1)
        for k in range(5):
            assert a ** k == acc
            if b.degree > 0:
                # the power modulo B, reduced after every product
                got = _pow_coeffs(field, a._raw(), k, b._raw())
                assert field._wrap(got) == long_division(acc, b)[1].coeffs
            acc = acc * a


@pytest.mark.parametrize("field", [QQ, GF(7), GF(5, 3), rational_extension((-2, 0, 1))],
                         ids=lambda f: f.label())
def test_gcdext_invert_mod_crt_agree_with_element_euclid(field):
    rng = random.Random(20261019)
    for _ in range(60):
        f, g = (P(field, *(_random_coeff(field, rng) for _ in range(rng.randint(0, 6))))
                for _ in range(2))
        if f.is_zero and g.is_zero:
            continue
        d, s = (P(field, *field._wrap(c)) for c in _bezout_coeffs(field, f._raw(), g._raw()))
        want = element_gcdext(f, g)
        assert (d.coeffs, s.coeffs) == (want[0].coeffs, want[1].coeffs)
        assert gcd(f, g).coeffs == want[0].coeffs
        # d - s f is the multiple t g of g
        assert s * f + want[2] * g == d and d.leading() == field.one()
        if g.degree > 0:
            if d.degree == 0:
                inv = _invert_mod_coeffs(field, f._raw(), g._raw())
                assert field._wrap(inv) == long_division(s, g)[1].coeffs
            else:
                with pytest.raises(DivisionByZero):
                    _invert_mod_coeffs(field, f._raw(), g._raw())
        # pairwise coprime moduli: distinct monic linear factors, and a square
        roots = rng.sample(range(3), 3)
        moduli = [P(field, -roots[0], 1) ** 2, P(field, -roots[1], 1), P(field, -roots[2], 1)]
        residues = [P(field, *(_random_coeff(field, rng) for _ in range(3))) for _ in moduli]
        w, mod = _crt_coeffs(field, [r._raw() for r in residues], [m._raw() for m in moduli])
        w = P(field, *field._wrap(w))
        assert w.coeffs == element_crt(residues, moduli).coeffs
        assert field._wrap(mod) == (moduli[0] * moduli[1] * moduli[2]).coeffs
        assert all((w - r) % m == P(field) for r, m in zip(residues, moduli))
    with pytest.raises(ZeroPolynomial):
        _bezout_coeffs(field, [], [])


def test_gcd_common_factor():
    assert gcd(P(QQ, -1, 0, 1), P(QQ, 1, 2, 1)) == P(QQ, 1, 1)


def test_mul_mod5():
    f = P(F5, 3, 0, 1)
    assert f * f == P(F5, 4, 0, 1, 0, 1)


def test_divmod_by_zero():
    with pytest.raises(DivisionByZero):
        divmod(P(F5, 1, 1), P(F5))


def test_degree_convention():
    assert P(QQ).degree == -1
    assert P(QQ, 3).degree == 0


def test_divmod_round_trip_random():
    rng = random.Random(5)
    for _ in range(500):
        field = F5 if rng.randrange(2) else GF(7)
        f = Polynomial(field, [field.random_element(rng) for _ in range(rng.randint(0, 7))])
        g = Polynomial(field, [field.random_element(rng) for _ in range(rng.randint(1, 5))])
        if g.is_zero:
            continue
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree


def test_squarefree_examples():
    assert is_squarefree(P(QQ, -1, 0, 0, 0, 1))
    assert not is_squarefree(P(QQ, 1, -2, 1))
    assert is_squarefree(P(F5, 2, 0, 4, 0, 1))
    with pytest.raises(ZeroPolynomial):
        is_squarefree(P(QQ))


def _has_repeated_root(f):
    """Brute-force oracle: enumerate the splitting extensions a repeated root
    can live in (its minimal polynomial m has m^2 | f, so deg m <= deg f / 2)
    and look for a common zero of f and f'."""
    fd = f.derivative()
    for d in range(1, max(f.degree // 2, 1) + 1):
        ext = GF(5, d) if d > 1 else F5
        fe, fde = f.embedded(ext), fd.embedded(ext)
        for x in ext.elements():
            if not fe(x) and not fde(x):
                return True
    return False


def test_squarefree_against_brute_force():
    # all monic polynomials of degree <= 4 over GF(5)
    for deg in range(1, 5):
        for idx in range(5 ** deg):
            coeffs = []
            k = idx
            for _ in range(deg):
                coeffs.append(k % 5)
                k //= 5
            coeffs.append(1)
            f = Polynomial(F5, coeffs)
            assert is_squarefree(f) == (not _has_repeated_root(f)), f


def test_roots_examples():
    assert [(r, m) for r, m in roots_in_field(P(F5, -1, 0, 1))] == \
        [(F5.elem(1), 1), (F5.elem(4), 1)]
    assert roots_in_field(P(F5, -2, 0, 1)) == []
    assert roots_in_field(P(QQ, 1, -2, 1)) == [(QQ.elem(1), 2)]
    assert roots_in_field(P(QQ, -1, 2)) == [(QQ.elem(Fraction(1, 2)), 1)]
    assert roots_in_field(P(QQ, 0, 0, 1)) == [(QQ.zero(), 2)]


def test_roots_in_extension():
    f = P(F5, -2, 0, 1)  # X^2 - 2, irreducible over GF(5)
    rts = roots_in_field(f, GF(5, 2))
    assert len(rts) == 2
    for r, m in rts:
        assert m == 1 and r * r == embed(F5.elem(2), GF(5, 2))


def test_gcdext_and_invert_mod():
    f, g = P(F5, 1, 0, 1), P(F5, 2, 3, 0, 1)
    d, s = (P(F5, *c) for c in _bezout_coeffs(F5, f._raw(), g._raw()))
    assert d == P(F5, 1) and (s * f - d) % g == P(F5)
    modulus = P(F5, 2, 0, 1)
    inv = P(F5, *_invert_mod_coeffs(F5, P(F5, 0, 1)._raw(), modulus._raw()))
    assert (inv * P(F5, 0, 1)) % modulus == Polynomial.one(F5)
    # X^2 + 1 = (X - 2)(X - 3) over GF(5) shares the factor X - 2 with X^2 - 4
    with pytest.raises(DivisionByZero):
        _invert_mod_coeffs(F5, f._raw(), P(F5, -4, 0, 1)._raw())
    with pytest.raises(ZeroPolynomial):
        _bezout_coeffs(F5, [], [])


def test_crt():
    m1, m2 = P(F5, -1, 1), P(F5, -2, 1)
    w, mod = _crt_coeffs(F5, [[3], [1]], [m1._raw(), m2._raw()])
    w = P(F5, *w)
    assert w % m1 == P(F5, 3) and w % m2 == P(F5, 1) and P(F5, *mod) == m1 * m2


def test_monic_and_leading():
    f = P(F5, 1, 0, 2)
    assert f.monic() == P(F5, 3, 0, 1)
    with pytest.raises(ZeroPolynomial):
        P(F5).monic()


def test_gcd_is_monic_random():
    rng = random.Random(11)
    for _ in range(100):
        f = Polynomial(F5, [F5.random_element(rng) for _ in range(rng.randint(1, 6))])
        g = Polynomial(F5, [F5.random_element(rng) for _ in range(rng.randint(1, 6))])
        if f.is_zero or g.is_zero:
            continue
        d = gcd(f, g)
        assert d.leading() == F5.one()
        assert (f % d).is_zero and (g % d).is_zero
