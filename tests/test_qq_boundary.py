"""The QQ boundary on integers: the rational reader, the squarefree
certificate mod p and the curve identity of a triple, each against the
exact answer it stands in for."""

import json
import random
from fractions import Fraction
from math import prod

import pytest

from picforms import serialize
from picforms.cli import EXIT_DOMAIN, EXIT_INPUT, EXIT_OK, run_command
from picforms.curves import make_curve
from picforms.errors import NotOnCurve
from picforms.fields import QQ
from picforms.ortho import scale_matrix, shift_matrix
from picforms.poly import (_CERTIFICATE_PRIMES, Polynomial, _squarefree_prime, gcd,
                           is_squarefree)
from picforms.sampling import random_proper_word
from picforms.triples import act, make_triple

P1, P2, P3, P4 = _CERTIFICATE_PRIMES
QQ_FIELD = {"p": None, "m": 1}


def _exactly_squarefree(f):
    return gcd(f, f.derivative()).degree == 0


@pytest.fixture()
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)
    return write


# -- the rational reader --------------------------------------------------------

# strings inside -?[0-9]+(/[0-9]+)? and around it; "1_0/3" and "1/ 2" are
# read differently by Fraction on different Python versions
READER_TABLE = [
    "1/-2", " 3/4 ", "1_0/3", "1/ 2", "1.5", "1e2", "+3", "٣/4", "2.", ".5",
    "/2", "2/", "", "1/0", "-0/5",
    "0", "-0", "7", "-12/35", "6/4", "007/010", "1/00", "3/-0", "--1", "- 1",
    "-", "1//2", "1/2/3", "1 /2", "\t5\n", "１２", "½", "²",
    "0x10", "1e-2", "nan", "inf", "12345678901234567890123/98765432109876543211",
    "1" * 5000, "1/" + "3" * 5000,
]


@pytest.mark.parametrize("s", READER_TABLE)
def test_rational_reader_agrees_with_fraction(s):
    try:
        expected = Fraction(s)
    except (ValueError, ZeroDivisionError):
        expected = None
    if expected is None:
        with pytest.raises(ValueError):
            serialize.scalar_from_json(QQ, s)
    else:
        got = serialize.scalar_from_json(QQ, s)
        assert type(got.value) is Fraction and got.value == expected


def test_rational_reader_keeps_the_zero_denominator_message():
    for s in ("1/0", "-3/00"):
        with pytest.raises(ValueError, match="^zero denominator in %r$" % s):
            serialize.scalar_from_json(QQ, s)


def test_rational_reader_takes_json_integers():
    for n in (-7, 0, 10 ** 30):
        got = serialize.scalar_from_json(QQ, n)
        assert type(got.value) is Fraction and got.value == n


# -- the squarefree certificate ---------------------------------------------------

def test_certificate_falls_back_when_the_reduction_is_not_squarefree():
    # X^4 + 2X^2 + P1 X + 1 is (X^2 + 1)^2 mod P1, but squarefree over QQ
    f = Polynomial(QQ, (1, P1, 2, 0, 1))
    assert _squarefree_prime(f) is None
    assert _exactly_squarefree(f)
    assert is_squarefree(f)
    curve = make_curve(f, QQ)
    assert curve.F == f


def test_certificate_skips_primes_dividing_the_leading_coefficient():
    assert _squarefree_prime(Polynomial(QQ, (-1, 0, 0, 0, 1))) == P1
    assert _squarefree_prime(Polynomial(QQ, (-1, 0, 0, 0, P1 * P2))) == P3
    # the leading coefficient is cleared first: P1 P2 P3 / 7 times 7
    f = Polynomial(QQ, (Fraction(-1, 7), 0, 0, 0, Fraction(P1 * P2 * P3, 7)))
    assert _squarefree_prime(f) == P4
    # every prime divides it: no certificate, and the exact gcd decides
    f = Polynomial(QQ, (-1, 0, 0, 0, P1 * P2 * P3 * P4))
    assert _squarefree_prime(f) is None
    assert is_squarefree(f)


def test_certificate_never_passes_a_repeated_factor():
    rng = random.Random(2101)
    for _ in range(200):
        g = Polynomial(QQ, [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                            for _ in range(rng.randint(2, 4))])
        h = Polynomial(QQ, [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))])
        if g.degree < 1 or h.is_zero:
            continue
        f = g * g * h
        assert _squarefree_prime(f) is None
        assert not is_squarefree(f)
        k = Polynomial(QQ, [rng.randint(-30, 30) for _ in range(rng.randint(2, 7))])
        if k.degree >= 1:
            assert is_squarefree(k) == _exactly_squarefree(k)


def test_non_squarefree_qq_curve_errors_unchanged(files):
    curve = files("c.json", {"field": QQ_FIELD, "coeffs": ["1", "0", "2", "0", "1"]})
    t = files("t.json", {"u": ["1", "0", "0"], "v": ["1", "0", "0"], "w": ["0", "0", "1"]})
    code, payload = run_command(["curve-validate", "--curve", curve])
    assert code == EXIT_OK
    assert payload == {"valid": False, "reason": "NotSquarefree",
                       "detail": "F has a repeated root"}
    code, payload = run_command(["class-relation", "--curve", curve, "--t1", t, "--t2", t])
    assert code == EXIT_INPUT
    assert payload == {"error": {"kind": "InputError",
                                 "detail": "invalid curve: NotSquarefree: F has a repeated root"}}


# -- the curve identity on integers -------------------------------------------------

def test_identity_stays_exact_modulo_every_certificate_prime(files):
    # (1, 1, X^2) lies on Y^2 = X^4 - 1, so on X^4 - 1 + P only mod each prime of P
    P = prod(_CERTIFICATE_PRIMES)
    shifted = make_curve([P - 1, 0, 0, 0, 1], QQ)
    with pytest.raises(NotOnCurve, match=r"^W\^2 - U\*V != F$"):
        make_triple(shifted, (1, 0, 0), (1, 0, 0), (0, 0, 1))
    curve = files("c.json", serialize.curve_to_json(shifted))
    t = files("t.json", {"u": ["1", "0", "0"], "v": ["1", "0", "0"], "w": ["0", "0", "1"]})
    code, payload = run_command(["triple-validate", "--curve", curve, "--t1", t])
    assert code == EXIT_OK
    assert payload == {"valid": False, "reason": "NotOnCurve", "detail": "W^2 - U*V != F"}
    code, payload = run_command(["class-relation", "--curve", curve, "--t1", t, "--t2", t])
    assert code == EXIT_DOMAIN
    assert payload == {"error": {"kind": "NotOnCurve", "detail": "W^2 - U*V != F"}}


def test_identity_accepts_large_coprime_denominators(curve_q, triple_a, files):
    # scale by c and shift by b, with pairwise coprime denominators of 20+ digits
    c = Fraction(10 ** 20 + 39, 3 ** 45)
    b = Fraction(-(2 ** 61 - 1), 10 ** 21 + 117)
    m = shift_matrix(QQ.elem(b)) @ scale_matrix(QQ.elem(c))
    t = act(random_proper_word(QQ, random.Random(7), 3) @ m, triple_a)
    assert max(x.value.denominator for x in t.u + t.v + t.w) > 10 ** 40
    assert make_triple(curve_q, t.u, t.v, t.w) == t
    blob = serialize.triple_to_json(t)
    assert serialize.triple_from_json(curve_q, blob) == t
    curve = files("c.json", serialize.curve_to_json(curve_q))
    code, payload = run_command(["triple-validate", "--curve", curve,
                                 "--t1", files("t.json", blob)])
    assert code == EXIT_OK and payload["valid"] is True


def test_identity_rejects_a_perturbed_large_triple(curve_q, triple_a):
    c = Fraction(10 ** 20 + 39, 3 ** 45)
    t = act(scale_matrix(QQ.elem(c)), triple_a)
    v = (t.v[0] + QQ.elem(Fraction(1, 3 ** 90)),) + t.v[1:]
    with pytest.raises(NotOnCurve):
        make_triple(curve_q, t.u, v, t.w)
