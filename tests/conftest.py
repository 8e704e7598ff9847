import importlib.util
import os
import random
import sys

import pytest

from picforms.fields import GF, QQ
from picforms.curves import make_curve
from picforms.ortho import scale_matrix, shift_matrix
from picforms.poly import Polynomial, is_squarefree
from picforms.sampling import random_orthogonal_word, random_proper_word
from picforms.triples import act, make_triple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tool(name):
    """The script tools/<name> loaded as a module, without running its main."""
    spec = importlib.util.spec_from_file_location(
        name.removesuffix(".py"), os.path.join(ROOT, "tools", name))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.fixture(scope="session")
def curve_q():
    return make_curve([-1, 0, 0, 0, 1], QQ)


@pytest.fixture(scope="session")
def curve_f5a():
    return make_curve([-1, 0, 0, 0, 1], GF(5))


@pytest.fixture(scope="session")
def curve_f5b():
    return make_curve([2, 0, 4, 0, 1], GF(5))


def seeded_curve(field, genus, seed):
    """The first squarefree model of the given genus drawn from the seed."""
    p = field.p
    rng = random.Random(seed)
    while True:
        coeffs = [rng.randrange(p) for _ in range(2 * genus + 2)] + [rng.randrange(1, p)]
        F = Polynomial(field, coeffs)
        if is_squarefree(F):
            return make_curve(F, field)


@pytest.fixture(scope="session")
def curve_f7():
    """A genus-2 model: deterministic pseudo-random squarefree sextic over GF(7)."""
    return seeded_curve(GF(7), 2, 20260810)


@pytest.fixture(scope="session")
def triple_a(curve_q):
    """(1, 1, X^2) on Y^2 = X^4 - 1."""
    return make_triple(curve_q, (1, 0, 0), (1, 0, 0), (0, 0, 1))


@pytest.fixture(scope="session")
def triple_b(curve_q):
    """(X^2 - 1, -X^2 - 1, 0) on Y^2 = X^4 - 1."""
    return make_triple(curve_q, (-1, 0, 1), (-1, 0, -1), (0, 0, 0))


def rational_triples(curve, rng, n):
    """Pseudo-random rational triples: proper words acting on two seeds."""
    seeds = [
        make_triple(curve, (1, 0, 0), (1, 0, 0), (0, 0, 1)),
        make_triple(curve, (-1, 0, 1), (-1, 0, -1), (0, 0, 0)),
    ]
    out = []
    for _ in range(n):
        seed = seeds[rng.randrange(len(seeds))]
        out.append(act(random_proper_word(curve.field, rng), seed))
    return out


def extension_word(root, rng, improper=False):
    """A random word over root's field, a quadratic extension of QQ, with
    irrational entries: the sampler's word (rational parameters) times a
    shift by root and a scaling by root + 1."""
    field = root.field
    return (random_orthogonal_word(field, rng, improper=improper)
            @ shift_matrix(root * field.elem(rng.randint(1, 3))) @ scale_matrix(root + 1))


def count_calls(monkeypatch, module, name):
    """Count the calls of module.name through every picforms module that binds it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("picforms") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


# -- reference oracles on plain element arithmetic ------------------------------

def det(rows, field):
    """Determinant by Gaussian elimination with element inverses; the
    reference for the cofactor determinant inside ``ortho.classify``."""
    rows = [list(r) for r in rows]
    n = len(rows)
    acc = field.one()
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            return field.zero()
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            acc = -acc
        acc = acc * rows[c][c]
        inv = rows[c][c].inverse()
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return acc


def element_row_reduce(rows, ncols):
    """(rows, pivots): Gauss-Jordan elimination with the element operators
    on the first ncols columns; the reference for ``linalg._row_reduce``."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def row_by_column(a, b):
    """a @ b entry by entry with the element operators * and +; the
    reference for ``linalg._mat_mul_raw``."""
    out = []
    for row in a:
        new = []
        for j in range(len(b[0])):
            acc = row[0] * b[0][j]
            for k in range(1, len(b)):
                acc = acc + row[k] * b[k][j]
            new.append(acc)
        out.append(tuple(new))
    return tuple(out)


def long_division(a, b):
    """divmod(a, b) step by step with the element operators * and -; the
    reference for ``Polynomial.__divmod__``."""
    field = a.field
    rem = list(a.coeffs)
    db = b.degree
    inv = b.coeffs[-1].inverse()
    q = [field.zero()] * max(len(rem) - db, 0)
    while len(rem) - 1 >= db and rem:
        k = len(rem) - 1 - db
        f = rem[-1] * inv
        q[k] = f
        for i, bc in enumerate(b.coeffs):
            rem[i + k] = rem[i + k] - f * bc
        while rem and not rem[-1]:
            rem.pop()
    return Polynomial(field, tuple(q)), Polynomial(field, tuple(rem))


def element_gcdext(f, g):
    """(d, s, t) by the extended Euclidean algorithm on element
    polynomials; the reference for ``poly._bezout_coeffs``."""
    field = f.field
    r0, r1 = f, g
    s0, s1 = Polynomial.one(field), Polynomial.zero(field)
    t0, t1 = Polynomial.zero(field), Polynomial.one(field)
    while not r1.is_zero:
        q, r = long_division(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    lc = r0.leading().inverse()
    return r0 * lc, s0 * lc, t0 * lc


def element_crt(residues, moduli):
    """The Chinese remainder chain on element polynomials; the reference for
    ``poly._crt_coeffs``."""
    acc, mod = long_division(residues[0], moduli[0])[1], moduli[0]
    for r, m in zip(residues[1:], moduli[1:]):
        delta = long_division(r - acc, m)[1]
        inv = long_division(element_gcdext(mod, m)[1], m)[1]
        acc = acc + mod * long_division(delta * inv, m)[1]
        mod = mod * m
    return long_division(acc, mod)[1]
