"""Independent checks on the outputs of the benchmark workloads.

This module imports nothing from ``picforms``.  It reads outputs in the
package's documented JSON encoding (fields as {"p", "m", "modulus"},
scalars as "n/d" strings or coefficient arrays, triples as {"u", "v",
"w"}, matrices as {"entries", "field"}) and redoes the arithmetic with
its own exact field: integers mod p, GF(p^m) as coefficient tuples
reduced by the field's own modulus, ``Fraction`` for QQ, and pairs of
``Fraction`` for QQ[T]/(T^2 + c1 T + c0).

Every check raises :class:`CheckFailure` carrying a stable check id, so
the corruption self-test can tell which check caught a fault.
"""

from __future__ import annotations

from fractions import Fraction

KIND_EQUAL = "equal"
KIND_BOTH = "equal-and-self-conjugate"
KIND_CONJ = "conjugate-only"
KIND_DISTINCT = "distinct"


class CheckFailure(Exception):
    def __init__(self, check_id, detail):
        super().__init__("%s: %s" % (check_id, detail))
        self.check_id = check_id


def _require(cond, check_id, detail):
    if not cond:
        raise CheckFailure(check_id, detail)


# ---------------------------------------------------------------------------
# exact fields

class ExactField:
    """GF(p^m) (p prime) or QQ / QQ[T]/(modulus); values are coefficient tuples."""

    def __init__(self, p, modulus):
        self.p = p
        # monic modulus, lowest degree first; None for a prime field or QQ
        self.modulus = modulus
        self.m = 1 if modulus is None else len(modulus) - 1
        self.key = (p, modulus)

    def _c(self, c):
        return c % self.p if self.p else c

    def zero(self):
        return (self._c(0) if self.p else Fraction(0),) * self.m

    def one(self):
        return (self._c(1) if self.p else Fraction(1),) + self.zero()[1:]

    def const(self, c):
        return (self._c(c) if self.p else Fraction(c),) + self.zero()[1:]

    def add(self, a, b):
        return tuple(self._c(x + y) for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(self._c(x - y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self._c(-x) for x in a)

    def mul(self, a, b):
        m = self.m
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        mod = self.modulus
        for k in range(2 * m - 2, m - 1, -1):
            c = prod[k]
            if c:
                # X^k = X^(k-m) * X^m and X^m = -(mod_0 + ... + mod_{m-1} X^{m-1})
                for i in range(m):
                    prod[k - m + i] -= c * mod[i]
        return tuple(self._c(x) for x in prod[:m])

    def is_zero(self, a):
        return not any(a)

    def pow(self, a, n):
        out = self.one()
        while n:
            if n & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            n >>= 1
        return out

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if self.p:
            return self.pow(a, self.p ** self.m - 2)
        if self.m == 1:
            return (1 / a[0],)
        c0, c1 = self.modulus[0], self.modulus[1]
        x, y = a
        norm = x * x - x * y * c1 + y * y * c0
        return ((x - y * c1) / norm, -y / norm)

    def frobenius(self, a):
        return self.pow(a, self.p)

    def in_prime_field(self, a):
        return not any(a[1:])

    def embed_from(self, other, a):
        """Embed a value of a subfield: equal fields, or a prime field / QQ as constants."""
        if other.key == self.key:
            return a
        if other.p == self.p and other.m == 1:
            return (a[0],) + self.zero()[1:]
        raise CheckFailure("checker.embedding",
                           "no canonical embedding from degree %d into degree %d"
                           % (other.m, self.m))


_FIELDS = {}


def _rational(s):
    return Fraction(s) if isinstance(s, str) else Fraction(int(s))


def field_of(desc):
    p = desc["p"]
    mod = desc.get("modulus")
    if mod is not None:
        mod = tuple(int(c) % p for c in mod) if p else tuple(_rational(c) for c in mod)
    key = (p, mod)
    f = _FIELDS.get(key)
    if f is None:
        f = _FIELDS[key] = ExactField(p, mod)
    return f


def scalar_of(field, obj):
    if field.p is None and field.m == 1:
        return (_rational(obj),)
    if not isinstance(obj, list):
        obj = [obj]
    if field.p:
        vals = tuple(int(c) % field.p for c in obj)
    else:
        vals = tuple(_rational(c) for c in obj)
    if len(vals) != field.m:
        raise CheckFailure("checker.parse", "scalar of length %d in a degree-%d field"
                           % (len(vals), field.m))
    return vals


def larger(f1, f2):
    return f1 if f1.m >= f2.m else f2


# ---------------------------------------------------------------------------
# parsed objects

class Forms:
    """A triple (u, v, w) of coefficient lists over one exact field."""

    def __init__(self, field, u, v, w):
        self.field = field
        self.u, self.v, self.w = u, v, w

    def forms(self):
        return (self.u, self.v, self.w)

    def to(self, field):
        if field.key == self.field.key:
            return self
        return Forms(field, *[[field.embed_from(self.field, c) for c in form]
                              for form in self.forms()])

    def conjugate(self):
        return Forms(self.field, self.u, self.v, [self.field.neg(c) for c in self.w])

    def frobenius(self):
        f = self.field
        return Forms(f, *[[f.frobenius(c) for c in form] for form in self.forms()])


def triple_of(obj, default_field=None):
    field = field_of(obj["field"]) if "field" in obj else default_field
    return Forms(field, *[[scalar_of(field, c) for c in obj[k]] for k in ("u", "v", "w")])


def matrix_of(obj):
    field = field_of(obj["field"])
    return field, [[scalar_of(field, c) for c in row] for row in obj["entries"]]


def curve_poly(obj):
    field = field_of(obj["field"])
    return field, [scalar_of(field, c) for c in obj["coeffs"]]


# ---------------------------------------------------------------------------
# arithmetic on the parsed objects

def _poly_mul(f, a, b):
    out = [f.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = f.add(out[i + j], f.mul(x, y))
    return out


def _trim(f, a):
    a = list(a)
    while a and f.is_zero(a[-1]):
        a.pop()
    return a


def curve_residual_is_zero(t, curve):
    """W^2 - U*V == F over the triple's field."""
    cfield, F = curve
    f = t.field
    lhs = _poly_mul(f, t.w, t.w)
    uv = _poly_mul(f, t.u, t.v)
    diff = [f.sub(x, y) for x, y in zip(lhs, uv)]
    return _trim(f, diff) == _trim(f, [f.embed_from(cfield, c) for c in F])


def gram(t):
    """Entry (i, j) is w_i w_j - (u_i v_j + u_j v_i) / 2."""
    f = t.field
    half = f.inv(f.const(2))
    n = len(t.u)
    return [[f.sub(f.mul(t.w[i], t.w[j]),
                   f.mul(half, f.add(f.mul(t.u[i], t.v[j]), f.mul(t.u[j], t.v[i]))))
             for j in range(n)] for i in range(n)]


def _mat_mul(f, a, b):
    return [[_dot(f, row, [b[k][j] for k in range(len(b))]) for j in range(len(b[0]))]
            for row in a]


def _dot(f, x, y):
    acc = f.zero()
    for a, b in zip(x, y):
        acc = f.add(acc, f.mul(a, b))
    return acc


def _det3(f, a):
    m = f.mul
    terms = (
        m(a[0][0], f.sub(m(a[1][1], a[2][2]), m(a[1][2], a[2][1]))),
        m(a[0][1], f.sub(m(a[1][0], a[2][2]), m(a[1][2], a[2][0]))),
        m(a[0][2], f.sub(m(a[1][0], a[2][1]), m(a[1][1], a[2][0]))),
    )
    return f.add(f.sub(terms[0], terms[1]), terms[2])


def act(f, rows, t):
    """The triple whose forms are rows @ (u, v, w), over field f."""
    forms = t.to(f).forms()
    n = len(forms[0])
    out = []
    for row in rows:
        acc = [f.zero()] * n
        for c, form in zip(row, forms):
            acc = [f.add(a, f.mul(c, x)) for a, x in zip(acc, form)]
        out.append(acc)
    return Forms(f, *out)


# ---------------------------------------------------------------------------
# checks

def check_witness(matrix_obj, t1, target, label):
    """A verified proper witness: W^T Omega W = Omega for the pairing of
    w^2 - u v, det W = 1, and W . t1 = target entry by entry."""
    _check_witness_rows(*matrix_of(matrix_obj), t1, target, label)


def _check_witness_rows(wf, rows, t1, target, label):
    f = larger(wf, larger(t1.field, target.field))
    rows = [[f.embed_from(wf, c) for c in row] for row in rows]
    src, dst = t1.to(f), target.to(f)
    neg_half = f.neg(f.inv(f.const(2)))
    z, one = f.zero(), f.one()
    omega = [[z, neg_half, z], [neg_half, z, z], [z, z, one]]
    wt = [list(col) for col in zip(*rows)]
    _require(_mat_mul(f, _mat_mul(f, wt, omega), rows) == omega,
             "witness.orthogonal", "%s does not preserve the pairing" % label)
    _require(_det3(f, rows) == one, "witness.det", "%s has determinant != 1" % label)
    _require(act(f, rows, src).forms() == dst.forms(),
             "witness.action", "%s does not carry t1 to its target" % label)


def check_relation(rel, t1, t2, word=None):
    """Check a class-relation record {kind, witness?, conjugate_witness?}.

    ``word`` is "proper" or "improper" when t2 was made from t1 by a
    verified word, None when the pair was drawn independently.
    """
    kind = rel["kind"]
    _require(kind in (KIND_EQUAL, KIND_BOTH, KIND_CONJ, KIND_DISTINCT),
             "verdict.kind", "unknown verdict %r" % kind)
    if gram(t1.to(larger(t1.field, t2.field))) != gram(t2.to(larger(t1.field, t2.field))):
        _require(kind == KIND_DISTINCT, "verdict.gram",
                 "Gram matrices differ but the verdict is %r" % kind)
    if word == "proper":
        _require(kind in (KIND_EQUAL, KIND_BOTH), "verdict.word",
                 "a proper word gave %r" % kind)
    elif word == "improper":
        _require(kind in (KIND_CONJ, KIND_BOTH), "verdict.word",
                 "an improper word gave %r" % kind)
    want_w = kind in (KIND_EQUAL, KIND_BOTH)
    want_c = kind in (KIND_CONJ, KIND_BOTH)
    _require((rel.get("witness") is not None) == want_w
             and (rel.get("conjugate_witness") is not None) == want_c,
             "verdict.witnesses", "witnesses do not match the verdict %r" % kind)
    if want_w:
        check_witness(rel["witness"], t1, t2, "witness")
    if want_c:
        check_witness(rel["conjugate_witness"], t1, t2.conjugate(), "conjugate witness")


def check_word(word_obj, t1, t2, improper):
    """The generated word is orthogonal with the stated sign and maps t1 to t2."""
    f, rows = matrix_of(word_obj)
    if improper:
        # flip the sign of w: (u, v, w) -> (u, v, -w) makes the word proper
        rows = [rows[0], rows[1], [f.neg(c) for c in rows[2]]]
        t2 = t2.conjugate()
    _check_witness_rows(f, rows, t1, t2, "word")


def scalar_to_json(f, c):
    """The documented JSON form of a value of the exact field f."""
    if f.p:
        return list(c)
    if f.m == 1:
        return str(c[0])
    return [str(x) for x in c]


def check_on_curve(t, curve):
    _require(curve_residual_is_zero(t, curve), "triple.on_curve", "W^2 - U V != F")


def check_caveat(res, curve, budget, conj_witness):
    """A hit lies on the curve, has a Frobenius-fixed Gram matrix and a verified
    conjugate witness to its Frobenius image; a miss searched the whole budget."""
    if not res["found"]:
        _require(res["searched"] == budget, "caveat.searched",
                 "a miss searched %r of %d" % (res["searched"], budget))
        return
    _require(1 <= res["searched"] <= budget, "caveat.searched",
             "a hit after %r of %d samples" % (res["searched"], budget))
    t = triple_of(res["triple"])
    check_on_curve(t, curve)
    _require(all(t.field.in_prime_field(c) for row in gram(t) for c in row),
             "caveat.gram_base", "a Gram entry lies outside the base field")
    _require(conj_witness is not None, "caveat.witness_missing",
             "no conjugate witness to the Frobenius image")
    check_witness(conj_witness, t, t.frobenius().conjugate(), "caveat witness")


def check_canonical(out, t_in):
    """triple-canonical: monic U, W's coefficient at deg U is zero, and the
    b_matrix maps the input onto the canonical triple."""
    canon = triple_of(out["triple"])
    f = canon.field
    top = max(i for i, c in enumerate(canon.u) if not f.is_zero(c))
    _require(canon.u[top] == f.one(), "canonical.monic", "U is not monic")
    _require(f.is_zero(canon.w[top]), "canonical.w_top", "W has a term at X^deg U")
    bf, rows = matrix_of(out["b_matrix"])
    g = larger(bf, larger(f, t_in.field))
    _require(act(g, rows, t_in).forms() == canon.to(g).forms(), "canonical.b_matrix",
             "b_matrix does not map the input to the canonical triple")


def check_gram_output(out, t_in):
    f, rows = matrix_of(out)
    g = larger(f, t_in.field)
    mine = gram(t_in.to(g))
    theirs = [[g.embed_from(f, c) for c in row] for row in rows]
    _require(mine == theirs, "gram.entries", "Gram entries differ from the checker's")


def check_decompose(out, form_obj, curve):
    t = triple_of(out["triple"])
    check_on_curve(t, curve)
    f, rows = matrix_of(form_obj)
    g = larger(f, t.field)
    _require(gram(t.to(g)) == [[g.embed_from(f, c) for c in row] for row in rows],
             "decompose.gram", "the decomposed triple has another Gram matrix")


def check_repeat(first, again):
    """A later round of the pool gives exactly the first round's output."""
    _require(again == first, "repeat.same", "the output differs from round one")


def check_galois_class(out, t_in, known_rational):
    """Class rationality implies a Frobenius-fixed Gram matrix; a triple that is a
    proper word applied to a base-field triple has a rational class."""
    rational = out["rational"]
    if known_rational:
        _require(rational is True, "galois.known_rational",
                 "a class defined over the base field was reported non-rational")
    fixed = all(t_in.field.in_prime_field(c) for row in gram(t_in) for c in row)
    if rational:
        _require(fixed, "galois.necessary",
                 "a rational class with a Gram matrix not fixed by Frobenius")
