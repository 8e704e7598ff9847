"""Stable JSON encodings for every object the CLI reads or writes.

Scalars: rationals are strings "n/d" (or "n" when the denominator is 1);
finite-field elements are arrays of integers in [0, p), lowest degree
first; elements of a quadratic extension of the rationals are arrays of
rational strings.  Polynomials and linear forms are arrays of scalars,
lowest degree first.  Field descriptors are {"p": int | null, "m": int,
"modulus": [...]} with the modulus omitted when m = 1; null p means the
rationals.  Matrices and Gram forms are row-major arrays of scalars.

Readers accept only JSON integers (not booleans) and strings as scalars,
and only arrays and objects where the formats above name them; anything
else, a zero denominator, or a field degree m above ``MAX_FIELD_DEGREE``
raises ValueError.  Every document emitted
here is accepted unchanged by the matching reader, and ``dumps`` is
byte-stable (sorted keys, fixed layout).

``_parse_rational`` reads a JSON integer, or an ASCII string of the form
-?[0-9]+(/[0-9]+)?, as an integer pair with ``int`` alone, and builds
from it the one ``Fraction`` that the element holds.  Any other string
goes through ``Fraction(str)``, whose grammar differs between Python
versions (underscores, blanks around "/"), so each interpreter accepts
and rejects exactly the strings its own ``Fraction`` does.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .curves import make_curve
from .fields import GF, QQ, FieldElement, rational_extension
from .ortho import OrthogonalMatrix
from .quadform import GramForm
from .triples import make_triple

# the largest field degree m a document may declare.  Reading a field builds
# it (a default modulus found by Rabin's test, or a given one checked by it),
# and square roots and embeddings then work in it and in its quadratic
# extension, at a cost that grows steeply with m: {"p": 5, "m": 200} never
# finished.  The cap equals cli.MAX_EXT, which also caps the absolute degree
# of every extension the CLI builds, so each field it emits reads back; and
# GF(p^8) is built in well under a second for every p up to 2^61 - 1.
MAX_FIELD_DEGREE = 8


def field_to_json(field):
    out = {"p": field.p, "m": field.m}
    if field.modulus is not None:
        out["modulus"] = [_base_scalar_to_json(c) for c in field.modulus]
    return out


def field_from_json(obj):
    _typed(obj, dict, "a field descriptor must be a JSON object")
    p = obj.get("p")
    m = _typed(obj.get("m", 1), int, "p and m must be JSON integers")
    if m > MAX_FIELD_DEGREE:
        raise ValueError("field degree m = %d exceeds %d" % (m, MAX_FIELD_DEGREE))
    modulus = obj.get("modulus")
    if p is None:
        if m == 1:
            return QQ
        return rational_extension([_parse_rational(c) for c in _array(modulus)])
    _typed(p, int, "p and m must be JSON integers")
    if modulus is not None:
        return GF(p, m, [_parse_int(c) for c in _array(modulus)])
    return GF(p, m)


def _base_scalar_to_json(c):
    if isinstance(c, Fraction):
        return _rational_str(c)
    return int(c)


def _rational_str(fr):
    if fr.denominator == 1:
        return str(fr.numerator)
    return "%d/%d" % (fr.numerator, fr.denominator)


def _typed(x, kinds, what):
    # bool is a subclass of int, and int() would truncate a float
    if isinstance(x, bool) or not isinstance(x, kinds):
        raise ValueError("%s, not %s" % (what, type(x).__name__))
    return x


def _array(obj):
    return _typed(obj, (list, tuple), "expected a JSON array")


def _parse_int(c):
    return int(_typed(c, (int, str), "a scalar must be a JSON integer or string"))


def _parse_rational(c):
    """The rational scalar c as a Fraction, from the integer pair (n, d)
    that ``int`` reads when c is a JSON integer or a string of the form
    -?[0-9]+(/[0-9]+)?."""
    if not isinstance(c, str):
        return Fraction(_typed(c, int, "a scalar must be a JSON integer or string"))
    num, slash, den = c.partition("/")
    if (c.isascii() and (num[1:] if num[:1] == "-" else num).isdigit()
            and (den.isdigit() or not slash)):
        n, d = int(num), int(den) if slash else 1
        if d == 1:
            return Fraction(n)  # no gcd
        if d:
            return Fraction(n, d)
    # the other strings, and a zero denominator, as Fraction reads them
    try:
        return Fraction(c)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % c) from None


def scalar_to_json(e):
    field = e.field
    if field.is_rationals:
        return _rational_str(e.value)
    if field.p is not None:
        if field.m == 1:
            return [int(e.value)]
        return [int(c) for c in e.value]
    return [_rational_str(c) for c in e.value]


def scalar_from_json(field, obj):
    if field is QQ:
        return FieldElement(QQ, _parse_rational(obj))
    if isinstance(obj, (int, str)):
        obj = [obj]
    if field.p is not None:
        return field.elem([_parse_int(c) for c in _array(obj)])
    return field.elem([_parse_rational(c) for c in _array(obj)])


def scalars_to_json(seq):
    return [scalar_to_json(c) for c in seq]


def scalars_from_json(field, arr):
    return tuple(scalar_from_json(field, c) for c in _array(arr))


def poly_to_json(f):
    return scalars_to_json(f.coeffs)


def curve_to_json(curve):
    return {"field": field_to_json(curve.field), "coeffs": poly_to_json(curve.F)}


def curve_from_json(obj):
    field = field_from_json(obj["field"])
    return make_curve(scalars_from_json(field, obj["coeffs"]), field)


def triple_to_json(t, with_field=True):
    out = {
        "u": scalars_to_json(t.u),
        "v": scalars_to_json(t.v),
        "w": scalars_to_json(t.w),
    }
    if with_field:
        out["field"] = field_to_json(t.field)
    return out


def triple_from_json(curve, obj):
    field = field_from_json(obj["field"]) if "field" in obj else curve.field
    return make_triple(curve,
                       scalars_from_json(field, obj["u"]),
                       scalars_from_json(field, obj["v"]),
                       scalars_from_json(field, obj["w"]),
                       field=field)


def _rows_to_json(rows, field):
    return {"entries": [scalars_to_json(row) for row in rows], "field": field_to_json(field)}


def _rows_from_json(obj, default_field, what):
    """(rows, field) of a row-major document: a bare array of rows, or
    {"entries": rows, "field": ...?}, with the field defaulting to
    `default_field`."""
    if isinstance(obj, list):
        entries, field = obj, default_field
    else:
        entries = obj["entries"]
        field = field_from_json(obj["field"]) if "field" in obj else default_field
    if field is None:
        raise ValueError("%s JSON needs a field (explicit or from context)" % what)
    return tuple(scalars_from_json(field, row) for row in _array(entries)), field


def matrix_to_json(m):
    return _rows_to_json(m.rows, m.field)


def matrix_from_json(obj, default_field=None):
    return OrthogonalMatrix(*_rows_from_json(obj, default_field, "matrix"))


def gram_to_json(S):
    return _rows_to_json(S.entries, S.field)


def gram_from_json(obj, default_field=None):
    return GramForm(*_rows_from_json(obj, default_field, "form"))


def dumps(payload):
    """Canonical byte-stable rendering of a JSON payload."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
