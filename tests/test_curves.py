import random
from fractions import Fraction

import pytest

from picforms.curves import (
    form_to_poly,
    infinity_points,
    make_curve,
    poly_to_form,
)
from picforms.errors import (
    DegreeTooHigh,
    FactorizationNeedsExtension,
    NotSquarefree,
    WrongDegreeParity,
    ZeroLeadingCoefficient,
)
from picforms.fields import GF, QQ, embed, rational_extension
from picforms.poly import Polynomial

F5 = GF(5)


def test_make_curve_examples():
    c = make_curve([-1, 0, 0, 0, 1], QQ)
    assert c.genus == 1
    c5 = make_curve([2, 0, 4, 0, 1], F5)
    assert c5.genus == 1
    # (X-1)^2 (X^2+1) = X^4 - 2X^3 + 2X^2 - 2X + 1
    with pytest.raises(NotSquarefree):
        make_curve([1, -2, 2, -2, 1], QQ)


def test_make_curve_degree_errors():
    with pytest.raises(WrongDegreeParity):
        make_curve([1, 0, 0, 1], QQ)  # cubic
    with pytest.raises(WrongDegreeParity):
        make_curve([1, 1], QQ)
    with pytest.raises(ZeroLeadingCoefficient):
        make_curve([-1, 0, 0, 0, 1, 0], QQ)
    with pytest.raises(WrongDegreeParity):
        make_curve([], QQ)


def test_genus_derived():
    sextic = make_curve([3, 0, 0, 1, 0, 0, 1], GF(7))
    assert sextic.genus == 2


def test_infinity_square_in_base():
    inf = infinity_points(make_curve([-1, 0, 0, 0, 1], QQ))
    assert inf.sqrt_status == "square-in-base"
    assert inf.roots == (QQ.elem(1), QQ.elem(-1))
    inf5 = infinity_points(make_curve([2, 0, 4, 0, 1], F5))
    assert inf5.sqrt_status == "square-in-base"
    assert set(inf5.roots) == {F5.elem(1), F5.elem(4)}


def test_infinity_quadratic_extension():
    # leading coefficient 2 is a non-square mod 5
    c = make_curve([1, 0, 0, 0, 2], F5)
    inf = infinity_points(c)
    assert inf.sqrt_status == "square-in-quadratic-extension"
    assert inf.field == GF(5, 2)
    for r in inf.roots:
        assert r * r == embed(F5.elem(2), inf.field)
    assert inf.roots[1] == -inf.roots[0]


def test_infinity_roots_square_exactly_qq():
    c = make_curve([1, 0, 0, 0, 3], QQ)
    inf = infinity_points(c)
    assert inf.sqrt_status == "square-in-quadratic-extension"
    for r in inf.roots:
        assert r * r == embed(QQ.elem(3), inf.field)


def test_infinity_over_rational_extension_needs_extension():
    # 3 is not a square in QQ(sqrt 2), and no square root is taken above it
    c = make_curve([-1, 0, 0, 0, 3], rational_extension((-2, 0, 1)))
    with pytest.raises(FactorizationNeedsExtension):
        infinity_points(c)


def test_infinity_over_rational_extension_in_base():
    # leading coefficients 1, 2 = (sqrt 2)^2 and 3 + 2 sqrt 2 = (1 + sqrt 2)^2
    field = rational_extension((-2, 0, 1))
    for lead, root in (((1, 0), (1, 0)), ((2, 0), (0, 1)), ((3, 2), (1, 1))):
        c = make_curve([-1, 0, 0, 0, field.elem(lead)], field)
        inf = infinity_points(c)
        assert inf.sqrt_status == "square-in-base" and inf.field is field
        assert inf.roots == (field.elem(root), -field.elem(root))


def test_form_poly_examples():
    assert form_to_poly((QQ.elem(1), QQ.zero(), QQ.zero())) == Polynomial(QQ, (1,))
    assert form_to_poly((QQ.zero(), QQ.zero(), QQ.elem(1))) == Polynomial(QQ, (0, 0, 1))
    assert form_to_poly((F5.elem(3), F5.zero(), F5.elem(1))) == Polynomial(F5, (3, 0, 1))


def test_poly_form_round_trip_examples():
    f = Polynomial(QQ, (-1, 0, 1))
    assert poly_to_form(f, 1) == (QQ.elem(-1), QQ.zero(), QQ.elem(1))
    assert poly_to_form(Polynomial(QQ), 1) == (QQ.zero(),) * 3
    with pytest.raises(DegreeTooHigh):
        poly_to_form(Polynomial(QQ, (0, 0, 0, 1)), 1)


def test_lambda_linear_bijection_random():
    rng = random.Random(2)
    genus = 2
    for _ in range(200):
        form = tuple(QQ.elem(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                     for _ in range(genus + 2))
        assert poly_to_form(form_to_poly(form, QQ), genus) == form
        other = tuple(QQ.elem(rng.randint(-9, 9)) for _ in range(genus + 2))
        a = QQ.elem(rng.randint(-5, 5))
        lhs = form_to_poly(tuple(a * s + t for s, t in zip(form, other)), QQ)
        assert lhs == a * form_to_poly(form, QQ) + form_to_poly(other, QQ)
        f = Polynomial(QQ, [rng.randint(-9, 9) for _ in range(genus + 2)])
        assert form_to_poly(poly_to_form(f, genus), QQ) == f
