"""Exact arithmetic for divisor classes on hyperelliptic curves.

Degree-(g+1) divisors in general position on Y^2 = F(X) are represented
by triples of linear forms (u, v, w) with F = W^2 - U*V.  The package
implements the orthogonal-group action on these triples, canonical forms
for the representation subgroup, a constructive decision procedure for
equality of divisor classes (with verified witness matrices), the
quadratic-form invariant detecting rationality modulo the hyperelliptic
involution, and Frobenius rationality checks over finite fields.
"""

from .fields import GF, QQ, Field, FieldElement, embed, rational_extension
from .poly import Polynomial, gcd, is_squarefree, roots_in_field
from .curves import Curve, infinity_points, make_curve, form_to_poly, poly_to_form
from .triples import (
    Triple,
    act,
    canonicalize,
    canonicalize_with_matrix,
    conjugate,
    divisor_data,
    make_triple,
    support,
    triple_from_polys,
)
from .ortho import (
    OrthogonalMatrix,
    classify,
    enumerate_special_orthogonal,
    flip_matrix,
    pairing_matrix,
    reduction_matrix,
    scale_matrix,
    shift_matrix,
    swap_matrix,
    swap_shift_matrix,
)
from .quadform import (
    GramForm,
    decompose,
    gram,
    gram_to_poly,
    in_curve_forms,
    rank_radical,
)
from .equivalence import (
    ClassRelation,
    orbit_oracle,
    recover_transform,
    reduction_step,
    same_class,
    swap_step,
)
from .galois import (
    CaveatResult,
    GaloisContext,
    class_rational,
    class_rational_mod_conj,
    find_caveat_example,
    galois_context,
    galois_image,
)
from .sampling import random_b_word, random_orthogonal_word, random_proper_word, random_triple

__version__ = "0.1.0"
