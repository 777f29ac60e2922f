"""Every input guard of the library, reached on public input, plus the
variable-renaming paths that only permuted variable tuples take."""

import re
from fractions import Fraction

import pytest

from dptheta import detrep, kernels, lattice as lt, nodal, poly, spin, text, theta_f2
from dptheta.poly import MultiPoly, parse_poly

LAT2, LAT3 = lt.make_lattice(2), lt.make_lattice(3)
V = ("x", "y")
X = MultiPoly.variable(V, "x")
L3, E1 = lt.divisor(LAT3, 1), lt.class_E(LAT3, 1)


def set_attribute():
    X.terms = {}


GUARDS = [
    # (id, call, exception, message pattern)
    ("determinant-not-square", lambda: kernels.determinant([[1, 2]]),
     ValueError, "not square"),
    ("determinant-empty", lambda: kernels.determinant([]),
     ValueError, "empty matrix"),
    ("divisor-too-many", lambda: lt.divisor(LAT3, 1, *[0] * 7),
     ValueError, "too many exceptional"),
    ("class-E-index", lambda: lt.class_E(LAT3, 0), ValueError, "index 0 out of range"),
    ("reflect-non-root", lambda: lt.reflect(LAT3, L3, L3),
     ValueError, "self-intersection -2"),
    ("geiser-degree-3", lambda: lt.geiser(LAT3, L3), ValueError, "requires degree 2"),
    ("double-six-degree-2", lambda: lt.double_six_partner(LAT2, lt.divisor(LAT2, 1)),
     ValueError, "requires degree 3"),
    ("double-six-not-blowdown", lambda: lt.double_six_partner(LAT3, E1),
     ValueError, "not a blow-down"),
    ("contracted-not-blowdown", lambda: lt.contracted_lines(LAT3, E1),
     ValueError, "not a blow-down"),
    ("parse-class-empty", lambda: lt.parse_class("[ ]"), ValueError, "empty divisor"),
    # one optional bracket pair, and one comma at most between two entries
    ("parse-class-unbalanced", lambda: lt.parse_class("[3, -1, -1, 0"),
     ValueError, r"^malformed divisor class '\[3, -1, -1, 0'$"),
    ("parse-class-doubled", lambda: lt.parse_class("]]3 -1 -1 0[["),
     ValueError, r"^malformed divisor class '\]\]3 -1 -1 0\[\['$"),
    ("parse-class-empty-entry", lambda: lt.parse_class("[1, -1,, -1]"),
     ValueError, r"^malformed divisor class '\[1, -1,, -1\]'$"),
    # an integer literal is ASCII digits after at most one sign, as in a file
    ("int-underscore", lambda: text.parse_int("1_0"), ValueError, "^not an integer: '1_0'$"),
    ("int-arabic-indic", lambda: text.parse_int("١١"), ValueError, "^not an integer: '١١'$"),
    ("graph-genus-underscore", lambda: spin.parse_graph("v 1_0\n"),
     ValueError, "^not an integer: '1_0'$"),
    ("poly-arabic-indic", lambda: parse_poly("١*x0^٣", ("x0",)),
     ValueError, "^cannot tokenize '١\\*x0\\^٣'$"),
    ("multipoly-immutable", set_attribute, AttributeError, "immutable"),
    ("variable-mismatch", lambda: X + MultiPoly.variable(("x",), "x"),
     ValueError, "variable mismatch"),
    ("multipoly-repeated-name", lambda: MultiPoly(("x", "x"), {(1, 0): 1, (0, 1): 2}),
     ValueError, "repeated variable name"),
    ("constant-repeated-name", lambda: MultiPoly.constant(("x", "x"), 1),
     ValueError, "repeated variable name"),
    ("variable-repeated-name", lambda: MultiPoly.variable(("x", "x"), "x"),
     ValueError, "repeated variable name"),
    ("rename-repeated-target", lambda: X.rename_vars(("x", "y", "x")),
     ValueError, "repeated variable name"),
    ("parse-repeated-name", lambda: parse_poly("x + 2*x", ("x", "x")),
     ValueError, "repeated variable name"),
    ("negative-power", lambda: X ** -1, ValueError, "negative power"),
    ("rename-drops-used", lambda: X.rename_vars(("y",)),
     ValueError, "x used but absent"),
    ("resultant-absent", lambda: poly.resultant(X, X, "y"),
     ValueError, "absent from both"),
    ("resultant-zero", lambda: poly.resultant(X, MultiPoly.zero(V), "x"),
     ValueError, "zero polynomial"),
    ("uni-divmod-zero", lambda: poly.uni_divmod([Fraction(1)], []),
     ZeroDivisionError, "zero polynomial"),
    ("yun-zero", lambda: poly.squarefree_multiplicities([]),
     ValueError, "zero polynomial"),
    ("negative-vertex-genus", lambda: spin.DualGraph([2, -1], [(0, 1)]),
     ValueError, "nonnegative"),
    ("graph-no-vertex", lambda: spin.DualGraph((), ()),
     ValueError, "^graph needs at least one vertex$"),
    ("theta-counts-negative", lambda: spin.theta_counts(-1), ValueError, "nonnegative"),
    ("odd-subset-class", lambda: theta_f2.EvenSubsetClass([1]),
     ValueError, "not an even subset"),
    ("float-subset-class", lambda: theta_f2.EvenSubsetClass([1.0, 2.0]),
     ValueError, "not an even subset"),
    ("string-subset-class", lambda: theta_f2.EvenSubsetClass(["1", "2"]),
     ValueError, "not an even subset"),
    ("mixed-subset-class", lambda: theta_f2.EvenSubsetClass([1, "2"]),
     ValueError, "not an even subset"),
    ("config-long-root", lambda: nodal.NodalConfig(LAT2, [(0,) * 300000]), ValueError,
     "^root " + re.escape("(" + "0, " * 13 + "...") + " has wrong length for degree 2$"),
    ("coefficient-long-string", lambda: MultiPoly.constant(V, "1" * 10 ** 6), TypeError,
     "^'" + "1" * 39 + r"\.\.\. is not an int or a Fraction$"),
    ("make-space-genus-0", lambda: theta_f2.make_space(0), ValueError, "g must be >= 1"),
    ("make-space-arf-2", lambda: theta_f2.make_space(1, 2),
     ValueError, "Arf invariant must be 0 or 1"),
    ("count-zeros-short-rows", lambda: theta_f2.count_zeros(theta_f2.QuadraticSpace(4, (1,))),
     ValueError, r"^dimension 4 needs 0 <= dim <= len\(rows\) = 1$"),
    ("arf-negative-dim", lambda: theta_f2.arf(theta_f2.QuadraticSpace(-2, ())),
     ValueError, r"^dimension -2 needs 0 <= dim <= len\(rows\) = 0$"),
]


@pytest.mark.parametrize("call, exc, pattern", [g[1:] for g in GUARDS],
                         ids=[g[0] for g in GUARDS])
def test_guard(call, exc, pattern):
    with pytest.raises(exc, match=pattern):
        call()


def test_zero_polynomial_is_homogeneous():
    zero = MultiPoly.zero(V)
    assert zero.is_homogeneous() and zero.is_homogeneous(3)
    assert not (X + 1).is_homogeneous()


FORMS = {"l11": "x0 + 2*x1", "l12": "x1 - x2", "l22": "3*x2 - x0",
         "q1": "x0*x1 - 1/2*x2^2", "q2": "x1^2 + x0*x2", "h": "x0^3 - x1*x2^2 + 2*x2^3"}


def test_forms_in_permuted_variables_are_renamed():
    """SymThetaData and extract_matrix accept forms and cubics written in
    any order of their variables, and rename them to the standard order."""
    plain = detrep.SymThetaData(**{k: parse_poly(t, detrep.PLANE_VARS)
                                   for k, t in FORMS.items()})
    permuted = detrep.SymThetaData(**{k: parse_poly(t, ("x2", "x0", "x1"))
                                      for k, t in FORMS.items()})
    assert permuted == plain
    assert all(form.vars == detrep.PLANE_VARS for form in permuted)
    cubic = detrep.cubic_threefold(plain)
    shuffled = cubic.rename_vars(("x1", "u2", "x2", "u1", "x0"))
    assert shuffled.vars != cubic.vars
    assert detrep.extract_matrix(shuffled) == plain
