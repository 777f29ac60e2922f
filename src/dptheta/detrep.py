"""Symmetric determinantal construction of plane curves and contact conics.

Every form is read off one symmetric 3x3 matrix of forms M = [[L11, L12,
Q1], [L12, L22, Q2], [Q1, Q2, H]] (linear / quadratic / cubic entries in
x0, x1, x2) and its cofactors: the plane quintic det M, the cubic threefold
u^T M u containing the line {x0 = x1 = x2 = 0}, and the contact conic
L11*L22 - L12^2, a cofactor, totally tangent to the quintic.  A 2x2 matrix
[[L, Q], [Q, H]] gives a quartic with bitangent L.  One certificate checks
both, for any two plane curves: with denominators cleared and a seeded
shear, their resultant is `poly.packed_sylvester`, one int determinant of
Kronecker-packed entries, TotallyTangent when it is a constant times a
square (`total_tangency_check` says what that proves).
"""

from __future__ import annotations

import random
from collections import namedtuple
from enum import Enum
from fractions import Fraction
from math import comb, isqrt

from .poly import MultiPoly, integral_terms, pack_digits, packed_sylvester, parse_poly, unpack_digits
from .text import data_lines, echo

PLANE_VARS = ("x0", "x1", "x2")
SPACE_VARS = ("u1", "u2", "x0", "x1", "x2")


class DegenerateError(ValueError):
    """Raised when an input is degenerate (identically zero determinant etc.)."""

    exit_code = 3  # the CLI's exit status; other input errors exit 2


class Tangency(Enum):
    TOTALLY_TANGENT = "TotallyTangent"
    NOT_TANGENT = "Not"
    COMMON_COMPONENT = "CommonComponent"


def _check_form(p: MultiPoly, degree: int, label: str) -> MultiPoly:
    if p.vars != PLANE_VARS:
        p = p.rename_vars(PLANE_VARS)
    if not p.is_zero() and not p.is_homogeneous(degree):
        raise ValueError(f"{label} must be homogeneous of degree {degree} or zero")
    return p


class SymThetaData(namedtuple("SymThetaData", "l11 l12 l22 q1 q2 h")):
    """Entries of the symmetric matrix: linear L, quadratic Q, cubic H forms.
    The constructor (also under _make and _replace) checks each degree."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, l11, l12, l22, q1, q2, h):
        entries = map(_check_form, (l11, l12, l22, q1, q2, h), (1, 1, 1, 2, 2, 3), MATRIX_KEYS)
        return super().__new__(cls, *entries)


MATRIX_KEYS = tuple(map(str.upper, SymThetaData._fields))  # a data file's names
QUARTIC_KEYS = ("L", "Q", "H")  # the names of quartic_from_odd_theta's entries


def _matrix(data) -> tuple[tuple, tuple, tuple]:
    """M = [[L11, L12, Q1], [L12, L22, Q2], [Q1, Q2, H]] for six entries in
    SymThetaData's field order; on the field names, each entry's name."""
    l11, l12, l22, q1, q2, h = data
    return (l11, l12, q1), (l12, l22, q2), (q1, q2, h)


def _cofactor(m, i: int, j: int):
    """The (i, j) cofactor of a 3x3 matrix: the rows after i and the columns
    after j, taken cyclically, whose cyclic order supplies the sign."""
    a, b, c, d = (i + 1) % 3, (i + 2) % 3, (j + 1) % 3, (j + 2) % 3
    return m[a][c] * m[b][d] - m[a][d] * m[b][c]


def discriminant_quintic(data: SymThetaData) -> MultiPoly:
    """det M, expanded along the first row: a quintic, since SymThetaData
    checked every degree and so each term has degree 1+1+3 or 1+2+2."""
    m = _matrix(data)
    d = sum((m[0][j] * _cofactor(m, 0, j) for j in range(3)), MultiPoly.zero(PLANE_VARS))
    if d.is_zero():
        raise DegenerateError("determinant is identically zero")
    return d


def cubic_threefold(data: SymThetaData) -> MultiPoly:
    """The cubic u^T M u with u = (u1, u2, 1), in u1, u2, x0, x1, x2."""
    u = (MultiPoly.variable(SPACE_VARS, "u1"), MultiPoly.variable(SPACE_VARS, "u2"), 1)
    m = _matrix(data)
    return sum((u[i] * u[j] * m[i][j].rename_vars(SPACE_VARS)
                for i in range(3) for j in range(3)), MultiPoly.zero(SPACE_VARS))


def extract_matrix(cubic: MultiPoly) -> SymThetaData:
    """Recover the symmetric matrix from a cubic containing the line.

    The cubic must be homogeneous of degree 3 in u1, u2, x0, x1, x2 with no
    monomials purely in u1, u2 (so it vanishes on {x0 = x1 = x2 = 0}).  M_ij
    is the u_i u_j coefficient, u3 = 1, halved off the diagonal.
    """
    if cubic.vars != SPACE_VARS:
        cubic = cubic.rename_vars(SPACE_VARS)
    if not cubic.is_homogeneous(3):
        raise ValueError("input is not a homogeneous cubic")
    for exp in cubic.terms:
        if exp[0] + exp[1] == 3:
            raise ValueError("cubic does not contain the line x0=x1=x2=0")

    def entry(i: int, j: int) -> MultiPoly:
        c = cubic.coefficient("u1", (i, j).count(0)).coefficient("u2", (i, j).count(1))
        return c.rename_vars(PLANE_VARS) * (1 if i == j else Fraction(1, 2))

    names = _matrix(SymThetaData._fields)
    return SymThetaData(**{names[i][j]: entry(i, j) for i in range(3) for j in range(i, 3)})


def contact_conic(data: SymThetaData) -> MultiPoly:
    """The conic L11*L22 - L12^2, the cofactor A33 of M."""
    t = _cofactor(_matrix(data), 2, 2)
    if t.is_zero():
        raise DegenerateError("contact conic is identically zero")
    return t


TangencyReport = namedtuple("TangencyReport", "verdict shear")  # shear is the (a, b) used


def _shear(form: dict, degree: int, a: int, b: int) -> list[list[int]]:
    """x2-coefficients of form(x0 + a*x2, 1 + b*x2, x2), highest power first.

    Each is a list of x0-coefficients, low degree first.  The term
    c*x0^i*x1^j*x2^k gives c*C(i, p)*a^p*C(j, q)*b^q at x2^(p+q+k)*x0^(i-p).
    The first list is [form(a, b, 1), 0, ..., 0]: x2^degree needs
    p + q + k = degree, so p = i and q = j.
    """
    out = [[0] * (degree + 1) for _ in range(degree + 1)]
    for (i, j, k), c in form.items():
        for p in range(i + 1):
            cp = c * comb(i, p) * a ** p
            for q in range(j + 1):
                out[degree - p - q - k][i - p] += cp * comb(j, q) * b ** q
    return out


def _is_square_form(res: list[int], degree: int) -> bool:
    """Whether the binary form sum res[e] x0^e x1^(degree - e), res[-1] != 0,
    is a constant times a square: x1's multiplicity (the degree deficit) and
    the degree in x0 are even, and c*res = S^2, c = res[-1], for S = c*s with
    s monic, integral by Gauss's lemma.  By Parseval |S_i|^2 <= ||c*res||_1,
    so with 2^(k-1) > len(res) * ||c*res||_1 the isqrt of c*res packed at 2^k
    has the balanced digits S' = +-S: a true square passes.  Conversely, if
    len(S') * max|S'_i|^2 < 2^(k-1), each coefficient of S'^2 is a digit too,
    so root^2 == packed makes S'^2 = c*res an identity."""
    if (degree - len(res) + 1) % 2 or len(res) % 2 == 0:
        return False
    cres = [res[-1] * x for x in res]
    k = (len(res) * sum(map(abs, cres))).bit_length() + 1
    packed = pack_digits(cres, k)
    root = isqrt(packed)
    s = unpack_digits(root, k)
    return root * root == packed and len(s) * max(map(abs, s)) ** 2 < 1 << (k - 1)


def total_tangency_check(f: MultiPoly, t: MultiPoly, seed: int = 0) -> TangencyReport:
    """Decide whether the plane curves f = 0 and t = 0 are totally tangent.

    The degrees d and e are read off the forms.  A seeded shear x0 -> x0 +
    a*x2, x1 -> x1 + b*x2 centres the projection at (a, b, 1), off both
    curves; each root of the resultant in x2 (degree d*e, on packed ints) is
    a line through the centre, with the summed intersection multiplicities
    on it.  CommonComponent (a zero resultant) and Not (an odd root) are
    always right.  TotallyTangent (a constant times a square) assumes no
    line through the centre holds two intersection points: exact when f or
    t is a line, since the centre is off it.
    """
    d, e = f.total_degree(), t.total_degree()
    f, t = _check_form(f, d, "f"), _check_form(t, e, "t")
    if f.is_zero() or t.is_zero():
        raise DegenerateError("zero polynomial input")
    if not d * e:
        raise ValueError("each curve must have positive degree")
    (_, fi), (_, ti) = integral_terms(f), integral_terms(t)
    rng = random.Random(seed)
    for _ in range(100):
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        fs, ts = _shear(fi, d, a, b), _shear(ti, e, a, b)
        if fs[0][0] and ts[0][0]:  # the centre is off both curves
            break
    else:
        raise DegenerateError("no shear put the curves in general position")
    res = packed_sylvester(fs, ts)
    if not res:
        return TangencyReport(Tangency.COMMON_COMPONENT, (a, b))
    verdict = Tangency.TOTALLY_TANGENT if _is_square_form(res, d * e) else Tangency.NOT_TANGENT
    return TangencyReport(verdict, (a, b))


def quartic_from_odd_theta(
    lf: MultiPoly, q: MultiPoly, h: MultiPoly
) -> tuple[MultiPoly, MultiPoly]:
    """Quartic with marked bitangent from a 2x2 matrix [[L, Q], [Q, H]].

    Returns (F, L) with F = L*H - Q^2, which is -Q^2 on {L = 0}: so
    `total_tangency_check`, exact for a line, certifies L as a bitangent
    unless Q vanishes on all of the line, and then L divides F.
    """
    lf, q, h = map(_check_form, (lf, q, h), (1, 2, 3), QUARTIC_KEYS)
    f = lf * h - q * q
    if f.is_zero():
        raise DegenerateError("quartic is identically zero")
    if lf.is_zero():
        raise DegenerateError("bitangent L is identically zero")
    if total_tangency_check(f, lf).verdict is not Tangency.TOTALLY_TANGENT:
        raise DegenerateError("Q vanishes on the line L = 0, so L divides the quartic")
    return f, lf


def parse_data_block(text: str) -> dict[str, MultiPoly]:
    """Parse a keyed text block of `NAME: polynomial` lines (x0, x1, x2);
    every name is checked, against both schemas, before any value is parsed."""
    exprs = {}
    for lineno, line in data_lines(text):
        key, sep, expr = line.partition(":")
        if not sep:
            raise ValueError(f"line {lineno}: expected `NAME: polynomial`")
        key = key.strip()
        if key in exprs:
            raise ValueError(f"line {lineno}: duplicate key {echo(key)}")
        exprs[key] = expr
    _check_keys(exprs, MATRIX_KEYS + QUARTIC_KEYS)
    return {key: parse_poly(expr, PLANE_VARS) for key, expr in exprs.items()}


def _check_keys(fields: dict, known: tuple[str, ...]) -> None:
    """Reject a data block that has keys outside `known`."""
    extra = set(fields).difference(known)
    if extra:
        raise ValueError(f"unknown keys: {echo(sorted(extra))}")


def data_from_block(fields: dict[str, MultiPoly]) -> SymThetaData:
    """The matrix of a parsed data block; a missing entry is zero."""
    _check_keys(fields, MATRIX_KEYS)
    zero = MultiPoly.zero(PLANE_VARS)
    return SymThetaData(*(fields.get(k, zero) for k in MATRIX_KEYS))


def quartic_from_block(fields: dict[str, MultiPoly]) -> tuple[MultiPoly, MultiPoly]:
    """quartic_from_odd_theta of a parsed data block's L, Q and H, each required."""
    _check_keys(fields, QUARTIC_KEYS)
    missing = set(QUARTIC_KEYS).difference(fields)
    if missing:
        raise ValueError(f"quartic action needs keys {sorted(missing)}")
    return quartic_from_odd_theta(*(fields[k] for k in QUARTIC_KEYS))
