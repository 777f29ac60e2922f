"""Symmetric determinantal construction of plane curves and contact conics.

Every form is read off one symmetric 3x3 matrix of forms M = [[L11, L12,
Q1], [L12, L22, Q2], [Q1, Q2, H]] (linear / quadratic / cubic entries in
x0, x1, x2) and its cofactors: the plane quintic det M, the cubic threefold
u^T M u containing the line {x0 = x1 = x2 = 0}, and the contact conic
L11*L22 - L12^2, a cofactor, totally tangent to the quintic.  A 2x2 matrix
[[L, Q], [Q, H]] gives a quartic with bitangent L.  One certificate checks
both, for any two plane curves: with denominators cleared and a seeded
shear, their resultant is one int determinant of Kronecker-packed
Sylvester entries, TotallyTangent when it is a constant times a square
(`total_tangency_check` says what that proves).
"""

from __future__ import annotations

import random
from collections import namedtuple
from enum import Enum
from fractions import Fraction
from math import comb, lcm

from .poly import MultiPoly, parse_poly, sylvester
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


def _integral(p: MultiPoly) -> dict[tuple[int, ...], int]:
    """The terms of p times the lcm of its denominators."""
    scale = lcm(*(c.denominator for c in p.terms.values()))
    return {e: c.numerator * (scale // c.denominator) for e, c in p.terms.items()}


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


def _pack_bits(fc: list[list[int]], gc: list[list[int]]) -> int:
    """Digit width k with every coefficient of Res(f, g) below 2^(k-1).

    A determinant is a signed sum over permutations of products of one
    entry per row, and ||pq||_1 <= ||p||_1 ||q||_1, so each coefficient is
    at most the product over rows of the summed l1 norms of the row's
    entries: ||f||_1^deg(g) * ||g||_1^deg(f), f and g as x2-coefficients.
    """
    norm_f = sum(abs(c) for coeffs in fc for c in coeffs)
    norm_g = sum(abs(c) for coeffs in gc for c in coeffs)
    bound = norm_f ** (len(gc) - 1) * norm_g ** (len(fc) - 1)
    return bound.bit_length() + 1


def _unpack(value: int, k: int) -> list[int]:
    """Balanced base-2^k digits of value, low first: each in [-2^(k-1), 2^(k-1))."""
    half, mask, digits = 1 << (k - 1), (1 << k) - 1, []
    while value:
        digit = ((value + half) & mask) - half
        digits.append(digit)
        value = (value - digit) >> k
    return digits


def _packed_resultant(fc: list[list[int]], gc: list[list[int]]) -> list[int]:
    """Res_x2(f, g) as x0-coefficients, low degree first; [] if it is zero.

    fc and gc are the x2-coefficients of f and g as from `_shear`, with
    nonzero constant leading ones.  Each entry of the Sylvester matrix, a
    polynomial in x0, is packed into one int by evaluating it at x0 = 2^k
    (Kronecker substitution); the int determinant is the resultant at 2^k,
    and the bound behind k makes its balanced digits the coefficients.
    """
    k = _pack_bits(fc, gc)
    fp = [sum(c << (k * e) for e, c in enumerate(coeffs)) for coeffs in fc]
    gp = [sum(c << (k * e) for e, c in enumerate(coeffs)) for coeffs in gc]
    return _unpack(sylvester(fp, gp, 0), k)


def _square_root(r: list[int]) -> list[int] | None:
    """S with S^2 = c*r, c the leading coefficient of r, or None if r/c is
    not the square of a monic s.

    Then S = c*s, which is integral by Gauss's lemma since (c*s)^2 = c*r
    is.  S is read from the top half of c*r: its x^(m-i) coefficient is
    2c*S[h-i] plus the products of the S[h-j] already known, so a division
    that is not exact already rules a square out.
    """
    m, c = len(r) - 1, r[-1]
    if m % 2:
        return None
    h = m // 2
    s = [0] * h + [c]
    for i in range(1, h + 1):
        known = sum(s[h - j] * s[h - i + j] for j in range(1, i))
        s[h - i], rest = divmod(c * r[m - i] - known, 2 * c)
        if rest:
            return None
    square = [0] * (m + 1)
    for i, x in enumerate(s):
        for j, y in enumerate(s):
            square[i + j] += x * y
    return s if square == [c * x for x in r] else None


def _is_square_form(res: list[int], degree: int) -> bool:
    """Whether the nonzero binary form sum res[e] x0^e x1^(degree - e) is a
    constant times a square: x1's multiplicity (the degree deficit) is
    even, and res is a constant times a square in x0, which makes x0's
    multiplicity (the valuation) even too."""
    x1_mult = degree - (len(res) - 1)
    return not x1_mult % 2 and _square_root(res) is not None


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
    fi, ti = _integral(f), _integral(t)
    rng = random.Random(seed)
    for _ in range(100):
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        fs, ts = _shear(fi, d, a, b), _shear(ti, e, a, b)
        if fs[0][0] and ts[0][0]:  # the centre is off both curves
            break
    else:
        raise DegenerateError("no shear put the curves in general position")
    res = _packed_resultant(fs, ts)
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
