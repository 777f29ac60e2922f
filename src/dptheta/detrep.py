"""Symmetric determinantal construction of plane curves and contact conics.

From a symmetric 3x3 matrix of forms [[L11, L12, Q1], [L12, L22, Q2],
[Q1, Q2, H]] (linear / quadratic / cubic entries in x0, x1, x2) one obtains:
a plane quintic as its determinant, a cubic threefold containing the line
{x0 = x1 = x2 = 0}, and a contact conic L11*L22 - L12^2 totally tangent to
the quintic.  Total tangency is certified exactly: the resultant of the two
curves must be a perfect square up to a constant, decided by square-free
decomposition over the rationals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .poly import (MultiPoly, parse_poly, resultant,
                   squarefree_multiplicities, uni_from_binary_form)
from .text import data_lines

PLANE_VARS = ("x0", "x1", "x2")
SPACE_VARS = ("u1", "u2", "x0", "x1", "x2")


class DegenerateError(ValueError):
    """Raised when an input is degenerate (identically zero determinant etc.)."""


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


@dataclass(frozen=True)
class SymThetaData:
    """Entries of the symmetric matrix: linear L, quadratic Q, cubic H forms."""

    l11: MultiPoly
    l12: MultiPoly
    l22: MultiPoly
    q1: MultiPoly
    q2: MultiPoly
    h: MultiPoly

    def __post_init__(self):
        object.__setattr__(self, "l11", _check_form(self.l11, 1, "L11"))
        object.__setattr__(self, "l12", _check_form(self.l12, 1, "L12"))
        object.__setattr__(self, "l22", _check_form(self.l22, 1, "L22"))
        object.__setattr__(self, "q1", _check_form(self.q1, 2, "Q1"))
        object.__setattr__(self, "q2", _check_form(self.q2, 2, "Q2"))
        object.__setattr__(self, "h", _check_form(self.h, 3, "H"))


def discriminant_quintic(data: SymThetaData) -> MultiPoly:
    """Determinant of the symmetric matrix; homogeneous quintic."""
    d = (data.l11 * (data.l22 * data.h - data.q2 * data.q2)
         - data.l12 * (data.l12 * data.h - data.q1 * data.q2)
         + data.q1 * (data.l12 * data.q2 - data.l22 * data.q1))
    if d.is_zero():
        raise DegenerateError("determinant is identically zero")
    assert d.is_homogeneous(5)
    return d


def cubic_threefold(data: SymThetaData) -> MultiPoly:
    """The cubic sum(ui uj Lij) + sum(2 ui Qi) + H in u1, u2, x0, x1, x2."""
    u1 = MultiPoly.variable(SPACE_VARS, "u1")
    u2 = MultiPoly.variable(SPACE_VARS, "u2")
    l11 = data.l11.rename_vars(SPACE_VARS)
    l12 = data.l12.rename_vars(SPACE_VARS)
    l22 = data.l22.rename_vars(SPACE_VARS)
    q1 = data.q1.rename_vars(SPACE_VARS)
    q2 = data.q2.rename_vars(SPACE_VARS)
    h = data.h.rename_vars(SPACE_VARS)
    return (u1 * u1 * l11 + 2 * u1 * u2 * l12 + u2 * u2 * l22
            + 2 * u1 * q1 + 2 * u2 * q2 + h)


def extract_matrix(cubic: MultiPoly) -> SymThetaData:
    """Recover the symmetric matrix from a cubic containing the line.

    The cubic must be homogeneous of degree 3 in u1, u2, x0, x1, x2 with no
    monomials purely in u1, u2 (so it vanishes on {x0 = x1 = x2 = 0}).
    """
    if cubic.vars != SPACE_VARS:
        cubic = cubic.rename_vars(SPACE_VARS)
    if not cubic.is_homogeneous(3):
        raise ValueError("input is not a homogeneous cubic")
    for exp in cubic.terms:
        if exp[0] + exp[1] == 3:
            raise ValueError("cubic does not contain the line x0=x1=x2=0")

    def u_part(du1: int, du2: int) -> MultiPoly:
        out = {}
        for exp, coeff in cubic.terms.items():
            if exp[0] == du1 and exp[1] == du2:
                out[(0, 0) + exp[2:]] = coeff
        return MultiPoly(SPACE_VARS, out).rename_vars(PLANE_VARS)

    half = Fraction(1, 2)
    return SymThetaData(
        l11=u_part(2, 0),
        l12=u_part(1, 1) * half,
        l22=u_part(0, 2),
        q1=u_part(1, 0) * half,
        q2=u_part(0, 1) * half,
        h=u_part(0, 0),
    )


def contact_conic(data: SymThetaData) -> MultiPoly:
    """The conic L11*L22 - L12^2."""
    t = data.l11 * data.l22 - data.l12 * data.l12
    if t.is_zero():
        raise DegenerateError("contact conic is identically zero")
    return t


@dataclass(frozen=True)
class TangencyReport:
    verdict: Tangency
    shear: tuple[int, int]


def total_tangency_check(f: MultiPoly, t: MultiPoly, seed: int = 0) -> TangencyReport:
    """Decide whether the conic t is totally tangent to the quintic f.

    A seeded shear x0 -> x0 + a*x2, x1 -> x1 + b*x2 puts both curves in
    general position with respect to x2.  The resultant in x2 is then a
    binary form of degree 10 in (x0, x1): identically zero means a common
    component; otherwise the curves are totally tangent exactly when every
    multiplicity in its square-free decomposition (including the x0 and x1
    factors) is even.
    """
    f = _check_form(f, 5, "quintic")
    t = _check_form(t, 2, "conic")
    if f.is_zero() or t.is_zero():
        raise DegenerateError("zero polynomial input")
    rng = random.Random(seed)
    x0 = MultiPoly.variable(PLANE_VARS, "x0")
    x1 = MultiPoly.variable(PLANE_VARS, "x1")
    x2 = MultiPoly.variable(PLANE_VARS, "x2")
    # the x2^d coefficient of a degree-d form p after the shear is p(a, b, 1)
    for _ in range(100):
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        point = {"x0": a, "x1": b, "x2": 1}
        if f.evaluate(point) and t.evaluate(point):
            break
    else:
        raise DegenerateError("no shear put the curves in general position")
    fs = f.substitute("x0", x0 + a * x2).substitute("x1", x1 + b * x2)
    ts = t.substitute("x0", x0 + a * x2).substitute("x1", x1 + b * x2)
    res = resultant(fs, ts, "x2")
    if res.is_zero():
        return TangencyReport(Tangency.COMMON_COMPONENT, (a, b))
    assert res.is_homogeneous(10)
    p, degree = uni_from_binary_form(res, "x0", "x1")
    x0_mult = degree - (len(p) - 1)
    if x0_mult % 2:
        return TangencyReport(Tangency.NOT_TANGENT, (a, b))
    for _, mult in squarefree_multiplicities(p):
        if mult % 2:
            return TangencyReport(Tangency.NOT_TANGENT, (a, b))
    return TangencyReport(Tangency.TOTALLY_TANGENT, (a, b))


def quartic_from_odd_theta(
    lf: MultiPoly, q: MultiPoly, h: MultiPoly
) -> tuple[MultiPoly, MultiPoly]:
    """Quartic with marked bitangent from a 2x2 matrix [[L, Q], [Q, H]].

    Returns (F, L) with F = L*H - Q^2; on {L = 0} the quartic restricts to
    -Q^2, so the line meets it with even multiplicity everywhere.
    """
    lf = _check_form(lf, 1, "L")
    q = _check_form(q, 2, "Q")
    h = _check_form(h, 3, "H")
    f = lf * h - q * q
    if f.is_zero():
        raise DegenerateError("quartic is identically zero")
    return f, lf


def parse_data_block(text: str) -> dict[str, MultiPoly]:
    """Parse a keyed text block of `NAME: polynomial` lines (x0, x1, x2)."""
    out = {}
    for lineno, line in data_lines(text):
        key, sep, expr = line.partition(":")
        if not sep:
            raise ValueError(f"line {lineno}: expected `NAME: polynomial`")
        out[key.strip()] = parse_poly(expr, PLANE_VARS)
    return out


def check_keys(fields: dict[str, MultiPoly], known: set[str]) -> None:
    """Reject a parsed data block that has keys outside `known`."""
    extra = set(fields) - known
    if extra:
        raise ValueError(f"unknown keys: {sorted(extra)}")


def data_from_block(fields: dict[str, MultiPoly]) -> SymThetaData:
    zero = MultiPoly.zero(PLANE_VARS)
    check_keys(fields, {"L11", "L12", "L22", "Q1", "Q2", "H"})
    return SymThetaData(
        l11=fields.get("L11", zero), l12=fields.get("L12", zero),
        l22=fields.get("L22", zero), q1=fields.get("Q1", zero),
        q2=fields.get("Q2", zero), h=fields.get("H", zero),
    )
