"""Symmetric determinantal pipeline: round trips and total tangency."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
import sympy
from conftest import DATA

from dptheta import detrep, poly
from dptheta.detrep import (DegenerateError, SymThetaData, Tangency,
                            contact_conic, cubic_threefold,
                            discriminant_quintic, extract_matrix,
                            quartic_from_odd_theta, total_tangency_check)
from dptheta.poly import MultiPoly, parse_poly
from test_poly import laplace_resultant, substitute_term_by_term

P = detrep.PLANE_VARS


def pp(s):
    return parse_poly(s, P)


def random_form(rng, degree, dense=True):
    terms = {}
    for combo in combinations_with_replacement(range(3), degree):
        exp = [0, 0, 0]
        for c in combo:
            exp[c] += 1
        if dense or rng.random() < 0.7:
            terms[tuple(exp)] = Fraction(rng.randint(-5, 5))
    return MultiPoly(P, terms)


def random_data(rng):
    return SymThetaData(
        l11=random_form(rng, 1), l12=random_form(rng, 1),
        l22=random_form(rng, 1), q1=random_form(rng, 2),
        q2=random_form(rng, 2), h=random_form(rng, 3))


SAMPLE = detrep.data_from_block(detrep.parse_data_block((DATA / "detrep_sample.txt").read_text()))


def test_extract_rejects_bad_cubics():
    u1 = MultiPoly.variable(detrep.SPACE_VARS, "u1")
    with pytest.raises(ValueError):
        extract_matrix(cubic_threefold(SAMPLE) + u1 ** 3)
    with pytest.raises(ValueError):
        extract_matrix(u1 * u1)  # not homogeneous of degree 3


def test_discriminant_is_quintic():
    f = discriminant_quintic(SAMPLE)
    assert f.is_homogeneous(5)
    # cross-check against a sympy determinant
    syms = sympy.symbols("x0 x1 x2")

    def s(p):
        return sum(sympy.Rational(c.numerator, c.denominator)
                   * syms[0] ** e[0] * syms[1] ** e[1] * syms[2] ** e[2]
                   for e, c in p.terms.items())
    m = sympy.Matrix([[s(SAMPLE.l11), s(SAMPLE.l12), s(SAMPLE.q1)],
                      [s(SAMPLE.l12), s(SAMPLE.l22), s(SAMPLE.q2)],
                      [s(SAMPLE.q1), s(SAMPLE.q2), s(SAMPLE.h)]])
    assert sympy.expand(m.det() - s(f)) == 0


def test_degenerate_determinant():
    zero = MultiPoly.zero(P)
    data = SymThetaData(zero, zero, zero, zero, zero, zero)
    with pytest.raises(DegenerateError):
        discriminant_quintic(data)
    with pytest.raises(DegenerateError):
        contact_conic(data)


def test_random_data_totally_tangent():
    """The determinantal construction always yields a contact conic."""
    rng = random.Random(8)
    hits = 0
    while hits < 10:
        data = random_data(rng)
        try:
            f = discriminant_quintic(data)
            t = contact_conic(data)
        except DegenerateError:
            continue
        report = total_tangency_check(f, t, seed=1)
        if report.verdict is Tangency.COMMON_COMPONENT:
            continue  # singular member sharing a line with the quintic
        assert report.verdict is Tangency.TOTALLY_TANGENT
        hits += 1


def test_generic_pairs_not_tangent():
    rng = random.Random(9)
    outcomes = []
    for i in range(20):
        f = random_form(rng, 5)
        t = random_form(rng, 2)
        if f.is_zero() or t.is_zero():
            continue
        report = total_tangency_check(f, t, seed=i)
        outcomes.append(report.verdict)
    assert outcomes and all(v is Tangency.NOT_TANGENT for v in outcomes)


def test_tangency_oracle_sympy():
    """Independent square-test of the resultant via sympy factorization."""
    syms = sympy.symbols("x0 x1 x2")

    def s(p):
        return sum(sympy.Rational(c.numerator, c.denominator)
                   * syms[0] ** e[0] * syms[1] ** e[1] * syms[2] ** e[2]
                   for e, c in p.terms.items())
    f = discriminant_quintic(SAMPLE)
    t = contact_conic(SAMPLE)
    res = sympy.resultant(s(f), s(t), syms[2])
    _, factors = sympy.factor_list(sympy.Poly(res, syms[0], syms[1]))
    assert all(mult % 2 == 0 for _, mult in factors)


def test_common_component_detected():
    line = pp("x0 + x1")
    f = line * line * pp("x0^3 - x2^3")
    t = line * pp("x1 - x2")
    report = total_tangency_check(f, t, seed=0)
    assert report.verdict is Tangency.COMMON_COMPONENT


def test_quartic_identity():
    rng = random.Random(10)
    for _ in range(100):
        lf = random_form(rng, 1)
        q = random_form(rng, 2)
        h = random_form(rng, 3)
        try:
            f, line = quartic_from_odd_theta(lf, q, h)
        except DegenerateError:
            continue
        assert (f + q * q - lf * h).is_zero()
        assert line == lf


def test_quartic_spec_example():
    f, line = quartic_from_odd_theta(pp("x0"), pp("x1^2"), pp("x2^3"))
    assert f == pp("x0*x2^3 - x1^4")
    assert line == pp("x0")


def test_parse_data_block():
    fields = detrep.parse_data_block(
        "# comment\nL11: x0\nQ1: x1^2\nH: x2^3\n")
    data = detrep.data_from_block(fields)
    assert data.l11 == pp("x0")
    with pytest.raises(ValueError):
        detrep.data_from_block(detrep.parse_data_block("BAD: x0\n"))
    with pytest.raises(ValueError):
        detrep.parse_data_block("just some words\n")


def test_parse_data_block_duplicate_key():
    with pytest.raises(ValueError, match=r"^line 3: duplicate key 'L11'$"):
        detrep.parse_data_block("L11: x0\nH: x2^3\n  L11 : x1\n")


def test_names_checked_before_values(monkeypatch, data_dir):
    """A block with an unknown name is refused before any polynomial is
    parsed; a known block parses each of its values once."""
    parse_calls, parse = [], detrep.parse_poly
    monkeypatch.setattr(detrep, "parse_poly",
                        lambda expr, variables: parse_calls.append(expr) or parse(expr, variables))
    many = "".join(f"K{i}: x0\n" for i in range(100000))
    with pytest.raises(ValueError, match=r"^unknown keys: \['K0', 'K1', 'K10', "):
        detrep.parse_data_block(many)
    with pytest.raises(ValueError, match=r"^unknown keys: \['BOGUS'\]$"):
        detrep.parse_data_block("L11: x0\nBOGUS: (\nH: x2^3\n")
    assert parse_calls == []
    for name, count in [("detrep_sample.txt", 6), ("quartic_sample.txt", 3)]:
        detrep.parse_data_block((data_dir / name).read_text())
        assert len(parse_calls) == count, name
        parse_calls.clear()


def test_stray_names_reported_before_other_schema():
    """A block mixing both schemas with a stray name names only the stray
    one; without it, the matrix refuses the quartic's names."""
    with pytest.raises(ValueError, match=r"^unknown keys: \['BOGUS'\]$"):
        detrep.parse_data_block("L11: x0\nL: x1\nBOGUS: x2\n")
    fields = detrep.parse_data_block("L11: x0\nL: x1\nQ: x2^2\n")
    with pytest.raises(ValueError, match=r"^unknown keys: \['L', 'Q'\]$"):
        detrep.data_from_block(fields)
    assert detrep.MATRIX_KEYS == ("L11", "L12", "L22", "Q1", "Q2", "H")


def test_degree_validation():
    with pytest.raises(ValueError):
        SymThetaData(pp("x0^2"), pp("x1"), pp("x2"), pp("x0^2"),
                     pp("x1^2"), pp("x2^3"))


# -- the packed resultant and the square-root certificate ---------------------

def sheared(p, a, b):
    """p(x0 + a*x2, x1 + b*x2, x2) as a MultiPoly, by the term-by-term oracle."""
    x0, x1, x2 = (MultiPoly.variable(P, v) for v in P)
    return substitute_term_by_term(substitute_term_by_term(p, "x0", x0 + a * x2),
                                   "x1", x1 + b * x2)


def binary_square(form):
    """(c, square) for a binary form sum c[e] x0^e x1^(d - e): c is read off
    .terms up to its last nonzero entry, and square says whether a nonzero
    form is a constant times a square, decided by the parity of x1's
    multiplicity d + 1 - len(c) and by sympy's sqf_list of the polynomial
    in x0."""
    d = form.total_degree()
    c = [0] * (1 + max((e[0] for e in form.terms), default=-1))
    for (i, j, k), v in form.terms.items():
        assert i + j == d and not k, form
        c[i] = v
    _, factors = sympy.Poly(c[::-1], sympy.Symbol("t")).sqf_list()
    return c, (d + 1 - len(c)) % 2 == 0 and all(m % 2 == 0 for _, m in factors)


def sympy_tangency(f, t, seed=0):
    """The check by independent means: a MultiPoly shear, the Laplace-expanded
    Sylvester determinant and sympy's square-free decomposition of the
    dehomogenized form."""
    rng = random.Random(seed)
    for _ in range(100):
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        point = {"x0": a, "x1": b, "x2": 1}
        if f.evaluate(point) and t.evaluate(point):
            break
    else:
        raise DegenerateError("no shear put the curves in general position")
    res = laplace_resultant(sheared(f, a, b), sheared(t, a, b), "x2")
    if res.is_zero():
        return Tangency.COMMON_COMPONENT, (a, b)
    if binary_square(res)[1]:
        return Tangency.TOTALLY_TANGENT, (a, b)
    return Tangency.NOT_TANGENT, (a, b)


def rational_form(rng, degree):
    """A sparse form with coefficients in [-9, 9] over denominators up to 6."""
    terms = {}
    for combo in combinations_with_replacement(range(3), degree):
        exp = [0, 0, 0]
        for c in combo:
            exp[c] += 1
        if rng.random() < 0.7:
            terms[tuple(exp)] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return MultiPoly(P, terms)


def test_packed_resultant_matches_multipoly_resultant():
    """The unpacked digits are the Laplace-expanded Sylvester determinant of
    the sheared forms times lf^deg(g) * lg^deg(f), lf and lg the lcms that
    clear f and g, and each coefficient sits below 2^(k-1), on integral and
    rational forms of several degrees with either form first."""
    rng = random.Random(12)
    cases = 0
    while cases < 120:
        df, dg = rng.choice([(5, 2), (2, 5), (3, 2), (2, 2), (4, 1), (3, 3)])
        if cases % 2:
            f, g = rational_form(rng, df), rational_form(rng, dg)
        else:
            f, g = random_form(rng, df, dense=False), random_form(rng, dg, dense=False)
        if cases % 7 == 0:  # share a factor: a zero resultant
            line = random_form(rng, 1)
            f, g = line * random_form(rng, df - 1), line * random_form(rng, dg - 1)
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        point = {"x0": a, "x1": b, "x2": 1}
        if not (f.evaluate(point) and g.evaluate(point)):
            continue
        (lf, fi), (lg, gi) = poly.integral_terms(f), poly.integral_terms(g)
        fc, gc = detrep._shear(fi, df, a, b), detrep._shear(gi, dg, a, b)
        got = poly.packed_sylvester(fc, gc)
        want, _ = binary_square(laplace_resultant(sheared(f, a, b), sheared(g, a, b), "x2"))
        want = [c * lf ** dg * lg ** df for c in want]
        assert got == want, (f, g, a, b)
        k = poly._pack_bits(fc, gc)
        assert all(abs(c) < 1 << (k - 1) for c in want)
        cases += 1


def test_shear_leads_with_the_value_at_the_centre():
    """_shear's x2^d entry is [p(a, b, 1), 0, ..., 0]: the draw loop tests it
    for the centre being off the curve, on integral and rational forms."""
    rng = random.Random(31)
    zeros = 0
    for case in range(200):
        d = rng.randint(1, 5)
        p = rational_form(rng, d) if case % 2 else random_form(rng, d, dense=False)
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        _, pi = poly.integral_terms(p)
        value = MultiPoly(P, pi).evaluate({"x0": a, "x1": b, "x2": 1})
        zeros += value == 0
        assert detrep._shear(pi, d, a, b)[0] == [value] + [0] * d, (p, a, b)
    assert zeros > 0  # centres on the curve come up too


def test_unpack_balanced_negative_digits():
    k = 5
    for digits in ([-16, 15, 0, -1], [3, -16, -16], [0, 0, -7], [15], [-1, 0, 0, 1],
                   [1, -1, 1, -1, 1]):
        value = sum(d << (k * e) for e, d in enumerate(digits))
        assert poly.unpack_digits(value, k) == digits
    assert poly.unpack_digits(0, k) == []
    assert poly.unpack_digits(-1, 1) == [-1]


@pytest.mark.parametrize("x0_mult", range(4))
@pytest.mark.parametrize("x1_mult", range(4))
def test_square_certificate_vs_yun(x0_mult, x1_mult):
    """c * x0^i * x1^j * (interior factors) is a constant times a square
    exactly when x1's multiplicity and every multiplicity of sympy's
    sqf_list are even; the leading coefficients make the square root
    rational, not integral."""
    x0, x1 = MultiPoly.variable(P, "x0"), MultiPoly.variable(P, "x1")
    interiors = [pp("2*x0 + x1"), pp("x0^2 + 3*x1^2"), pp("3*x0 - 5*x1")]
    for lead in (1, -6, 4):
        for mults in ((0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 2, 1), (2, 2, 0),
                      (0, 1, 2), (3, 0, 0)):
            form = (x0 ** x0_mult) * (x1 ** x1_mult) * lead
            for factor, m in zip(interiors, mults):
                form = form * factor ** m
            p, want = binary_square(form)
            assert detrep._is_square_form([int(c) for c in p], form.total_degree()) is want, form


def test_square_root_is_integral_certificate():
    """4x^2 + 4x + 1 = 4 (x + 1/2)^2: S = 4x + 2 with S^2 = 4 * r."""
    assert detrep._is_square_form([1, 4, 4], 2)
    assert not detrep._is_square_form([1, 4, 5], 2)  # not a square
    assert not detrep._is_square_form([2, 0, 1], 2)  # S = x fits the top half only
    assert not detrep._is_square_form([1, 0, 1, 0], 3)  # odd degree
    assert detrep._is_square_form([-3], 0)
    # x^2 + 33x packs (k = 8) to 272^2, whose digits S' = x + 16 square to x^2 + 32x + 256
    assert not detrep._is_square_form([0, 33, 1], 2)


def test_packed_check_matches_yun_oracle():
    """Verdict and shear of the packed check equal sympy_tangency's on
    contact conics, random conics, squared lines and shared components,
    with integral and rational coefficients."""
    rng = random.Random(21)
    seen = {v: 0 for v in Tangency}
    cases = 0
    while sum(seen.values()) < 100:
        make = rational_form if cases % 2 else (lambda r, d: random_form(r, d, dense=False))
        data = SymThetaData(make(rng, 1), make(rng, 1), make(rng, 1),
                            make(rng, 2), make(rng, 2), make(rng, 3))
        try:
            f, t = discriminant_quintic(data), contact_conic(data)
        except DegenerateError:
            continue
        line = make(rng, 1)
        pairs = [(f, t), (f, make(rng, 2)), (f, line * line),
                 (line * make(rng, 4), line * make(rng, 1))]
        for f5, t2 in pairs:
            if f5.is_zero() or t2.is_zero():
                continue
            try:
                want = sympy_tangency(f5, t2, seed=cases)
            except DegenerateError:
                with pytest.raises(DegenerateError):
                    total_tangency_check(f5, t2, seed=cases)
                continue
            report = total_tangency_check(f5, t2, seed=cases)
            assert (report.verdict, report.shear) == want, (f5, t2, cases)
            seen[report.verdict] += 1
        cases += 1
    assert min(seen.values()) >= 15, seen


# -- one certificate for any two curves: the paper's quartics, bitangents ----

def family_member(data, a, b, line):
    """(Q_w, S, G, T) for w = (a, b, line): Q_w = w^T adj(M) w, with
    S = a*A13 + b*A23 + line*A33, G = a^2 L22 - 2ab L12 + b^2 L11 and
    T = A33 the contact conic, so that T*Q_w - S^2 = F*G (Jacobi)."""
    l11, l12, l22, q1, q2, h = data
    a11, a12, a22 = l22 * h - q2 * q2, q1 * q2 - l12 * h, l11 * h - q1 * q1
    a13, a23, a33 = l12 * q2 - l22 * q1, l12 * q1 - l11 * q2, l11 * l22 - l12 * l12
    quartic = (a * a * a11 + 2 * a * b * a12 + b * b * a22
               + 2 * a * line * a13 + 2 * b * line * a23 + line * line * a33)
    s = a * a13 + b * a23 + line * a33
    g = a * a * l22 - 2 * a * b * l12 + b * b * l11
    return quartic, s, g, a33


def test_paper_family_totally_tangent():
    """Members Q_w of the 4-dimensional family of quartics w^T adj(M) w,
    half with rational matrices and weights, are TotallyTangent against
    F = det M; random quartics are Not."""
    rng = random.Random(31)
    members = 0
    while members < 24:
        make = rational_form if members % 2 else random_form
        data = SymThetaData(*(make(rng, d) for d in (1, 1, 1, 2, 2, 3)))
        try:
            f = discriminant_quintic(data)
        except DegenerateError:
            continue
        den = 4 if members % 2 else 1
        a, b = (Fraction(rng.randint(-5, 5), rng.randint(1, den)) for _ in range(2))
        quartic, s, g, t = family_member(data, a, b, make(rng, 1))
        if quartic.is_zero():
            continue
        assert quartic.is_homogeneous(4) and (t * quartic - s * s - f * g).is_zero()
        report = total_tangency_check(f, quartic, seed=members)
        assert report.verdict is Tangency.TOTALLY_TANGENT, (data, a, b)
        assert total_tangency_check(quartic, f, seed=members) == report
        members += 1
    for i in range(24):
        report = total_tangency_check(f, random_form(rng, 4), seed=i)
        assert report.verdict is Tangency.NOT_TANGENT


def test_family_member_at_first_vertex_is_the_quartic_action():
    """At w = (1, 0, 0), Q_w = A11 = L22*H - Q2^2 is the quartic of
    [[L22, Q2], [Q2, H]], and L22 is certified as its bitangent."""
    rng = random.Random(32)
    checked = 0
    while checked < 10:
        data = random_data(rng)
        quartic = family_member(data, 1, 0, MultiPoly.zero(P))[0]
        try:
            f, line = quartic_from_odd_theta(data.l22, data.q2, data.h)
        except DegenerateError:
            continue
        assert quartic == f and line == data.l22
        report = total_tangency_check(quartic, data.l22, seed=checked)
        assert report.verdict is Tangency.TOTALLY_TANGENT
        checked += 1


def test_cofactors_are_the_adjugate():
    """On 40 data sets, half rational: `_cofactor` on `_matrix` is
    family_member's hand-written adjugate, M adj(M) = det(M) I, and
    cubic_threefold is u1^2 L11 + 2 u1 u2 L12 + u2^2 L22 + 2 u1 Q1 + 2 u2 Q2 + H."""
    rng = random.Random(34)
    zero = MultiPoly.zero(P)
    u1, u2 = (MultiPoly.variable(detrep.SPACE_VARS, v) for v in ("u1", "u2"))
    checked = 0
    while checked < 40:
        make = rational_form if checked % 2 else random_form
        data = SymThetaData(*(make(rng, d) for d in (1, 1, 1, 2, 2, 3)))
        try:
            det = discriminant_quintic(data)
        except DegenerateError:
            continue
        a11, a13, _, a33 = family_member(data, 1, 0, zero)
        a22, a23, _, _ = family_member(data, 0, 1, zero)
        a12 = (family_member(data, 1, 1, zero)[0] - a11 - a22) * Fraction(1, 2)
        want = [[a11, a12, a13], [a12, a22, a23], [a13, a23, a33]]
        m = detrep._matrix(data)
        assert [[detrep._cofactor(m, i, j) for j in range(3)] for i in range(3)] == want
        for i in range(3):
            for j in range(3):
                row = m[i][0] * want[j][0] + m[i][1] * want[j][1] + m[i][2] * want[j][2]
                assert row == (det if i == j else zero)
        l11, l12, l22, q1, q2, h = (f.rename_vars(detrep.SPACE_VARS) for f in data)
        assert cubic_threefold(data) == (u1 * u1 * l11 + 2 * u1 * u2 * l12 + u2 * u2 * l22
                                         + 2 * u1 * q1 + 2 * u2 * q2 + h)
        checked += 1


@pytest.mark.parametrize("line,q", [
    ("x0 + 2*x1 - x2", "(x0 + 2*x1 - x2)*(x1 + 5*x2)"),
    ("2*x2", "x0*x2 - 3*x2^2"),
])
def test_quartic_line_dividing_is_degenerate(line, q):
    """A CommonComponent report on (F, L) is the existing degenerate case."""
    with pytest.raises(DegenerateError,
                       match="^Q vanishes on the line L = 0, so L divides the quartic$"):
        quartic_from_odd_theta(pp(line), pp(q), pp("x1^3 + x2^3"))


def test_bitangent_certified_in_either_order():
    """For random (L, Q, H), L is TotallyTangent to F = L*H - Q^2, a random
    line is Not, and each report is the same with the arguments swapped."""
    rng = random.Random(33)
    checked = 0
    while checked < 30:
        make = rational_form if checked % 2 else random_form
        try:
            f, line = quartic_from_odd_theta(make(rng, 1), make(rng, 2), make(rng, 3))
        except DegenerateError:
            continue
        other = random_form(rng, 1)
        if len(other.terms) < 3:  # a generic line
            continue
        for t, want in ((line, Tangency.TOTALLY_TANGENT), (other, Tangency.NOT_TANGENT)):
            report = total_tangency_check(f, t, seed=checked)
            assert report.verdict is want, (f, t)
            assert total_tangency_check(t, f, seed=checked) == report
        checked += 1


def test_degrees_read_off_the_forms():
    """Any degrees: a conic against a tangent and a secant line, a cubic
    against a quartic through it; a constant is refused, a zero form is
    degenerate."""
    cubic = pp("x0*x1*x2 + x0^3 + x1^3")
    assert total_tangency_check(pp("x0^2 - x1*x2"), pp("x1")).verdict \
        is Tangency.TOTALLY_TANGENT  # x1 = 0 is tangent at (0, 0, 1)
    assert total_tangency_check(pp("x0^2 - x1*x2"), pp("x0")).verdict \
        is Tangency.NOT_TANGENT
    assert total_tangency_check(cubic, cubic * pp("x0 + x2")).verdict \
        is Tangency.COMMON_COMPONENT
    # x2 = 0 meets it in 2p + q, q = (1, 0, 0) on the x1-root line of every
    # shear: an odd d*e, where x1's multiplicity decides the verdict
    tangent_once = pp("(x0 - x1)^2*x1 + x2*(x0^2 + x1^2 + x2^2)")
    for seed in range(10):
        assert total_tangency_check(tangent_once, pp("x2"), seed=seed).verdict \
            is Tangency.NOT_TANGENT
    with pytest.raises(ValueError, match="positive degree"):
        total_tangency_check(cubic, pp("3"))
    with pytest.raises(ValueError, match="homogeneous"):
        total_tangency_check(cubic, pp("x0 + x1^2"))
    with pytest.raises(DegenerateError, match="zero"):
        total_tangency_check(MultiPoly.zero(P), cubic)


def test_no_shear_refused_when_every_centre_lies_on_a_curve():
    """The lines x0 = a*x2, a in [-5, 5], pass through every centre (a, b, 1)
    the shear draws, so the check refuses after its hundred draws."""
    f = pp("*".join(f"(x0 - ({a})*x2)" for a in range(-5, 6)))
    with pytest.raises(DegenerateError,
                       match="^no shear put the curves in general position$"):
        total_tangency_check(f, pp("x0^2 + x1^2 - x2^2"))


def test_not_is_right_where_two_points_share_a_line():
    """f = x2*g and t = x0*(x0 - 2*x2) are not totally tangent: each line of
    t meets g in 4 simple points, and they pair up through (1, 1, 1).  Not
    is always right, and the shears of seeds 1-5 find it; seed 0 centres
    the projection at (1, 1, 1), where the pairs share lines."""
    g = pp("(x0 - x2)^4 + 3*(x0 - x2)^2*(x1 - x2)^2 + 2*(x1 - x2)^4"
           " + 5*(x0 - x2)*(x1 - x2)*x2^2 + 7*(x1 - x2)^2*x2^2 - 11*x2^4")
    f, t = pp("x2") * g, pp("(x0 - x2)^2 - x2^2")
    x0, x1, x2 = sympy.symbols("x0 x1 x2")
    for line in (x0, x0 - 2 * x2):  # the restriction to each line has a simple root
        restricted = sympy.Poly(sympy.sympify(str(g).replace("^", "**")).subs(
            x0, sympy.solve(line, x0)[0]), x1, x2)
        assert all(m == 1 for _, m in sympy.factor_list(restricted)[1])
    assert total_tangency_check(f, t, seed=0).shear == (1, 1)
    for seed in range(1, 6):
        assert total_tangency_check(f, t, seed=seed).verdict is Tangency.NOT_TANGENT
