"""Exact sparse polynomial arithmetic, with sympy as the oracle."""

import operator
import random
import re
from fractions import Fraction
from functools import cache

import pytest
import sympy
from conftest import DATA

from dptheta import detrep, poly
from dptheta.kernels import determinant
from dptheta.poly import (MultiPoly, parse_poly, resultant,
                          squarefree_multiplicities, uni_from_binary_form)
from dptheta.text import MAX_LITERAL_DIGITS, data_lines, echo, parse_int

V = ("x0", "x1", "x2")
SYMS = sympy.symbols("x0 x1 x2")


def to_sympy(p: MultiPoly):
    expr = sympy.Integer(0)
    for exp, coeff in p.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for s, e in zip(SYMS, exp):
            term *= s ** e
        expr += term
    return sympy.expand(expr)


def assert_canonical(p: MultiPoly):
    """Every coefficient is an int, or a Fraction with denominator > 1."""
    for c in p.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), (p, c)


def random_form(rng, degree, max_den=1):
    """A form of the given degree, coefficients over denominators up to max_den."""
    terms = {}
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            if rng.random() < 0.7:
                terms[(i, j, degree - i - j)] = Fraction(rng.randint(-9, 9),
                                                         rng.randint(1, max_den))
    return MultiPoly(V, terms)


def random_poly(rng, degree=3, nterms=6):
    terms = {}
    for _ in range(nterms):
        exp = tuple(rng.randint(0, degree) for _ in V)
        terms[exp] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return MultiPoly(V, terms)


def test_parse_examples():
    p = parse_poly("3*x0^2*x1 - 1/2*x2^3", V)
    assert p.terms == {(2, 1, 0): Fraction(3), (0, 0, 3): Fraction(-1, 2)}
    assert parse_poly("x0 + x0", V) == parse_poly("2*x0", V)
    assert parse_poly("-x1^2", V) == parse_poly("0 - x1*x1", V)


def test_parse_str_roundtrip():
    rng = random.Random(0)
    for _ in range(50):
        p = random_poly(rng)
        assert parse_poly(str(p), V) == p


def test_parse_rejects_garbage():
    for bad in ("x3", "x0 +", "1//2", "x0^", "(x0", "x0 x1 )"):
        with pytest.raises(ValueError):
            parse_poly(bad, V)


@pytest.mark.parametrize("bad,message", [
    ("x0^2^2", "trailing tokens at ['^', '2']"),
    ("x0 x1 )", "trailing tokens at [')']"),
    ("()", "unexpected ')'"),
    ("x0 + * x1", "unexpected '*'"),
    ("^2", "unexpected '^'"),
    ("x3", "unknown variable 'x3'"),
    ("x0 +", "unexpected end of expression"),
])
def test_parse_error_names_the_token(bad, message):
    """The message quotes the offending input tokens only: no end-of-input
    sentinel, and an operator is unexpected, not an unknown variable."""
    with pytest.raises(ValueError) as exc:
        parse_poly(bad, V)
    assert str(exc.value) == message


def random_expression(rng, depth):
    """(text, degree bound) of a random expression that Python also reads,
    once ^ is ** and a/b is Fraction(a, b): variables, literals, binary
    + - *, unary signs, and ^ 0..3 on an atom or a parenthesized group."""
    pick = rng.randrange(7 if depth else 3)
    if pick == 0:
        return rng.choice(V), 1
    if pick == 1:
        return str(rng.randint(0, 30)), 0
    if pick == 2:
        return f"{rng.randint(0, 9)}/{rng.randint(1, 9)}", 0
    text, degree = random_expression(rng, depth - 1)
    if pick == 3:
        return rng.choice("+-") + text, degree
    if pick == 4:
        if text not in V and not text.isdigit():
            text = f"({text})"
        e = rng.randint(0, 3)
        return f"{text}^{e}", degree * e
    other, other_degree = random_expression(rng, depth - 1)
    space = rng.choice(("", " "))
    # within a concatenation the grouping may change, so add the bounds
    return space.join((text, rng.choice("+-*"), other)), degree + other_degree


def python_value(text, point):
    source = re.sub(r"(\d+)/(\d+)", r"Fraction(\1, \2)", text).replace("^", "**")
    return eval(source, {"Fraction": Fraction}, dict(zip(V, point)))


@cache
def grammar_corpus():
    """3000 random expressions of degree at most MAX_DEGREE, read by three
    tests: the Python-eval oracle, the reference parser and the mutations."""
    rng = random.Random(17)
    generated = []
    while len(generated) < 3000:
        text, degree = random_expression(rng, 4)
        if degree <= poly.MAX_DEGREE:
            generated.append(text)
    return tuple(generated)


def test_parse_matches_python_grammar():
    """Unary signs bind looser than ^ wherever they stand, as in Python:
    every expression evaluates to what Python's eval of it gives."""
    rng = random.Random(18)
    fixed = ("x0*-x1^2", "x0 - -x1^2", "2*-x0^2", "3--22^0", "-x0^2", "+-+x1^2*x2")
    for text in fixed + grammar_corpus():
        point = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in V]
        assert parse_poly(text, V).evaluate(dict(zip(V, point))) \
            == python_value(text, point), text


def reference_parse(text, variables):
    """The parse_poly grammar evaluated on MultiPoly values, one per atom,
    product and sum, with one `_TOKEN.match` per token: the oracle of the
    differential tests below.  It quotes input through the same bounded
    `text.echo`, so the two parsers raise the same messages."""
    variables = poly._names(variables)
    atoms = {v: MultiPoly.variable(variables, v) for v in variables}
    found = []
    pos, end = 0, len(text.rstrip())
    while pos < end:
        m = poly._TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot tokenize {echo(text[pos:])}")
        found.append(m.group(1))
        pos = m.end()
    tokens = [None] + found[::-1]
    depth = 0

    def parse_sum():
        terms = dict(parse_product().terms)
        while tokens[-1] in ("+", "-"):
            combine = operator.add if tokens.pop() == "+" else operator.sub
            term = parse_product().terms
            for e, c in term.items():
                terms[e] = combine(terms.get(e, 0), c)
            check_bits(terms[e] for e in term)
        return MultiPoly._new(variables, terms)

    def check_degree(degree):
        if degree > poly.MAX_DEGREE:
            raise ValueError(f"degree {degree} exceeds {poly.MAX_DEGREE}")

    def check_bits(coeffs, times=1):
        for c in coeffs:
            bits = times * max(c.numerator.bit_length(), c.denominator.bit_length())
            if bits > poly.MAX_COEFF_BITS:
                raise ValueError(f"coefficient size {bits} bits exceeds {poly.MAX_COEFF_BITS}")

    def nested(parse):
        nonlocal depth
        depth += 1
        if depth > poly.MAX_NESTING:
            raise ValueError(f"expression nested deeper than {poly.MAX_NESTING}")
        node = parse()
        depth -= 1
        return node

    def parse_product():
        factors = [parse_factor()]
        degree = factors[0].total_degree()
        while True:
            tok = tokens[-1]
            if tok == "*":
                tokens.pop()
            elif tok is None or not (tok[0].isalnum() or tok == "("):
                break
            factors.append(parse_factor())
            factor_degree = factors[-1].total_degree()
            check_degree(degree + factor_degree)
            degree = -1 if degree < 0 or factor_degree < 0 else degree + factor_degree
        node, *rest = sorted(factors, key=lambda p: len(p.terms))
        for factor in rest:
            node = node * factor
            check_bits(node.terms.values())
        return node

    def parse_factor():
        if tokens[-1] not in ("+", "-"):
            return parse_power()
        return nested(parse_factor) if tokens.pop() == "+" else -nested(parse_factor)

    def parse_power():
        base = parse_atom()
        if tokens[-1] == "^":
            tokens.pop()
            exp = tokens.pop()
            if exp is None or not exp.isdigit():
                raise ValueError("exponent must be a nonnegative integer")
            exp = parse_int(exp)
            if exp > poly.MAX_DEGREE:
                raise ValueError(f"exponent {echo(exp)} exceeds {poly.MAX_DEGREE}")
            check_degree(base.total_degree() * exp)
            check_bits(base.terms.values(), exp)
            power = base ** exp
            check_bits(power.terms.values())
            return power
        return base

    def parse_atom():
        tok = tokens.pop()
        if tok == "(":
            node = nested(parse_sum)
            if tokens.pop() != ")":
                raise ValueError("unbalanced parentheses")
            return node
        if tok is None:
            raise ValueError("unexpected end of expression")
        if tok[0].isdigit():
            num, _, den = tok.partition("/")
            num, den = parse_int(num), parse_int(den or "1")
            if not den:
                raise ValueError(f"zero denominator in {echo(tok)}")
            value = Fraction(num, den) if num % den else num // den
            return MultiPoly.constant(variables, value)
        if tok in atoms:
            return atoms[tok]
        raise ValueError(f"unknown variable {echo(tok)}" if tok.isidentifier()
                         else f"unexpected {echo(tok)}")

    result = parse_sum()
    if tokens[-1] is not None:
        raise ValueError(f"trailing tokens at {echo(tokens[:0:-1])}")
    return result


def parse_outcome(parse, text, variables=V):
    """The polynomial parse reads off text, or the message of its ValueError."""
    try:
        return parse(text, variables)
    except ValueError as exc:
        return f"ValueError: {exc}"


def mutate(rng, text):
    """A malformed variant of an expression: a token dropped or repeated, a
    stray `)`, `$` or `^` put in, an exponent past MAX_DEGREE, or a literal
    at or past the digit cap."""
    tokens = poly._TOKEN.findall(text)
    i = rng.randrange(len(tokens))
    pick = rng.randrange(5)
    if pick == 0:
        del tokens[i]
    elif pick == 1:
        tokens.insert(i, tokens[i])
    elif pick == 2:
        tokens.insert(i, rng.choice(")$^"))
    elif pick == 3:
        tokens[i:i + 1] = [tokens[i], "^", str(rng.choice((poly.MAX_DEGREE + 1, 10 ** 6)))]
    else:
        digits = "9" * (MAX_LITERAL_DIGITS + rng.randint(0, 1))
        tokens.insert(i, rng.choice((digits, f"1/{digits}", f"{digits}/7")))
    return rng.choice(("", " ", "  ")).join(tokens)


def test_parse_matches_reference_on_the_grammar_corpus():
    """The term-dict parser and the MultiPoly-per-token reference agree on
    every expression of the grammar corpus: the same polynomial."""
    for text in grammar_corpus():
        assert parse_poly(text, V) == reference_parse(text, V), text


def test_parse_matches_reference_on_malformed_input():
    """On seeded malformed mutations of the corpus, and on edge cases of
    the tokenizer, both parsers return the same polynomial or raise
    ValueError with the same message."""
    rng = random.Random(25)
    edges = ["", "  ", "x0 \t\n", "x0 $", "$" + " + x0 - x0" * 20, "x0 )" + " x1" * 20,
             "y" * 100, "1/0", "0^0", "(x0 - x0)^0", "0*x0^16*x1", "٣x0",
             "x0 + 1", "x0 + 1/", "x0^-1", "x0^ 2", "(((x0)", "x0))", "2x0(x1+1)x2",
             "(x0 - x0)*x0^16", "x1^9*(x2 - x2)^2*x0^9", "(1/2*x0 - x0/2)^0"]
    corpus = edges + [mutate(rng, text) for text in grammar_corpus() for _ in range(2)]
    failures = 0
    for text in corpus:
        got = parse_outcome(parse_poly, text)
        assert got == parse_outcome(reference_parse, text), text
        failures += isinstance(got, str)
    assert failures > len(corpus) // 2  # the mutations mostly are malformed


def test_parse_matches_reference_on_every_data_line():
    """Every line of every demos/data/*.txt file, whole and after its
    `NAME:`, parses to the same polynomial or the same error under both."""
    lines = [line for path in sorted(DATA.glob("*.txt"))
             for _, line in data_lines(path.read_text())]
    assert len(lines) >= 20
    for line in lines:
        for text in (line, line.partition(":")[2]):
            assert parse_outcome(parse_poly, text, detrep.PLANE_VARS) \
                == parse_outcome(reference_parse, text, detrep.PLANE_VARS), text


def test_parse_nesting_bounded():
    """Parentheses and unary minus signs each nest one level; past
    MAX_NESTING the parser raises ValueError, not RecursionError."""
    deep = poly.MAX_NESTING
    assert parse_poly("(" * deep + "x0" + ")" * deep, V) == parse_poly("x0", V)
    assert parse_poly("x1*" + "-" * deep + "x0", V) \
        == parse_poly(("-" if deep % 2 else "") + "x0*x1", V)
    for bad in ("(" * (deep + 1) + "x0" + ")" * (deep + 1),
                "x1*" + "-" * (deep + 1) + "x0",
                "(" * 3000 + "x0" + ")" * 3000,
                "x0*" + "-" * 3000 + "x1"):
        with pytest.raises(ValueError, match="nested"):
            parse_poly(bad, V)


def test_power_squares_only_while_bits_remain(monkeypatch):
    """p ** 16 forms no product of degree above 16: the square after the
    top bit, p^32 here, is never built."""
    base = parse_poly("x0 + x1 + x2", V)
    mul = MultiPoly.__mul__
    degrees = []

    def recording(a, b):
        out = mul(a, b)
        degrees.append(out.total_degree())
        return out

    monkeypatch.setattr(MultiPoly, "__mul__", recording)
    power = base ** 16
    assert power.total_degree() == 16 and len(power.terms) == 153
    assert max(degrees) == 16


def test_parse_degree_bounded(expansion_guard):
    """Exponents above MAX_DEGREE and products or powers of total degree
    above it raise ValueError before anything is expanded: `expansion_guard`
    fails any power or product past the bound on entry."""
    top = poly.MAX_DEGREE
    assert parse_poly(f"(x0+x1+x2+1)^{top}", V).total_degree() == top
    assert parse_poly("*".join(["x0"] * top), V) == parse_poly(f"x0^{top}", V)
    assert parse_poly(f"2^{top}*x0^{top}", V).total_degree() == top
    for bad in (f"x0^{top + 1}", f"2^{top + 1}", "(x0+x1+x2)^120",
                "2^99999999", "*".join(["x0"] * (top + 1)),
                f"x0^{top}*x1", f"x0^{top} x1", f"(x0^9)^2",
                f"(x0^9)(x1^8)"):
        with pytest.raises(ValueError, match=f"exceeds {top}"):
            parse_poly(bad, V)


def test_parse_coefficient_size_bounded():
    """A power whose exponent times the bit length of the base's largest
    numerator or denominator exceeds MAX_COEFF_BITS raises ValueError."""
    top = poly.MAX_COEFF_BITS
    assert top % 16 == 0
    edge = 2 ** (top // 16) - 1  # top // 16 bits
    assert parse_poly(f"{edge}^16", V) == MultiPoly.constant(V, edge ** 16)
    assert parse_poly(f"(1/{edge}*x0)^16", V).total_degree() == 16
    assert parse_poly("((2)^16)^16", V) == MultiPoly.constant(V, 2 ** 256)
    for bad in (f"{edge + 1}^16", f"(x0 + 1/{edge + 1})^16",
                "(((2)^16)^16)^16", "((((2)^16)^16)^16)^16"):
        with pytest.raises(ValueError, match=f"exceeds {top}"):
            parse_poly(bad, V)


def test_group_power_coefficients_bounded():
    """The power guard bounds n times the base's bits, not the multinomial
    growth of a group's power: (B*x0 + B)^16 with B = 2^256 - 1 passes it,
    but its middle coefficient has 4100 bits.  Alone or in a sum, and in
    the oracle, the formed power is refused."""
    b = 2 ** 256 - 1
    message = rf"^coefficient size 4100 bits exceeds {poly.MAX_COEFF_BITS}$"
    for text in (f"({b}*x0 + {b})^16", f"1 + ({b}*x0 + {b})^16"):
        for parse in (parse_poly, reference_parse):
            with pytest.raises(ValueError, match=message):
                parse(text, V)


BIG = "9" * MAX_LITERAL_DIGITS  # 3322 bits: one literal fits, a product does not


@pytest.mark.parametrize("expr", [
    "*".join([BIG] * 5) + "*x0",
    f"({BIG})({BIG})x0",
    f"({BIG}*x0 + x1)*({BIG}*x0 - x1)",
    " + ".join(f"1/{BIG[:-1]}{d}*x0" for d in "1357"),
], ids=["literal-product", "implicit-product", "form-product", "sum-of-fractions"])
def test_parse_sum_and_product_coefficients_bounded(expr):
    """Every sum and product the parser forms keeps its numerators and
    denominators within MAX_COEFF_BITS, though each operand is within it."""
    within = parse_poly(f"{BIG}*x0 + {BIG}*x0 - 1/{BIG}*x1", V)
    assert within.terms[(1, 0, 0)] == 2 * int(BIG)
    message = rf"^coefficient size \d+ bits exceeds {poly.MAX_COEFF_BITS}$"
    with pytest.raises(ValueError, match=message):
        parse_poly(expr, V)


def test_parse_product_meets_wide_factor_once(expansion_guard):
    """A wide factor meets the rest of its product once: the 969 monomials
    of degree <= 16 parse to 969 terms, and a zero factor makes the product
    zero in any position without a product past MAX_DEGREE ever entering
    `_mul_terms`.  The work count on the 2000 factors `*1` is
    `test_parse_term_products_meet_wide_factor_once`'s."""
    top = poly.MAX_DEGREE
    wide = "(" + " + ".join(f"x0^{i}*x1^{j}*x2^{k}" for i in range(top + 1)
                            for j in range(top + 1 - i) for k in range(top + 1 - i - j)) + ")"
    assert len(parse_poly(wide, V).terms) == 969
    assert parse_poly("2*" + wide + "*0*x0^16", V).is_zero()
    assert parse_poly(wide + "*0", V).is_zero()
    with pytest.raises(ValueError, match=f"exceeds {top}"):
        parse_poly("x0*" + wide + "*0", V)  # degrees are checked in source order


def test_parse_product_reads_every_factor_first():
    """A product multiplies once all its factors are read, fewest terms
    first: a zero factor makes it zero before an oversized partial product
    of the factors ahead of it, and a syntax error in a later factor is the
    error reported."""
    assert parse_poly(f"{BIG}*{BIG}*0*x0", V).is_zero()
    with pytest.raises(ValueError, match="^unexpected '\\)'$"):
        parse_poly(f"{BIG}*{BIG}*(x0 +)", V)
    with pytest.raises(ValueError, match="^coefficient size 6644 bits exceeds"):
        parse_poly(f"{BIG}*{BIG}*x0", V)


def test_parse_term_products_meet_wide_factor_once(monkeypatch):
    """The parser multiplies through the term-dict kernel `_mul_terms`: the
    2000 factors `*1` after the 969 monomials of degree <= 16 add at most
    969 + 2000 term products, and no MultiPoly product runs at all."""
    top = poly.MAX_DEGREE
    wide = "(" + " + ".join(f"x0^{i}*x1^{j}*x2^{k}" for i in range(top + 1)
                            for j in range(top + 1 - i) for k in range(top + 1 - i - j)) + ")"
    kernel = poly._mul_terms
    work = [0]

    def counting(a, b):
        work[0] += len(a) * len(b)
        return kernel(a, b)

    def refuse(a, b):
        raise AssertionError("the parser built a MultiPoly product")

    monkeypatch.setattr(poly, "_mul_terms", counting)
    monkeypatch.setattr(MultiPoly, "__mul__", refuse)
    alone = parse_poly(wide, V)
    base, work[0] = work[0], 0
    assert parse_poly(wide + "*1" * 2000, V) == alone
    assert work[0] - base <= 969 + 2000


@pytest.mark.parametrize("expr", [
    "(x0+x1+x2)^120", "(x0+1)^17", "(x0^9+1)^2", f"(x0 + 1/{'9' * 300})^16", f"({BIG} + x0)^2",
    "(x0^9)^2", "2^99999999", "((((((((2)^16)^16)^16)^16)^16)^16)^16)^16",
    "((((1/3)^16)^16)^16)^16", f"{2 ** 256}^16",
], ids=["degree-360", "degree-17", "degree-18", "fraction-bits", "literal-bits",
        "monomial-degree", "constant-exponent", "tower", "fraction-tower", "literal-power"])
def test_parse_power_guards_run_before_the_power_loop(expansion_guard, expr):
    """A power past MAX_DEGREE or MAX_COEFF_BITS raises before it is formed:
    a monomial's power folds into its exponents and coefficient without
    the square-and-multiply loop `_power`, and a group of several terms
    enters that loop only once its guards have passed."""
    with pytest.raises(ValueError, match="exceeds"):
        parse_poly(expr, V)
    assert parse_poly("(x0^8)^2 + 2^16", V) == parse_poly("x0^16 + 65536", V)
    assert expansion_guard == []  # monomial powers never enter `_power`
    parse_poly("(x0 + 1)^16", V)
    assert expansion_guard == [16]


def test_parse_sum_of_monomials_expands_nothing(expansion_guard, monkeypatch):
    """A sum of monomials folds each term's numbers, variables and powers
    without expansion: the printed quintic of `detrep_sample.txt` and every
    line of that file parse without entering `_power` or `_mul_terms`."""
    text = (DATA / "detrep_sample.txt").read_text()
    quintic = detrep.discriminant_quintic(detrep.data_from_block(detrep.parse_data_block(text)))
    mul_terms, products = poly._mul_terms, []
    expansion_guard.clear()  # only the parses below count

    def recording(a, b):
        products.append((a, b))
        return mul_terms(a, b)

    monkeypatch.setattr(poly, "_mul_terms", recording)
    assert parse_poly(str(quintic), detrep.PLANE_VARS) == quintic
    lines = [line.partition(":")[2] for _, line in data_lines(text)]
    assert len(lines) == 6 and all(not parse_poly(line, detrep.PLANE_VARS).is_zero()
                                   for line in lines)
    assert expansion_guard == [] and products == []


def test_parse_error_quotes_a_bounded_prefix():
    """An error quotes at most 40 characters of repr of the input, then
    "...": a 1 MB line does not come back as a 1 MB message."""
    tail = " + x0 - x0" * 100000
    cases = [("$" + tail, "cannot tokenize '$ + x0 - x0 + x0 - x0 + x0 - x0 + x0 - ..."),
             ("x0 )" + tail, "trailing tokens at [')', '+', 'x0', '-', 'x0', '+', 'x0', '..."),
             ("y" * 10 ** 6, "unknown variable 'yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy..."),
             ("1/" + "0" * 999, "zero denominator in '1/0000000000000000000000000000000000000..."),
             ("x0 $" + " " * 10, "cannot tokenize ' $          '")]
    for text, message in cases:
        with pytest.raises(ValueError) as exc:
            parse_poly(text, V)
        assert str(exc.value) == message


def test_ring_axioms_random():
    rng = random.Random(1)
    for _ in range(30):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a - a).is_zero()
        assert to_sympy(a * b) == sympy.expand(to_sympy(a) * to_sympy(b))


def test_substitute_and_evaluate():
    p = parse_poly("x0^2 + x1*x2", V)
    q = substitute_term_by_term(p, "x0", parse_poly("x1 - x2", V))
    assert q == parse_poly("x1^2 - 2*x1*x2 + x2^2 + x1*x2", V)
    val = p.evaluate({"x0": Fraction(2), "x1": Fraction(1, 2),
                      "x2": Fraction(4)})
    assert val == Fraction(6)


def substitute_term_by_term(p, name, replacement):
    """Oracle: add coefficient * replacement^k to a running sum, term by term."""
    i = p.vars.index(name)
    out = MultiPoly.zero(p.vars)
    powers = {0: MultiPoly.constant(p.vars, 1)}
    for exp, coeff in p.terms.items():
        k = exp[i]
        if k not in powers:
            powers[k] = replacement ** k
        rest = MultiPoly(p.vars, {exp[:i] + (0,) + exp[i + 1:]: coeff})
        out = out + rest * powers[k]
    return out


def test_coefficients_stored_canonically():
    p = MultiPoly(V, {(1, 0, 0): 3, (0, 1, 0): 0, (0, 0, 1): Fraction(1, 2)})
    assert p.terms == {(1, 0, 0): 3, (0, 0, 1): Fraction(1, 2)}
    for q in (p, p + p * p + 2, p - p * 7, substitute_term_by_term(p, "x0", p)):
        assert_canonical(q)
    for bad in ({(1, 0): 1}, {(-1, 0, 0): 1}, {(2.0, 0, 0): 3}, {(1.5, 0, 0): 1},
                {("1", 0, 0): 1}):
        with pytest.raises(ValueError, match="bad exponent"):
            MultiPoly(V, bad)


@pytest.mark.parametrize("bad", [0.1, 0.0, 0.5, "1/2", 1j, None],
                         ids=["float", "zero-float", "half", "string", "complex", "none"])
def test_inexact_coefficient_refused(bad):
    """Only ints and Fractions (numbers.Rational) are coefficients: a float
    is not stored as its binary expansion, nor a string parsed."""
    p = parse_poly("x0 + 1", V)
    calls = [lambda: MultiPoly(V, {(1, 0, 0): bad}), lambda: MultiPoly.constant(V, bad),
             lambda: p + bad, lambda: p * bad, lambda: bad * p]
    for call in calls:
        with pytest.raises(TypeError, match="not an int or a Fraction"):
            call()
    with pytest.raises(TypeError):  # from -bad itself where bad has no negation
        p - bad


@pytest.mark.parametrize("bad", [0.1, 0.0, "1/2", 1j, None],
                         ids=["float", "zero-float", "string", "complex", "none"])
def test_inexact_point_refused(bad):
    """A point coordinate is an exact rational too: a float is not read as
    its binary expansion, nor a string parsed."""
    p = parse_poly("x0 + 1", V)
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        p.evaluate({"x0": bad, "x1": 1, "x2": 1})


def test_evaluate_is_exact_and_canonical():
    p = parse_poly("1/2*x0^2 + x1*x2", V)
    value = p.evaluate({"x0": 2, "x1": Fraction(1, 3), "x2": 3})
    assert value == 3 and type(value) is int
    assert p.evaluate({"x0": 1, "x1": True, "x2": Fraction(1, 4)}) == Fraction(3, 4)
    assert type(MultiPoly.zero(V).evaluate(dict.fromkeys(V, 1))) is int


def test_rational_coefficients_accepted():
    p = MultiPoly(V, {(1, 0, 0): True, (0, 1, 0): Fraction(6, 4), (0, 0, 1): 0})
    assert p.terms == {(1, 0, 0): 1, (0, 1, 0): Fraction(3, 2)}
    assert type(p.terms[(1, 0, 0)]) is int
    assert p + Fraction(1, 2) == parse_poly("x0 + 3/2*x1 + 1/2", V)
    assert p * Fraction(2, 3) == parse_poly("2/3*x0 + x1", V)


def test_canonical_coefficients_everywhere():
    """No result holds a float, or a Fraction that is an integer."""
    assert MultiPoly(V, {(1, 0, 0): Fraction(6, 3)}).terms == {(1, 0, 0): 2}
    half = parse_poly("2/4*x0 + 1/2*x0", V)
    assert half.terms == {(1, 0, 0): 1} and type(half.terms[(1, 0, 0)]) is int
    rng = random.Random(20)
    p = parse_poly("3*x0^2 - 1/2*x1*x2 + 2/3*x2^2", V)
    q = parse_poly("1/2*x1*x2 + 4*x0 - 5", V)
    results = [p + q, p - q, q - p, p * q, 2 * p, p * Fraction(2, 3), p * Fraction(6),
               p ** 3, substitute_term_by_term(p, "x1", q),
               p.rename_vars(("x2", "y", "x1", "x0")), resultant(p, q, "x0")]
    data = detrep.extract_matrix(detrep.cubic_threefold(detrep.SymThetaData(
        *(random_form(rng, deg, 6) for deg in (1, 1, 1, 2, 2, 3)))))
    results += list(data) + [detrep.discriminant_quintic(data)]
    for r in results:
        assert_canonical(r)
    # the Yun helpers divide through Fraction as well, also on int input
    found = squarefree_multiplicities([1, 2, 1]) + squarefree_multiplicities([-1, 0, 0, 1])
    assert found == [([1, 1], 2), ([-1, 0, 0, 1], 1)]
    assert all(type(c) is Fraction for factor, _ in found for c in factor)


def test_str_roundtrip_identical_on_integral_and_rational_forms():
    rng = random.Random(21)
    for k in range(40):
        p = random_form(rng, rng.randint(0, 5), 6 if k % 2 else 1)
        text = str(p)
        back = parse_poly(text, V)
        assert back == p and str(back) == text
        assert_canonical(back)


def test_parse_literal_digits_bounded():
    edge = "9" * MAX_LITERAL_DIGITS
    assert parse_poly(edge, V) == MultiPoly.constant(V, int(edge))
    assert parse_poly(f"1/{edge}", V) == MultiPoly.constant(V, Fraction(1, int(edge)))
    for bad in (edge + "9", f"1/{edge}9", f"x0^{edge}9"):
        with pytest.raises(ValueError, match=f"1001 digits exceeds {MAX_LITERAL_DIGITS}"):
            parse_poly(bad, V)
    with pytest.raises(ValueError, match="zero denominator"):
        parse_poly("x0 + 1/0", V)


def test_homogeneity_and_degrees():
    p = parse_poly("x0^2*x1 + x2^3", V)
    assert p.is_homogeneous(3)
    assert p.total_degree() == 3
    assert p.degree_in("x2") == 3
    assert not parse_poly("x0 + 1", V).is_homogeneous(1)
    assert MultiPoly.zero(V).total_degree() == -1


def test_determinant_vs_sympy():
    rng = random.Random(2)
    for n in range(1, 7):
        for _ in range(10):
            m = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(n)]
            assert determinant(m) == sympy.Matrix(m).det()


def laplace_determinant(matrix, zero, one):
    """The former `poly.determinant`: Laplace expansion along the rows,
    memoised on the 2^n column subsets.  It never divides, so it serves as
    an oracle for the fraction-free elimination on any commutative entries."""
    n = len(matrix)
    cache = {}

    def minor(cols):
        row = n - len(cols)
        if not cols:
            return one
        if cols in cache:
            return cache[cols]
        total = zero
        for j, col in enumerate(cols):
            entry = matrix[row][col]
            if entry == zero:
                continue
            term = entry * minor(cols[:j] + cols[j + 1:])
            total = total + (term if j % 2 == 0 else -term)
        cache[cols] = total
        return total

    return minor(tuple(range(n)))


def laplace_resultant(f, g, name):
    """Determinant of the Sylvester matrix in its textbook row order: the
    deg(g) rows of f above the deg(f) rows of g."""
    m, n = f.degree_in(name), g.degree_in(name)
    fc = [f.coefficient(name, m - i) for i in range(m + 1)]
    gc = [g.coefficient(name, n - i) for i in range(n + 1)]
    zero = MultiPoly.zero(f.vars)
    rows = [[zero] * s + fc + [zero] * (n - 1 - s) for s in range(n)]
    rows += [[zero] * s + gc + [zero] * (m - 1 - s) for s in range(m)]
    return laplace_determinant(rows, zero, MultiPoly.constant(f.vars, 1))


def random_int_matrix(rng, n):
    """Sparse-ish small entries; some singular, some with a zero pivot."""
    m = [[rng.choice((0, 0, rng.randint(-3, 3))) for _ in range(n)]
         for _ in range(n)]
    kind = rng.randrange(3)
    if kind == 1 and n > 1:  # a row combining two others: singular
        a, b, c = (rng.randrange(n) for _ in range(3))
        m[c] = [x + 2 * y for x, y in zip(m[a], m[b])]
    elif kind == 2:  # zero leading pivot: the elimination must swap rows
        m[0][0] = 0
    return m


def test_determinant_matches_laplace_on_ints():
    rng = random.Random(11)
    swapped = singular = 0
    for n in range(1, 9):
        for _ in range(60):
            m = random_int_matrix(rng, n)
            expected = laplace_determinant(m, 0, 1)
            assert determinant(m) == expected
            swapped += m[0][0] == 0 and expected != 0
            singular += expected == 0
    assert swapped > 20 and singular > 20
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[0, 0, 1], [0, 2, 3], [4, 5, 6]]) == -8


def resultant_pair(rng, name):
    """A random pair with a nonzero degree in name, a third of them sharing
    a factor of positive degree in name."""
    def part(top):
        return MultiPoly(V, {tuple(rng.randint(0, top) if v == name
                                   else rng.randint(0, 1) for v in V):
                             rng.randint(-4, 4) for _ in range(3)})

    while True:
        if rng.random() < 1 / 3:
            common = part(1)
            f, g = common * part(1), common * part(2)
        else:
            f, g = part(3), part(3)
        if (f.degree_in(name) >= 1 or g.degree_in(name) >= 1) \
                and not f.is_zero() and not g.is_zero():
            return f, g


@pytest.mark.parametrize("name", V)
def test_resultant_matches_laplace_oracle(name):
    """Both row orders, the (-1)^(mn) sign and the zero resultant of a
    common factor all agree with the textbook Sylvester determinant."""
    rng = random.Random(f"resultant {name}")
    seen = {"m<n": 0, "m==n": 0, "m>n": 0, "odd swap": 0, "zero": 0}
    for _ in range(200):
        f, g = resultant_pair(rng, name)
        m, n = f.degree_in(name), g.degree_in(name)
        res = resultant(f, g, name)
        assert res == laplace_resultant(f, g, name)
        seen["m<n"] += m < n
        seen["m==n"] += m == n
        seen["m>n"] += m > n
        seen["odd swap"] += m > n and m * n % 2 == 1
        seen["zero"] += res.is_zero()
    assert min(seen.values()) >= 10, seen
    x = {v: MultiPoly.variable(V, v) for v in V}
    t, u, w = x[name], *(x[v] for v in V if v != name)
    rows = [  # rational coefficients; f, then g, constant in name; both degree bounds
        (Fraction(1, 2) * t ** 2 - Fraction(2, 3) * u * w + Fraction(1, 5),
         Fraction(3, 4) * t - Fraction(1, 7) * u ** 2),
        (2 * u - w, t ** 3 - u),
        (t ** 2 + u, Fraction(3, 2) * w ** 2),
        (t - u ** 2, t ** 2 - w ** 3),  # u^4 - w^3: deg 2*2 + 1*0 in u, 2*0 + 1*3 in w
    ]
    for f, g in rows:
        assert resultant(f, g, name) == laplace_resultant(f, g, name), (f, g)
    assert resultant(t - u ** 2, t ** 2 - w ** 3, name) == u ** 4 - w ** 3


def test_sylvester_matches_laplace_on_ints():
    """`poly.sylvester` on int coefficient lists is the determinant of the
    textbook Sylvester matrix whichever form has the lower degree; a
    constant operand gives its power, and a shared root gives 0."""
    def textbook(fc, gc):
        m, n = len(fc) - 1, len(gc) - 1
        rows = [[0] * s + fc + [0] * (n - 1 - s) for s in range(n)]
        rows += [[0] * s + gc + [0] * (m - 1 - s) for s in range(m)]
        return laplace_determinant(rows, 0, 1)

    rng = random.Random(31)
    seen = {"m<n": 0, "m==n": 0, "m>n": 0, "constant": 0, "zero": 0}
    while min(seen.values()) < 10:
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        if m + n == 0:
            continue
        fc = [rng.choice((0, 1, -2, 3))] + [rng.randint(-4, 4) for _ in range(m)]
        gc = [rng.choice((0, -1, 2, 5))] + [rng.randint(-4, 4) for _ in range(n)]
        if rng.random() < 0.2 and m and n:  # a shared root at x = 1
            fc[-1] -= sum(fc)
            gc[-1] -= sum(gc)
        res = poly.sylvester(fc, gc)
        assert res == textbook(fc, gc), (fc, gc)
        seen["m<n"] += m < n
        seen["m==n"] += m == n
        seen["m>n"] += m > n
        seen["constant"] += not m * n
        seen["zero"] += res == 0
    assert poly.sylvester([3], [1, 2, -1, 5]) == 3 ** 3
    assert poly.sylvester([2, 0, 1], [-5]) == (-5) ** 2
    # Res(x - 3, g) = g(3), and Res(g, x - 3) = (-1)^deg(g) g(3)
    assert poly.sylvester([1, -3], [1, 0, 2]) == 11
    assert poly.sylvester([1, 0, 0, 2], [1, -3]) == -29
    # (x - 2)(x + 1) and (x - 2)(x^2 + 1) share the root 2
    assert poly.sylvester([1, -1, -2], [1, -2, 1, -2]) == 0


def test_resultant_spec_examples():
    vs = ("x", "y", "a", "b")
    x, y = MultiPoly.variable(vs, "x"), MultiPoly.variable(vs, "y")
    a, b = MultiPoly.variable(vs, "a"), MultiPoly.variable(vs, "b")
    assert resultant(x - a, x - b, "x") == a - b
    assert resultant(x * x - y, x - y, "x") == y * y - y


def test_resultant_vs_sympy():
    rng = random.Random(3)
    for _ in range(10):
        f = random_poly(rng, degree=2, nterms=4)
        g = random_poly(rng, degree=2, nterms=4)
        if f.degree_in("x0") < 1 or g.degree_in("x0") < 1:
            continue
        ours = to_sympy(resultant(f, g, "x0"))
        oracle = sympy.expand(sympy.resultant(to_sympy(f), to_sympy(g),
                                              SYMS[0]))
        assert ours == oracle


def test_resultant_common_root():
    """Res vanishes exactly on a common factor."""
    vs = ("x", "y")
    x, y = MultiPoly.variable(vs, "x"), MultiPoly.variable(vs, "y")
    f = (x - y) * (x + y)
    g = (x - y) * (x + 2 * y)
    assert resultant(f, g, "x").is_zero()


def test_squarefree_vs_sympy():
    t = sympy.Symbol("t")
    rng = random.Random(4)
    for _ in range(20):
        # random product of small irreducible-ish factors with multiplicities
        factors = [(rng.randint(1, 3), [Fraction(rng.randint(-3, 3)),
                                        Fraction(rng.randint(1, 3))])
                   for _ in range(rng.randint(1, 3))]
        p = [Fraction(1)]
        expr = sympy.Integer(1)
        for mult, lin in factors:
            for _ in range(mult):
                p = [sum((p[i - j] * lin[j] if 0 <= i - j < len(p)
                          else Fraction(0)) for j in range(2))
                     for i in range(len(p) + 1)]
            expr *= (lin[0] + lin[1] * t) ** mult
        ours = squarefree_multiplicities(p)
        rebuilt = sympy.Integer(1)
        for part, mult in ours:
            pe = sum(sympy.Rational(c.numerator, c.denominator) * t ** i
                     for i, c in enumerate(part))
            rebuilt *= pe ** mult
        quotient = sympy.simplify(sympy.expand(expr) / sympy.expand(rebuilt))
        assert quotient.is_constant()


def small_polys(rng, count):
    """`count` polynomials: the empty one, one written with a zero
    coefficient, then draws of at most five terms with exponents 0..4 in
    each variable and Fraction coefficients in [-20, 20] over denominators
    up to 6."""
    polys = [MultiPoly(V, {}), MultiPoly(V, {(1, 0, 0): 0, (0, 2, 1): Fraction(-3, 2)})]
    while len(polys) < count:
        terms = {}
        for _ in range(rng.randint(0, 5)):
            den = rng.randint(1, 6)
            terms[tuple(rng.randint(0, 4) for _ in V)] = Fraction(
                rng.randint(-20 * den, 20 * den), den)
        polys.append(MultiPoly(V, terms))
    return polys


def test_ring_axioms_hypothesis():
    """60 triples from a fixed seed."""
    polys = small_polys(random.Random(60), 3 * 60)
    for a, b, c in zip(polys[0::3], polys[1::3], polys[2::3]):
        assert (a + b) * c == a * c + b * c, (a, b, c)
        assert a * (b * c) == (a * b) * c, (a, b, c)
        assert a - (b - c) == (a - b) + c, (a, b, c)


def test_str_parse_inverse_hypothesis():
    """40 polynomials from a fixed seed."""
    for p in small_polys(random.Random(40), 40):
        assert parse_poly(str(p), V) == p, p


def test_uni_from_binary_form():
    p = parse_poly("x0^2*x1 - 2*x0*x1^2", V)
    coeffs, degree = uni_from_binary_form(p, "x0", "x1")
    assert degree == 3
    # dehomogenized at x1 = 1, low degree first, x0-multiplicity preserved
    assert coeffs[-1] == Fraction(0) or len(coeffs) <= 3
    with pytest.raises(ValueError):
        uni_from_binary_form(parse_poly("x0*x2", V), "x0", "x1")
