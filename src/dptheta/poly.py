"""Sparse exact-rational multivariate polynomials.

A polynomial carries a fixed tuple of distinct variable names and a dict mapping
exponent tuples to nonzero coefficients, each an int when integral and a
Fraction (denominator > 1) otherwise.  All arithmetic is exact, division
through Fraction; there is no floating point anywhere in this module.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Iterable, Mapping
from fractions import Fraction
from numbers import Rational

from .kernels import determinant
from .text import echo, parse_int

Exponent = tuple[int, ...]


def _canon(c) -> int | Fraction:
    """c as an int when it is integral, else as a Fraction (denominator > 1).

    Only exact rationals are coefficients: a float, a string or any other
    value that is not a numbers.Rational raises TypeError.
    """
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        if not isinstance(c, Rational):
            raise TypeError(f"{echo(c)} is not an int or a Fraction")
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _clean(terms: Mapping) -> dict:
    """The nonzero terms, each coefficient canonical."""
    return {e: _canon(c) for e, c in terms.items() if c}


def _mul_terms(a: Mapping, b: Mapping) -> dict:
    """The product of two term dicts: MultiPoly's and the parser's."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = tuple(map(operator.add, ea, eb))
            out[exp] = out.get(exp, 0) + ca * cb
    return _clean(out)


def _power(base, n: int, one, mul):
    """base ** n by square and multiply under the product mul; one when n is 0."""
    result = None
    while n:
        if n & 1:
            result = base if result is None else mul(result, base)
        n >>= 1
        if n:  # a square after the top bit would be thrown away
            base = mul(base, base)
    return one if result is None else result


def _names(variables: Iterable[str]) -> tuple[str, ...]:
    """The variable names as a tuple; a repeated name raises ValueError."""
    variables = tuple(variables)
    if len(set(variables)) != len(variables):
        raise ValueError(f"repeated variable name in {variables}")
    return variables


class MultiPoly:
    """Immutable sparse polynomial over the rationals, coefficients canonical."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[Exponent, Fraction | int]):
        object.__setattr__(self, "vars", _names(variables))
        terms = {e: _canon(c) for e, c in terms.items()}  # a zero float is refused too
        for exp, coeff in terms.items():
            if coeff and (len(exp) != len(self.vars)
                          or any(not isinstance(e, int) or e < 0 for e in exp)):
                raise ValueError(f"bad exponent {tuple(exp)} for variables {self.vars}")
        object.__setattr__(self, "terms", {tuple(e): c for e, c in terms.items() if c})

    @classmethod
    def _new(cls, variables: tuple[str, ...], terms: Mapping[Exponent, Fraction | int]):
        """The constructor for results, whose exponents are already valid tuples."""
        p = object.__new__(cls)
        object.__setattr__(p, "vars", variables)
        object.__setattr__(p, "terms", _clean(terms))
        return p

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return MultiPoly, (self.vars, self.terms)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, variables: Iterable[str]) -> "MultiPoly":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Iterable[str], value) -> "MultiPoly":
        variables = _names(variables)
        return cls._new(variables, {(0,) * len(variables): _canon(value)})

    @classmethod
    def variable(cls, variables: Iterable[str], name: str) -> "MultiPoly":
        variables = _names(variables)
        exp = [0] * len(variables)
        exp[variables.index(name)] = 1
        return cls._new(variables, {tuple(exp): 1})

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def degree_in(self, name: str) -> int:
        i = self.vars.index(name)
        return max((e[i] for e in self.terms), default=-1)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        degs = {sum(e) for e in self.terms}
        if not degs:
            return True
        if len(degs) > 1:
            return False
        return degree is None or degs == {degree}

    def coefficient(self, name: str, power: int) -> "MultiPoly":
        """Coefficient of name**power, as a polynomial in the same variables."""
        i = self.vars.index(name)
        out = {}
        for exp, coeff in self.terms.items():
            if exp[i] == power:
                reduced = exp[:i] + (0,) + exp[i + 1:]
                out[reduced] = coeff
        return MultiPoly._new(self.vars, out)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "MultiPoly":
        """other as a polynomial in self's variables; a scalar is a constant."""
        if not isinstance(other, MultiPoly):
            return MultiPoly.constant(self.vars, other)
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            out[exp] = out.get(exp, 0) + coeff
        return MultiPoly._new(self.vars, out)

    def __neg__(self):
        return MultiPoly._new(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        return MultiPoly._new(self.vars, _mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        return _power(self, n, MultiPoly.constant(self.vars, 1), operator.mul)

    def __floordiv__(self, other):
        """Exact quotient by long division in lex order; ValueError if inexact."""
        other = self._coerce(other)
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        lead, lead_coeff = max(other.terms.items())
        if not any(lead):  # a constant divisor
            return self * Fraction(1, lead_coeff)  # int / int would be a float
        rest, quotient = self, {}
        while rest:
            top, coeff = max(rest.terms.items())
            shift = tuple(a - b for a, b in zip(top, lead))
            if min(shift) < 0:
                raise ValueError("polynomial division is not exact")
            quotient[shift] = Fraction(coeff, lead_coeff)
            rest = rest - MultiPoly._new(self.vars, {shift: quotient[shift]}) * other
        return MultiPoly._new(self.vars, quotient)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.vars == other.vars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def evaluate(self, values: Mapping[str, Fraction | int]) -> int | Fraction:
        """The exact value at a point of ints and Fractions, an int when it is
        integral; a coordinate that is not an exact rational raises TypeError."""
        point = [_canon(values[v]) for v in self.vars]
        total = 0
        for exp, coeff in self.terms.items():
            term = coeff
            for x, e in zip(point, exp):
                term *= x ** e
            total += term
        return _canon(total)

    def rename_vars(self, variables: Iterable[str]) -> "MultiPoly":
        """Re-embed into another variable tuple (a superset, any order)."""
        variables = _names(variables)
        mapping = []
        for v in self.vars:
            if v not in variables:
                if self.degree_in(v) > 0:
                    raise ValueError(f"variable {v} used but absent from target")
                mapping.append(None)
            else:
                mapping.append(variables.index(v))
        out = {}
        for exp, coeff in self.terms.items():
            new = [0] * len(variables)
            for pos, e in zip(mapping, exp):
                if pos is not None:
                    new[pos] = e
            out[tuple(new)] = coeff
        return MultiPoly._new(variables, out)

    # -- formatting ---------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, reverse=True):
            coeff = self.terms[exp]
            factors = [f"{v}^{e}" if e > 1 else v
                       for v, e in zip(self.vars, exp) if e]
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            parts.append(("- " if coeff < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    __repr__ = __str__


_TOKEN = re.compile(r"\s*([0-9]+/[0-9]+|[0-9]+|[A-Za-z_]\w*|\^|\*|\+|-|\(|\))")
_TOKENS = re.compile(f"(?:{_TOKEN.pattern})*")  # the longest run of tokens from the start
MAX_NESTING = 100  # parentheses and unary signs, each one recursion
MAX_DEGREE = 16  # exponents and the total degree of each product
MAX_COEFF_BITS = 4096  # coefficient bits of each sum and product; exponent times base bits


def parse_poly(text: str, variables: Iterable[str]) -> MultiPoly:
    """Parse expressions like "3*x0^2*x1 - 1/2*x2^3" over the given variables.

    Supports + - * ^, parentheses, rational coefficients and implicit
    multiplication ("2x0", "x0(x1+1)"); unary signs bind looser than ^, as
    in Python ("2*-x0^2" is -2*x0^2).  Nesting deeper than MAX_NESTING, an
    exponent above MAX_DEGREE, a product or power of total degree above
    MAX_DEGREE, or a power whose exponent times the bit length of the
    base's largest numerator or denominator is above MAX_COEFF_BITS raises
    ValueError before anything is expanded; so does a sum or product whose
    formed coefficients outgrow MAX_COEFF_BITS.  Intermediates are term dicts.
    """
    variables = _names(variables)
    const = (0,) * len(variables)
    atoms = {v: {const[:i] + (1,) + const[i + 1:]: 1} for i, v in enumerate(variables)}
    stop = _TOKENS.match(text).end()
    if stop < len(text.rstrip()):
        raise ValueError(f"cannot tokenize {echo(text[stop:])}")
    tokens = [None] + _TOKEN.findall(text)[::-1]  # pop() takes the next token; None ends the input
    depth = 0

    def parse_sum():
        terms = dict(parse_product())
        while tokens[-1] in ("+", "-"):
            combine = operator.add if tokens.pop() == "+" else operator.sub
            term = parse_product()
            for e, c in term.items():
                terms[e] = combine(terms.get(e, 0), c)
            check_bits(terms[e] for e in term)  # no other coefficient changed
        return _clean(terms)

    def check_degree(degree):
        if degree > MAX_DEGREE:
            raise ValueError(f"degree {degree} exceeds {MAX_DEGREE}")

    def check_bits(coeffs, times=1):
        for c in coeffs:
            bits = times * max(c.numerator.bit_length(), c.denominator.bit_length())
            if bits > MAX_COEFF_BITS:
                raise ValueError(f"coefficient size {bits} bits exceeds {MAX_COEFF_BITS}")

    def nested(parse):
        nonlocal depth
        depth += 1
        if depth > MAX_NESTING:
            raise ValueError(f"expression nested deeper than {MAX_NESTING}")
        node = parse()
        depth -= 1
        return node

    def parse_product():
        factors, degree = [], 0  # degree -1 once a factor is zero
        while True:
            factors.append(parse_factor())  # the first, after "*", or implicit as in "2x0"
            factor_degree = max(map(sum, factors[-1]), default=-1)
            check_degree(degree + factor_degree)
            degree = -1 if degree < 0 or factor_degree < 0 else degree + factor_degree
            tok = tokens[-1]
            if tok == "*":
                tokens.pop()
            elif tok is None or not (tok[0].isalnum() or tok == "("):
                break
        # fewest terms first (a stable sort), so a wide factor is met once
        node, *rest = sorted(factors, key=len)
        for factor in rest:
            node = _mul_terms(node, factor)
            check_bits(node.values())
        return node

    def parse_factor():  # a sign binds looser than "^", as in Python: -x0^2 is -(x0^2)
        if tokens[-1] not in ("+", "-"):
            return parse_power()
        return _mul_terms({const: -1 if tokens.pop() == "-" else 1}, nested(parse_factor))

    def parse_power():
        base = parse_atom()
        if tokens[-1] == "^":
            tokens.pop()
            exp = tokens.pop()
            if exp is None or not exp.isdigit():
                raise ValueError("exponent must be a nonnegative integer")
            exp = parse_int(exp)
            if exp > MAX_DEGREE:
                raise ValueError(f"exponent {echo(exp)} exceeds {MAX_DEGREE}")
            check_degree(max(map(sum, base), default=-1) * exp)
            check_bits(base.values(), exp)
            return _power(base, exp, {const: 1}, _mul_terms)
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
            return {const: value} if value else {}
        if tok in atoms:
            return atoms[tok]
        raise ValueError(f"unknown variable {echo(tok)}" if tok.isidentifier()
                         else f"unexpected {echo(tok)}")

    result = parse_sum()
    if tokens[-1] is not None:
        raise ValueError(f"trailing tokens at {echo(tokens[:0:-1])}")
    return MultiPoly._new(variables, result)


def sylvester(fc: list, gc: list, zero):
    """Res(f, g) from coefficient lists, highest degree first, of ints,
    MultiPolys or any entries `determinant` takes; deg f + deg g >= 1.  The
    rows of the lower-degree form (g at equal degrees) come first, so the early
    Bareiss pivots are its leading coefficient; g's rows first cost (-1)^(mn)."""
    m, n, sign = len(fc) - 1, len(gc) - 1, 1
    if n <= m:
        fc, gc, m, n, sign = gc, fc, n, m, (-1) ** (m * n)
    rows = [[zero] * s + fc + [zero] * (n - 1 - s) for s in range(n)]
    rows += [[zero] * s + gc + [zero] * (m - 1 - s) for s in range(m)]
    return determinant(rows) * sign


def resultant(f: MultiPoly, g: MultiPoly, name: str) -> MultiPoly:
    """Sylvester resultant of f and g with respect to one variable."""
    m, n = f.degree_in(name), g.degree_in(name)
    if m < 1 and n < 1:
        raise ValueError(f"variable {name} absent from both polynomials")
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial")
    fc = [f.coefficient(name, m - i) for i in range(m + 1)]
    gc = [g.coefficient(name, n - i) for i in range(n + 1)]
    return sylvester(fc, gc, MultiPoly.zero(f.vars))


# -- univariate helpers: Yun's square-free decomposition ---------------------

UniPoly = list[Fraction]  # coefficients, low degree first; [] is zero


def _uni_trim(p: UniPoly) -> UniPoly:
    while p and p[-1] == 0:
        p.pop()
    return p


def uni_from_binary_form(poly: MultiPoly, x: str, y: str) -> tuple[UniPoly, int]:
    """Dehomogenize a binary form: returns (p(t) with t = x/y, degree in x+y).

    For F = sum c_i x^i y^(d-i), the multiplicity of x as a factor is the
    valuation of p at 0, and the multiplicity of y is d - deg(p): for
    x^3*y^2 + x^4*y they are 3 and 1.
    """
    d = poly.total_degree()
    xi, yi = poly.vars.index(x), poly.vars.index(y)
    coeffs = [Fraction(0)] * (d + 1)
    for exp, coeff in poly.terms.items():
        if sum(exp) != d or exp[xi] + exp[yi] != d:
            raise ValueError("not a binary form in the given variables")
        coeffs[exp[xi]] += coeff
    return _uni_trim(coeffs), d


def uni_derivative(p: UniPoly) -> UniPoly:
    return _uni_trim([i * c for i, c in enumerate(p)][1:])


def uni_divmod(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly]:
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and a:
        k = len(a) - len(b)
        factor = Fraction(a[-1], b[-1])
        q[k] = factor
        for i, c in enumerate(b):
            a[k + i] -= factor * c
        _uni_trim(a)
    return _uni_trim(q), a


def uni_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    a, b = list(a), list(b)
    while b:
        a, b = b, uni_divmod(a, b)[1]
    if a:
        lead = a[-1]
        a = [Fraction(c, lead) for c in a]
    return a


def _uni_sub(a: UniPoly, b: UniPoly) -> UniPoly:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return _uni_trim(out)


def squarefree_multiplicities(p: UniPoly) -> list[tuple[UniPoly, int]]:
    """Yun decomposition: nontrivial squarefree factors with multiplicities."""
    if not p:
        raise ValueError("zero polynomial")
    if len(p) == 1:
        return []
    dp = uni_derivative(p)
    a = uni_gcd(p, dp)
    b = uni_divmod(p, a)[0]
    c = uni_divmod(dp, a)[0]
    d = _uni_sub(c, uni_derivative(b))
    out = []
    i = 1
    while len(b) > 1:
        f = uni_gcd(b, d)
        if len(f) > 1:
            out.append((f, i))
        b = uni_divmod(b, f)[0]
        c = uni_divmod(d, f)[0]
        d = _uni_sub(c, uni_derivative(b))
        i += 1
    return out
