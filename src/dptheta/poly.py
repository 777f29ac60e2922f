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
from math import lcm
from numbers import Rational

from .kernels import determinant
from .text import echo, int_of_digits

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
    """The product of two term dicts, MultiPoly's and the parser's, not yet `_clean`."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = tuple(map(operator.add, ea, eb))
            out[exp] = out.get(exp, 0) + ca * cb
    return out


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
        raise ValueError(f"repeated variable name in {echo(variables)}")
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
                raise ValueError(f"bad exponent {echo(tuple(exp))} "
                                 f"for variables {echo(self.vars)}")
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
        if name not in variables:
            raise ValueError(f"variable {echo(name)} absent from the variables")
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
        """Degree in one variable; 0 for a name not in vars, -1 for the zero
        polynomial."""
        if name not in self.vars:
            return 0 if self.terms else -1
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
        """Coefficient of name**power, as a polynomial in the same variables.
        A name not in vars has degree 0, as in degree_in."""
        if name not in self.vars:
            return self if power == 0 else MultiPoly._new(self.vars, {})
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
            raise ValueError(f"variable mismatch: {echo(self.vars)} vs {echo(other.vars)}")
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

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.vars == other.vars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def evaluate(self, values: Mapping[str, Fraction | int]) -> int | Fraction:
        """The exact value at a point of ints and Fractions, an int when it is
        integral; a coordinate that is not an exact rational raises TypeError."""
        if missing := [v for v in self.vars if v not in values]:
            raise ValueError(f"no value for variable {echo(missing[0])}")
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
                    raise ValueError(f"variable {echo(v)} used but absent from target")
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
_TOKENS = re.compile(f"(?:{_TOKEN.pattern})*")  # longest run of tokens from the start, for messages
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
    ValueError before anything is expanded; so does a sum, product or power
    whose formed coefficients outgrow MAX_COEFF_BITS, so that every
    coefficient returned is within it.  A product's monomial factors
    and their powers fold without expansion; only groups of several terms
    multiply through `_mul_terms` and `_power`.
    """
    variables = _names(variables)
    const = (0,) * len(variables)
    index = {v: i for i, v in enumerate(variables)}
    tokens = _TOKEN.findall(text)  # findall skips what no token starts; the join check sees it
    if "".join(tokens) != "".join(text.split()):
        raise ValueError(f"cannot tokenize {echo(text[_TOKENS.match(text).end():])}")
    tokens = [None] + tokens[::-1]  # pop() takes the next token; None ends the input
    depth = 0

    def parse_sum():
        terms = parse_product()
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

    def parse_product():
        """Read every factor, then multiply.  Signs and monomial factors fold
        into coeff and exps as they are read; groups of several terms
        multiply in last, fewest terms first."""
        nonlocal depth
        coeff, exps, groups, degree, count = 1, list(const), [], 0, 0  # degree -1 once zero
        while True:
            # a factor is signs, an atom and an optional ^n; a sign binds looser
            # than ^, as in Python: -x0^2 is -(x0^2)
            top = depth  # each sign and parenthesis nests one level in the factor
            while tokens[-1] in ("+", "-"):
                depth += 1
                coeff = -coeff if tokens.pop() == "-" else coeff
            tok, base, term, group = tokens.pop(), 1, const, None
            if depth + (tok == "(") > MAX_NESTING:
                raise ValueError(f"expression nested deeper than {MAX_NESTING}")
            if tok == "(":
                depth += 1
                group = parse_sum()
                if tokens.pop() != ")":
                    raise ValueError("unbalanced parentheses")
                if len(group) < 2:  # a monomial after all
                    (term, base), group = next(iter(group.items()), (const, 0)), None
            elif tok is None:
                raise ValueError("unexpected end of expression")
            elif tok[0].isdigit():
                num, _, den = tok.partition("/")
                num, den = int_of_digits(num), int_of_digits(den) if den else 1
                if not den:
                    raise ValueError(f"zero denominator in {echo(tok)}")
                base = Fraction(num, den) if num % den else num // den
            elif tok not in index:
                raise ValueError(f"unknown variable {echo(tok)}" if tok.isidentifier()
                                 else f"unexpected {echo(tok)}")
            depth, n = top, 1
            if tokens[-1] == "^":
                tokens.pop()
                n = tokens.pop()
                if n is None or not n.isdigit():
                    raise ValueError("exponent must be a nonnegative integer")
                n = int_of_digits(n)
                if n > MAX_DEGREE:
                    raise ValueError(f"exponent {echo(n)} exceeds {MAX_DEGREE}")
                if group is not None:
                    check_degree(max(map(sum, group)) * n)
                    check_bits(group.values(), n)
                    group = _clean(_power(group, n, {const: 1}, _mul_terms))
                    check_bits(group.values())
                elif tok not in index:  # x^n needs no guard past n's own
                    check_degree((sum(term) if base else -1) * n)
                    check_bits((base,), n)
                    base, term = base ** n, tuple(e * n for e in term)
            if group is not None:
                factor_degree = max(map(sum, group))
                groups.append(group)
            elif tok in index:
                exps[index[tok]] += n
                factor_degree, count = n, count + 1
            else:
                factor_degree = sum(term) if base else -1
                exps = list(map(operator.add, exps, term))
                if count < 2 or not max(abs(coeff.numerator), coeff.denominator) >> MAX_COEFF_BITS:
                    coeff *= base  # until a product of two or more outgrows MAX_COEFF_BITS
                count += 1
            check_degree(degree + factor_degree)
            degree = -1 if degree < 0 or factor_degree < 0 else degree + factor_degree
            tok = tokens[-1]
            if tok == "*":
                tokens.pop()
            elif tok is None or not (tok[0].isalnum() or tok == "("):
                break
        if degree < 0:  # a zero factor, before any oversized product
            return {}
        if count > 1:  # the product the fold stopped at, if past the bound
            check_bits((coeff,))
        groups.sort(key=len)  # a stable sort, so a wide factor is met once
        node = ({tuple(exps): _canon(coeff)} if count
                else {e: coeff * c for e, c in groups.pop(0).items()})
        for group in groups:
            node = _clean(_mul_terms(node, group))
            check_bits(node.values())
        return node

    result = parse_sum()
    if tokens[-1] is not None:
        raise ValueError(f"trailing tokens at {echo(tokens[:0:-1])}")
    return MultiPoly._new(variables, result)


def sylvester(fc: list[int], gc: list[int]) -> int:
    """Res(f, g) from int coefficient lists, highest degree first; deg f +
    deg g >= 1.  The rows of the lower-degree form (g at equal degrees) come
    first, so the early Bareiss pivots are its leading coefficient; g's rows
    first cost (-1)^(mn)."""
    m, n, sign = len(fc) - 1, len(gc) - 1, 1
    if n <= m:
        fc, gc, m, n, sign = gc, fc, n, m, (-1) ** (m * n)
    rows = [[0] * s + fc + [0] * (n - 1 - s) for s in range(n)]
    rows += [[0] * s + gc + [0] * (m - 1 - s) for s in range(m)]
    return determinant(rows) * sign


def integral_terms(p: MultiPoly) -> tuple[int, dict[Exponent, int]]:
    """(s, the terms of s*p), s the lcm of p's denominators."""
    scale = lcm(*(c.denominator for c in p.terms.values()))
    return scale, {e: c.numerator * (scale // c.denominator) for e, c in p.terms.items()}


def pack_digits(coeffs: list[int], k: int) -> int:
    """Kronecker packing: the polynomial with these coefficients, low degree
    first, as one int, its value at y = 2^k."""
    return sum(c << (k * e) for e, c in enumerate(coeffs) if c)


def unpack_digits(value: int, k: int) -> list[int]:
    """Balanced base-2^k digits of value, low first: each in [-2^(k-1), 2^(k-1))."""
    half, mask, digits = 1 << (k - 1), (1 << k) - 1, []
    while value:
        digit = ((value + half) & mask) - half
        digits.append(digit)
        value = (value - digit) >> k
    return digits


def _pack_bits(fc: list[list[int]], gc: list[list[int]]) -> int:
    """Digit width k with every coefficient of Res(f, g) below 2^(k-1).

    A determinant is a signed sum over permutations of products of one
    entry per row, and ||pq||_1 <= ||p||_1 ||q||_1, so each coefficient is
    at most the product over rows of the summed l1 norms of the row's
    entries: ||f||_1^deg(g) * ||g||_1^deg(f).
    """
    norm_f = sum(abs(c) for coeffs in fc for c in coeffs)
    norm_g = sum(abs(c) for coeffs in gc for c in coeffs)
    bound = norm_f ** (len(gc) - 1) * norm_g ** (len(fc) - 1)
    return bound.bit_length() + 1


def packed_sylvester(fc: list[list[int]], gc: list[list[int]]) -> list[int]:
    """Res(f, g) in x, f and g given by their x-coefficients, highest power
    first, each an int polynomial in y as a list low degree first: the
    resultant's y-coefficients, low first; [] if it is zero.

    Each entry of the Sylvester matrix is packed into one int by evaluating
    it at y = 2^k (Kronecker substitution); the int determinant is the
    resultant at 2^k, and the bound behind k makes its balanced digits the
    coefficients.
    """
    k = _pack_bits(fc, gc)
    return unpack_digits(sylvester([pack_digits(c, k) for c in fc],
                                   [pack_digits(c, k) for c in gc]), k)


def resultant(f: MultiPoly, g: MultiPoly, name: str) -> MultiPoly:
    """Sylvester resultant of f and g with respect to one variable.

    With s_f, s_g the lcms of the denominators and m, n the degrees in name,
    Res(s_f*f, s_g*g) = s_f^n * s_g^m * Res(f, g) is `packed_sylvester` in one
    variable y: each other variable v is y^place(v), the places a mixed radix
    above the v-degrees of f, g and Res, n*deg_v(f) + m*deg_v(g).  The ints
    grow with the product of those bases, so the time is exponential in the
    number of variables: on four-term forms of degree up to 3 in each
    variable, 0.3 ms at 3 variables, 11 ms at 4, 1.1 s at 5 and more than
    2 min at 6 (Python 3.11, a 2-core host).  No caller in the package passes
    more than 3."""
    if f.vars != g.vars:
        raise ValueError(f"variable mismatch: {echo(f.vars)} vs {echo(g.vars)}")
    m, n = f.degree_in(name), g.degree_in(name)
    if m < 1 and n < 1:
        raise ValueError(f"variable {echo(name)} absent from both polynomials")
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial")
    (sf, fi), (sg, gi) = integral_terms(f), integral_terms(g)
    i = f.vars.index(name)
    places, radix = [], 1  # (index, place, base) of each other variable
    for j, v in enumerate(f.vars):
        if j != i:
            df, dg = f.degree_in(v), g.degree_in(v)
            base = max(n * df + m * dg, df, dg) + 1  # f unused at n = 0, g at m = 0
            places.append((j, radix, base))
            radix *= base

    def coefficients(terms, degree):
        out = [[0] * radix for _ in range(degree + 1)]
        for e, c in terms.items():
            out[degree - e[i]][sum(e[j] * place for j, place, _ in places)] = c
        return out

    scale, res = sf ** n * sg ** m, {}
    for y, c in enumerate(packed_sylvester(coefficients(fi, m), coefficients(gi, n))):
        if c:
            exp = [0] * len(f.vars)
            for j, place, base in places:
                exp[j] = y // place % base
            res[tuple(exp)] = Fraction(c, scale)
    return MultiPoly._new(f.vars, res)


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
