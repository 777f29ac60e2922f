import os
from pathlib import Path

import pytest

from dptheta import poly

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"


def fresh_env():
    """os.environ with src first on PYTHONPATH, for a fresh interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=pythonpath)


@pytest.fixture
def data_dir() -> Path:
    return DATA


def _degree(terms) -> int:
    return max(map(sum, terms), default=0)


def _bits(terms) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in terms.values()), default=0)


@pytest.fixture
def expansion_guard(monkeypatch) -> list[int]:
    """Make the parser's two expanding kernels, `poly._power` and
    `poly._mul_terms`, fail on entry with work past MAX_DEGREE or
    MAX_COEFF_BITS: a power whose exponent, degree or coefficient size is
    over the bound, or a product whose degrees sum past MAX_DEGREE or with an
    operand already too wide.  A bound checked only after the expansion then
    fails the test instead of slowing it.  Returns the exponents that
    entered `_power`, in order."""
    power, mul_terms = poly._power, poly._mul_terms
    entered = []

    def guarded_power(base, n, one, mul):
        assert n <= poly.MAX_DEGREE and _degree(base) * n <= poly.MAX_DEGREE, "degree unchecked"
        assert _bits(base) * n <= poly.MAX_COEFF_BITS, "coefficient size unchecked"
        entered.append(n)
        return power(base, n, one, mul)

    def guarded_mul_terms(a, b):
        assert _degree(a) + _degree(b) <= poly.MAX_DEGREE, "degree unchecked"
        assert max(_bits(a), _bits(b)) <= poly.MAX_COEFF_BITS, "coefficient size unchecked"
        return mul_terms(a, b)

    monkeypatch.setattr(poly, "_power", guarded_power)
    monkeypatch.setattr(poly, "_mul_terms", guarded_mul_terms)
    return entered
