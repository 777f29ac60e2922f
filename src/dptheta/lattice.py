"""Picard lattice of a degree-2 or degree-3 Del Pezzo surface.

Divisor classes are integer coefficient vectors (a, b1, ..., b_{9-d}) in the
basis (L, E1, ..., E_{9-d}), with intersection form diag(1, -1, ..., -1) and
canonical class K = -3L + sum(Ei).  All operations are pure functions on
immutable tuples, so results are hashable and safe to cache or share.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable
from enum import Enum
from functools import lru_cache
from operator import mul

from .text import echo, parse_int

DivisorClass = tuple[int, ...]


class ClassKind(Enum):
    """A class kind is cut out by its value: (self-intersection, degree against K)."""

    EXCEPTIONAL = (-1, -1)
    ROOT = (-2, 0)
    BLOWDOWN = (1, -3)


_KIND_OF_KEY = {k.value: k for k in ClassKind}


class PicardLattice(namedtuple("PicardLattice", "degree")):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, degree: int):
        if degree not in (2, 3):
            raise ValueError(f"degree must be 2 or 3, got {echo(degree)}")
        return super().__new__(cls, degree)

    @property
    def rank(self) -> int:
        return 10 - self.degree

    @property
    def npoints(self) -> int:
        """Number of blown-up points (9 - degree)."""
        return 9 - self.degree

    @property
    def canonical(self) -> DivisorClass:
        return (-3,) + (1,) * self.npoints


def make_lattice(degree: int) -> PicardLattice:
    return PicardLattice(degree)


def divisor(lat: PicardLattice, a: int, *b: int) -> DivisorClass:
    """Build the class a*L + sum(b_i * E_i), padding missing b with zeros."""
    if len(b) > lat.npoints:
        raise ValueError("too many exceptional coefficients")
    return (a,) + tuple(b) + (0,) * (lat.npoints - len(b))


def class_E(lat: PicardLattice, i: int) -> DivisorClass:
    """E_i with 1-based index i."""
    if not 1 <= i <= lat.npoints:
        raise ValueError(f"index {echo(i)} out of range")
    v = [0] * lat.rank
    v[i] = 1
    return tuple(v)


def pair(lat: PicardLattice, a: DivisorClass, b: DivisorClass) -> int:
    """Intersection pairing under diag(1, -1, ..., -1)."""
    if len(a) != lat.rank or len(b) != lat.rank:
        raise ValueError("vector length does not match lattice rank")
    return 2 * a[0] * b[0] - sum(map(mul, a, b))


def add(a: DivisorClass, b: DivisorClass) -> DivisorClass:
    return tuple(x + y for x, y in zip(a, b))


def sub(a: DivisorClass, b: DivisorClass) -> DivisorClass:
    return tuple(x - y for x, y in zip(a, b))


def scale(k: int, a: DivisorClass) -> DivisorClass:
    return tuple(k * x for x in a)


def kind_of(lat: PicardLattice, d: DivisorClass) -> ClassKind | None:
    """Classify d by (self-intersection, degree against K), or None."""
    return _KIND_OF_KEY.get((pair(lat, d, d), pair(lat, d, lat.canonical)))


def _coeff_solutions(n: int, total: int, sq: int) -> Iterable[tuple[int, ...]]:
    """All integer n-tuples b (n >= 1) with sum(b) = total and sum(b^2) = sq.

    Backtracks coordinate by coordinate; the Cauchy-Schwarz bound
    (remaining sum)^2 <= (remaining coords) * (remaining squares) prunes
    infeasible branches, so the search is finite and fast.
    """
    lim = math.isqrt(sq)
    for b in range(-lim, lim + 1):
        r_total = total - b
        r_sq = sq - b * b
        if n == 1:
            if r_total == 0 and r_sq == 0:
                yield (b,)
            continue
        if r_total * r_total > (n - 1) * r_sq:
            continue
        for rest in _coeff_solutions(n - 1, r_total, r_sq):
            yield (b,) + rest


@lru_cache(maxsize=None)
def enumerate_classes(lat: PicardLattice, kind: ClassKind) -> tuple[DivisorClass, ...]:
    """All classes of the given kind, in lexicographic order.

    A class a*L + sum(b_i E_i) with a*a - sum(b_i^2) = s and degree
    -3a - sum(b_i) = k against K satisfies, by Cauchy-Schwarz applied to
    the b_i, the bound (9-n) a^2 + 6k a + k^2 + n s <= 0 with n = 9 - d.
    This gives a finite range for a; the b_i are then bounded as well.  The
    bound's discriminant is 36 + 4d(n-1), 8dn or 4(d-9)^2 for the three
    kinds, never negative, and sum(b_i^2) = a^2 - s is never negative
    either: s < 0 for exceptional classes and roots, and a blow-down's
    range starts at a = 1.
    """
    s, k = kind.value
    n = lat.npoints
    # (9-n) a^2 + 6k a + (k^2 + n*s) <= 0
    qa, qb, qc = 9 - n, 6 * k, k * k + n * s
    root = math.isqrt(qb * qb - 4 * qa * qc)
    a_lo = -((qb + root) // (2 * qa))  # ceil((-qb - root) / (2 qa)), in ints
    a_hi = (root - qb) // (2 * qa)
    out = []
    for a in range(a_lo, a_hi + 1):
        for b in _coeff_solutions(n, -k - 3 * a, a * a - s):
            out.append((a,) + b)
    return tuple(sorted(out))


def reflect(lat: PicardLattice, root: DivisorClass, x: DivisorClass) -> DivisorClass:
    """Reflection of x in the hyperplane orthogonal to a (-2)-root."""
    if pair(lat, root, root) != -2:
        raise ValueError("reflection requires a class of self-intersection -2")
    return add(x, scale(pair(lat, x, root), root))


def simple_roots(lat: PicardLattice) -> tuple[DivisorClass, ...]:
    """Root basis: L - E1 - E2 - E3 and E_i - E_{i+1} (E7 for d=2, E6 for d=3)."""
    roots = [divisor(lat, 1, -1, -1, -1)]
    for i in range(1, lat.npoints):
        roots.append(sub(class_E(lat, i), class_E(lat, i + 1)))
    return tuple(roots)


def weyl_orbit(lat: PicardLattice, seed: DivisorClass) -> tuple[DivisorClass, ...]:
    """Orbit of seed under the reflection group, sorted lexicographically."""
    roots = simple_roots(lat)
    seen, todo = {seed}, [seed]
    while todo:
        x = todo.pop()
        for r in roots:
            y = reflect(lat, r, x)
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return tuple(sorted(seen))


def weyl_order(lat: PicardLattice) -> int:
    """Order of the reflection group, read off the blow-down table.

    |W| = |W.L| |Stab(L)|: the blow-down classes are the orbit of L
    (test_blowdowns_as_weyl_orbit), and by Chevalley's theorem Stab(L) is
    generated by the simple roots orthogonal to L, the E_i - E_{i+1}: the
    symmetric group on the 9 - d points.  test_weyl_order_orbit_stabilizer
    checks the product against a Schreier-Sims order.
    """
    return len(enumerate_classes(lat, ClassKind.BLOWDOWN)) * math.factorial(lat.npoints)


def geiser(lat: PicardLattice, x: DivisorClass) -> DivisorClass:
    """Covering involution of the degree-2 anticanonical map: x -> -x + (x.K) K."""
    if lat.degree != 2:
        raise ValueError("the Geiser involution requires degree 2")
    return add(scale(-1, x), scale(pair(lat, x, lat.canonical), lat.canonical))


def double_six_partner(lat: PicardLattice, blowdown: DivisorClass) -> DivisorClass:
    """Complementary blow-down system on a cubic surface: L -> -2K - L."""
    if lat.degree != 3:
        raise ValueError("double-six pairing requires degree 3")
    if kind_of(lat, blowdown) is not ClassKind.BLOWDOWN:
        raise ValueError("not a blow-down class")
    return sub(scale(-2, lat.canonical), blowdown)


def contracted_lines(lat: PicardLattice, blowdown: DivisorClass) -> tuple[DivisorClass, ...]:
    """The exceptional classes orthogonal to a blow-down class (6 or 7)."""
    if kind_of(lat, blowdown) is not ClassKind.BLOWDOWN:
        raise ValueError("not a blow-down class")
    return tuple(d for d in enumerate_classes(lat, ClassKind.EXCEPTIONAL)
                 if pair(lat, d, blowdown) == 0)


def double_six_orbits(lat: PicardLattice) -> tuple[frozenset[DivisorClass], ...]:
    """Partition of the degree-3 blow-down classes into partner pairs."""
    orbits = set()
    for d in enumerate_classes(lat, ClassKind.BLOWDOWN):
        orbits.add(frozenset((d, double_six_partner(lat, d))))
    return tuple(sorted(orbits, key=lambda o: min(o)))


def format_class(d: DivisorClass) -> str:
    return "[" + ", ".join(str(c) for c in d) + "]"


def parse_class(text: str) -> DivisorClass:
    """Parse an integer vector like "[3, -1, -1, 0]" or "3 -1 -1 0": one
    optional bracket pair, and between two entries one comma, spaces or both."""
    body = text.strip()
    if body[:1] == "[" and body[-1:] == "]":
        body = body[1:-1]
    fields = [field.split() for field in body.split(",")]
    if fields == [[]]:
        raise ValueError("empty divisor class")
    if "[" in body or "]" in body or not all(fields):
        raise ValueError(f"malformed divisor class {echo(text)}")
    return tuple(parse_int(p) for field in fields for p in field)
