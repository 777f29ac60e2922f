"""Picard-lattice enumeration, Weyl groups and involutions."""

import itertools
import math
import random
import subprocess
import sys

import pytest
from conftest import fresh_env

from dptheta import lattice as lt
from dptheta.lattice import ClassKind


def brute_force_classes(degree, selfint, kdeg):
    """Independent oracle: scan an integer box for the classes
    D = a L + sum(c_i E_i) with D.D = a^2 - sum(c_i^2) = s and anticanonical
    degree -K.D = 3a + sum(c_i) = t, in exact integers.

    Cauchy-Schwarz, sum(c_i)^2 <= n sum(c_i^2), gives (t - 3a)^2 <=
    n (a^2 - s), that is (9 - n) a^2 - 6 t a + t^2 + n s <= 0, which bounds a;
    each |c_i| <= isqrt(a^2 - s), and the degree t fixes the last c_i.
    """
    n, s, t = 9 - degree, selfint, kdeg
    window = range(-10, 11)
    feasible = [a for a in window if (9 - n) * a * a - 6 * t * a + t * t + n * s <= 0]
    # the inequality is convex in a, so a window wider than its solutions holds them all
    assert feasible and window[0] < feasible[0] and feasible[-1] < window[-1]
    found = []
    for a in feasible:
        bmax = math.isqrt(a * a - s)
        for head in itertools.product(range(-bmax, bmax + 1), repeat=n - 1):
            last = t - 3 * a - sum(head)
            if a * a - sum(x * x for x in head) - last * last == s:
                found.append((a, *head, last))
    return sorted(found)


@pytest.mark.parametrize("degree,kind,selfint,kdeg", [
    (3, ClassKind.EXCEPTIONAL, -1, 1),
    (3, ClassKind.ROOT, -2, 0),
    (3, ClassKind.BLOWDOWN, 1, 3),
    (2, ClassKind.EXCEPTIONAL, -1, 1),
    (2, ClassKind.ROOT, -2, 0),
])
def test_box_scan_oracle(degree, kind, selfint, kdeg):
    lat = lt.make_lattice(degree)
    ours = sorted(lt.enumerate_classes(lat, kind))
    assert ours == brute_force_classes(degree, selfint, kdeg)


def test_blowdowns_as_weyl_orbit():
    """The blow-down classes are exactly the Weyl orbit of L (cross-check:
    orbit BFS versus direct Diophantine enumeration)."""
    for degree in (3, 2):
        lat = lt.make_lattice(degree)
        orbit = set(lt.weyl_orbit(lat, lt.divisor(lat, 1)))
        assert orbit == set(lt.enumerate_classes(lat, ClassKind.BLOWDOWN))


def test_exceptionals_as_weyl_orbit():
    for degree in (3, 2):
        lat = lt.make_lattice(degree)
        orbit = set(lt.weyl_orbit(lat, lt.class_E(lat, 1)))
        assert orbit == set(lt.enumerate_classes(lat, ClassKind.EXCEPTIONAL))


def test_weyl_order_reads_the_blowdown_table(monkeypatch):
    """|W| = |W.L| * (9 - d)! is a read of the class table: with reflect
    made to raise, no orbit search can run and the orders still come out."""
    def refuse(lat, root, x):
        raise AssertionError("reflect called by weyl_order")
    monkeypatch.setattr(lt, "reflect", refuse)
    assert lt.weyl_order(lt.make_lattice(2)) == 2903040
    assert lt.weyl_order(lt.make_lattice(3)) == 51840


def test_weyl_order_orbit_stabilizer():
    """Oracle: sympy's Schreier-Sims order of the permutation group that the
    simple reflections generate on the exceptional classes (a faithful
    action) equals the stabilizer-chain order."""
    from sympy.combinatorics import Permutation, PermutationGroup

    for degree in (3, 2):
        lat = lt.make_lattice(degree)
        lines = lt.enumerate_classes(lat, ClassKind.EXCEPTIONAL)
        index = {d: i for i, d in enumerate(lines)}
        gens = [Permutation([index[lt.reflect(lat, r, d)] for d in lines])
                for r in lt.simple_roots(lat)]
        assert PermutationGroup(gens).order() == lt.weyl_order(lat)


def test_runtime_imports_no_sympy():
    """The CLI and the Weyl orders run without importing sympy."""
    code = ("import sys, dptheta.cli; from dptheta import lattice as lt; "
            "print(lt.weyl_order(lt.make_lattice(2)), "
            "lt.weyl_order(lt.make_lattice(3)), 'sympy' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=fresh_env())
    assert run.stdout.split() == ["2903040", "51840", "False"]


def test_reflections_preserve_pairing():
    lat = lt.make_lattice(3)
    roots = lt.enumerate_classes(lat, ClassKind.ROOT)
    excs = lt.enumerate_classes(lat, ClassKind.EXCEPTIONAL)
    r = roots[5]
    for a, b in itertools.combinations(excs[:10], 2):
        assert lt.pair(lat, lt.reflect(lat, r, a), lt.reflect(lat, r, b)) \
            == lt.pair(lat, a, b)


def test_geiser_involution():
    lat = lt.make_lattice(2)
    excs = lt.enumerate_classes(lat, ClassKind.EXCEPTIONAL)
    for d in excs:
        img = lt.geiser(lat, d)
        assert img in excs
        assert lt.geiser(lat, img) == d
        assert lt.pair(lat, d, img) == 2  # paired bitangent halves meet twice
    assert lt.geiser(lat, lat.canonical) == lat.canonical


def test_geiser_examples():
    """Spot images: E_i <-> 3L - sum E + E_i... i.e. the D_i family."""
    lat = lt.make_lattice(2)
    e1 = lt.class_E(lat, 1)
    img = lt.geiser(lat, e1)
    assert img == (3, -2, -1, -1, -1, -1, -1, -1)


def test_double_six_partner():
    lat = lt.make_lattice(3)
    bds = lt.enumerate_classes(lat, ClassKind.BLOWDOWN)
    for d in bds:
        p = lt.double_six_partner(lat, d)
        assert p in bds and p != d
        assert lt.double_six_partner(lat, p) == d
    assert len(lt.double_six_orbits(lat)) == 36


def test_contracted_lines():
    for degree, count in ((3, 6), (2, 7)):
        lat = lt.make_lattice(degree)
        bd = lt.enumerate_classes(lat, ClassKind.BLOWDOWN)[0]
        lines = lt.contracted_lines(lat, bd)
        assert len(lines) == count
        for a, b in itertools.combinations(lines, 2):
            assert lt.pair(lat, a, b) == 0  # pairwise disjoint


def pair_by_zip(lat, a, b):
    """Oracle: the pairing as a zip over the E-coefficients."""
    if len(a) != lat.rank or len(b) != lat.rank:
        raise ValueError("vector length does not match lattice rank")
    return a[0] * b[0] - sum(x * y for x, y in zip(a[1:], b[1:]))


@pytest.mark.parametrize("degree", [2, 3])
def test_pair_matches_zip_oracle(degree):
    lat = lt.make_lattice(degree)
    rng = random.Random(degree)
    for _ in range(500):
        a, b = (tuple(rng.randint(-9, 9) for _ in range(lat.rank)) for _ in range(2))
        assert lt.pair(lat, a, b) == pair_by_zip(lat, a, b)
    big = (3 ** 80,) + (-(2 ** 70),) * lat.npoints
    assert lt.pair(lat, big, big) == pair_by_zip(lat, big, big)
    for a, b in [(big[:-1], big), (big, big + (1,)), ((), ())]:
        with pytest.raises(ValueError, match="does not match lattice rank"):
            lt.pair(lat, a, b)


def test_kind_of():
    lat = lt.make_lattice(3)
    assert lt.kind_of(lat, lt.class_E(lat, 1)) is ClassKind.EXCEPTIONAL
    assert lt.kind_of(lat, lt.divisor(lat, 1)) is ClassKind.BLOWDOWN
    assert lt.kind_of(lat, lt.sub(lt.class_E(lat, 1), lt.class_E(lat, 2))) \
        is ClassKind.ROOT
    assert lt.kind_of(lat, lat.canonical) is None
    # the dict lookup agrees with a scan of ClassKind on every enumerated class
    for lat in (lt.make_lattice(2), lat):
        pool = [c for kind in ClassKind for c in lt.enumerate_classes(lat, kind)]
        for c in pool + [lat.canonical, (0,) * lat.rank, lt.scale(2, lt.divisor(lat, 1))]:
            key = (lt.pair(lat, c, c), lt.pair(lat, c, lat.canonical))
            assert lt.kind_of(lat, c) is next((k for k in ClassKind if k.value == key), None)


def test_format_parse_roundtrip():
    lat = lt.make_lattice(2)
    for d in lt.enumerate_classes(lat, ClassKind.EXCEPTIONAL)[:20]:
        assert lt.parse_class(lt.format_class(d)) == d


def test_bad_degree():
    with pytest.raises(ValueError):
        lt.make_lattice(4)
