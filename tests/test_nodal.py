"""ADE root configurations and multiplicity schemes."""

import math
import random
import re
from collections import namedtuple
from fractions import Fraction
from functools import cache, partial
from itertools import combinations, product
from types import SimpleNamespace

import pytest

from dptheta import lattice as lt, nodal, theta_f2
from dptheta.lattice import ClassKind
from dptheta.kernels import components, determinant


def config(degree, *roots):
    lat = lt.make_lattice(degree)
    return nodal.NodalConfig(lat, [tuple(r) for r in roots])


A1_NODE = ((0, 1, -1, 0, 0, 0, 0, 0),)
A2_CUSP_3 = ((0, 1, -1, 0, 0, 0, 0), (0, 0, 1, -1, 0, 0, 0))
A2_CUSP_2 = ((0, 1, -1, 0, 0, 0, 0, 0), (0, 0, 1, -1, 0, 0, 0, 0))
E7_ROOTS = ((1, -1, -1, -1, 0, 0, 0, 0),) + tuple(
    tuple(0 if k != i and k != i + 1 else (1 if k == i else -1)
          for k in range(8))
    for i in range(1, 7))


def test_dynkin_classification():
    assert nodal.validate_config(config(2, *A1_NODE)) == "A1"
    assert nodal.validate_config(config(3, *A2_CUSP_3)) == "A2"
    assert nodal.validate_config(config(2, *E7_ROOTS)) == "E7"
    assert nodal.validate_config(config(2)) == "trivial"
    mixed = config(2, (0, 1, -1, 0, 0, 0, 0, 0), (0, 0, 0, 1, -1, 0, 0, 0),
                   (0, 0, 0, 0, 1, -1, 0, 0))
    assert nodal.validate_config(mixed) == "A1+A2"


INVALID_CONFIGS = [
    (2, [(1, 0, 0, 0, 0, 0, 0, 0)], "(1, 0, 0, 0, 0, 0, 0, 0) has self-intersection != -2"),
    (3, [(1, 0, 0, 0, 0, 0, 0)], "(1, 0, 0, 0, 0, 0, 0) has self-intersection != -2"),
    (2, [(0, 1, 1, 0, 0, 0, 0, 0)], "(0, 1, 1, 0, 0, 0, 0, 0) is not orthogonal to K"),
    (2, [(0, 1, -1, 0, 0, 0, 0, 0), (0, -1, 1, 0, 0, 0, 0, 0)],
     "pairing 2 of (0, -1, 1, 0, 0, 0, 0, 0) and (0, 1, -1, 0, 0, 0, 0, 0) not in {0, 1}"),
    # the affine A2 triangle
    (2, [(-2, 0, 1, 1, 1, 1, 1, 1), (0, 1, -1, 0, 0, 0, 0, 0),
         (2, -1, 0, -1, -1, -1, -1, -1)], "root span is not negative definite"),
    (2, [(0, 1, -1, 0, 0, 0, 0, 0), (0, 1, -1, 0, 0, 0, 0)],
     "root (0, 1, -1, 0, 0, 0, 0) has wrong length for degree 2"),
]


def test_invalid_roots_rejected():
    """An invalid configuration cannot be built, directly or from a file."""
    for degree, roots, message in INVALID_CONFIGS:
        with pytest.raises(ValueError, match=re.escape(message)):
            config(degree, *roots)
        text = f"degree {degree}\n" + "".join(f"root {list(r)}\n" for r in roots)
        with pytest.raises(ValueError, match=re.escape(message)):
            nodal.parse_config(text)


def test_empty_config_all_multiplicity_one():
    cfg = config(3)
    assert nodal.scheme(cfg, "lines").multiplicity_profile() == {1: 27}
    assert nodal.scheme(cfg, "blowdowns").multiplicity_profile() == {1: 72}
    cfg2 = config(2)
    assert nodal.scheme(cfg2, "bitangents").multiplicity_profile() == {1: 28}


EXPECTED_PROFILE = {
    "L": (0, 0, 1, 0, 0),
    "2L-Em-En-Ep": (0, 10, 15, 10, 0),
    "3L-sumE+Ei+Ej-Ek": (5, 30, 35, 30, 5),
    "4L-sumE+Ei-Em-En-Ep": (10, 40, 40, 40, 10),
    "5L-2sumE+2Ei": (1, 0, 5, 0, 1),
    "8L-3sumE": (0, 0, 1, 0, 0),
    "7L-2sumE-Ei-Ej-Ek-El": (0, 10, 15, 10, 0),
    "6L-2sumE-Ei-Ej+Ek": (5, 30, 35, 30, 5),
    "5L-sumE-2Ei-Ej-Ek-El": (10, 40, 40, 40, 10),
    "4L-sumE-2Ei": (1, 0, 5, 0, 1),
}


def test_intersection_profile_rows():
    cfg = config(2, *A1_NODE)
    profile = nodal.intersection_profile(cfg)
    assert dict(profile) == EXPECTED_PROFILE


def test_profile_family_sizes():
    """Prop.-style family cardinalities: 1+35+105+140+7+1+35+105+140+7."""
    cfg = config(2, *A1_NODE)
    sizes = [sum(row) for _, row in nodal.intersection_profile(cfg)]
    assert sizes == [1, 35, 105, 140, 7, 1, 35, 105, 140, 7]


def profile_by_pair(cfg):
    """Oracle: the profile table from lt.pair and PROFILE_COLUMNS.index."""
    lat, f = cfg.lattice, cfg.roots[0]
    sig_to_name = {sig: name for name, sig in nodal._PROFILE_FAMILIES}
    table = {name: [0] * len(nodal.PROFILE_COLUMNS) for name in sig_to_name.values()}
    for d in lt.enumerate_classes(lat, ClassKind.BLOWDOWN):
        name = sig_to_name[(d[0], tuple(sorted(d[1:])))]
        table[name][nodal.PROFILE_COLUMNS.index(lt.pair(lat, d, f))] += 1
    return tuple((name, tuple(table[name])) for name, _ in nodal._PROFILE_FAMILIES)


def test_intersection_profile_matches_pair_oracle():
    """Every one of the 126 A1 roots of degree 2."""
    lat = lt.make_lattice(2)
    roots = lt.enumerate_classes(lat, ClassKind.ROOT)
    assert len(roots) == 126
    for r in roots:
        cfg = config(2, r)
        profile = nodal.intersection_profile(cfg)
        assert profile == profile_by_pair(cfg), r
        assert nodal.profile_column_totals(profile) == (32, 160, 192, 160, 32)


def test_profile_requires_single_a1():
    with pytest.raises(ValueError):
        nodal.intersection_profile(config(2, *A2_CUSP_2))
    with pytest.raises(ValueError):
        nodal.intersection_profile(config(3, *A2_CUSP_3))


def test_congruence_classes_partition():
    cfg = config(2, *A1_NODE)
    lat = cfg.lattice
    classes = lt.enumerate_classes(lat, ClassKind.EXCEPTIONAL)
    parts = nodal.congruence_classes(cfg, classes)
    assert sum(len(p) for p in parts) == len(classes)
    flat = [d for p in parts for d in p]
    assert sorted(flat) == sorted(classes)


LooseConfig = namedtuple("LooseConfig", "lattice roots")  # hashable, and never validated


def test_dependent_roots_span_what_their_basis_spans():
    """Roots listed with integral combinations of themselves, a config that
    NodalConfig refuses, part every table as the roots alone do."""
    for degree, roots in ((2, A2_CUSP_2), (2, UNSATURATED[2]["A7"][1]), (3, A2_CUSP_3)):
        lat = lt.make_lattice(degree)
        extra = (lt.scale(2, roots[0]), lt.add(roots[0], roots[1]), lt.sub(roots[1], roots[0]))
        loose = LooseConfig(lat, tuple(roots) + extra)
        for kind in (ClassKind.EXCEPTIONAL, ClassKind.BLOWDOWN):
            table = lt.enumerate_classes(lat, kind)
            assert nodal.congruence_classes(loose, table) == nodal.congruence_classes(
                config(degree, *roots), table)


def test_congruence_classes_at_the_digit_bounds():
    """No class and the zero class, whose values need no bit; and, under the
    trivial config, whose free invariants are the coordinates, every class
    of no kind with entries in [-2, 2] on L, E1 and E2, whose values reach
    the bound that sizes each digit: each is a part of its own."""
    cfg = config(2, *A2_CUSP_2)
    assert nodal.congruence_classes(cfg, []) == ()
    zero = (0,) * cfg.lattice.rank
    assert nodal.congruence_classes(cfg, [zero, zero]) == ((zero, zero),)
    cfg = config(2)
    box = [head + (0,) * 5 for head in product(range(-2, 3), repeat=3)]
    box = [c for c in box if lt.kind_of(cfg.lattice, c) is None]
    assert nodal.congruence_classes(cfg, box) == tuple((c,) for c in sorted(box))


def test_geiser_quotient_handles_self_pairing():
    """In the E7 scheme all 56 lines are congruent; the quotient still
    counts 28 bitangents."""
    cfg = config(2, *E7_ROOTS)
    assert nodal.scheme(cfg, "lines").multiplicity_profile() == {56: 1}
    assert nodal.scheme(cfg, "bitangents").total == 28


def test_parse_config():
    cfg = nodal.parse_config("degree 2\nroot [0, 1, -1, 0, 0, 0, 0, 0]\n")
    assert cfg.lattice.degree == 2
    assert cfg.roots == ((0, 1, -1, 0, 0, 0, 0, 0),)
    with pytest.raises(ValueError):
        nodal.parse_config("root [0, 1, -1, 0, 0, 0, 0, 0]\n")
    with pytest.raises(ValueError):
        nodal.parse_config("degree 3\nroot [0, 1, -1]\n")


def test_parse_config_duplicate_degree():
    """A second degree line is refused, not silently taken over the first."""
    with pytest.raises(ValueError, match=r"^line 3: duplicate degree$"):
        nodal.parse_config("degree 2\n# comment\ndegree 3\n")
    with pytest.raises(ValueError, match=r"^line 2: duplicate degree$"):
        nodal.parse_config("degree 2\ndegree 2\nroot [0, 1, -1, 0, 0, 0, 0, 0]\n")


def test_parse_config_splits_on_any_whitespace():
    """A tab or a run of spaces separates a directive from its value, as a
    graph file's fields are separated."""
    spaced = nodal.parse_config("degree 2\nroot 0 1 -1 0 0 0 0 0\n")
    assert nodal.parse_config("degree\t2\nroot\t0\t1 -1  0 0\t0 0 0\n") == spaced
    assert nodal.parse_config("degree \t 2\nroot\t[0, 1, -1, 0, 0, 0, 0, 0]\n") == spaced


def rational_key(lat, roots):
    """Oracle coset key by rational orthogonal projection onto the root span.

    Writing v = sum(c_i r_i) + q with q orthogonal to every root, two classes
    are congruent mod N exactly when their q agree and their c agree mod 1.
    """
    n = len(roots)
    aug = [[Fraction(lt.pair(lat, a, b)) for b in roots]
           + [Fraction(i == j) for j in range(n)] for i, a in enumerate(roots)]
    for col in range(n):  # Gauss-Jordan: aug becomes [I | gram^-1]
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col:
                aug[r] = [x - aug[r][col] * y for x, y in zip(aug[r], aug[col])]
    inv = [row[n:] for row in aug]

    def key(v):
        pv = [lt.pair(lat, v, r) for r in roots]
        c = [sum(a * b for a, b in zip(row, pv)) for row in inv]
        q = tuple(x - sum(ci * r[k] for ci, r in zip(c, roots))
                  for k, x in enumerate(v))
        return q, tuple(ci % 1 for ci in c)
    return key


def conjugated_configs(lat, rng, count):
    """Random simple-root subsets moved by a random word of reflections."""
    simple = lt.simple_roots(lat)
    for _ in range(count):
        roots = rng.sample(simple, rng.randint(1, len(simple)))
        for s in rng.choices(simple, k=rng.randint(0, 12)):
            roots = [lt.reflect(lat, s, r) for r in roots]
        yield nodal.NodalConfig(lat, roots)


def random_configs(lat, rng, count):
    """Greedy random root subsets that pass validate_config."""
    all_roots = lt.enumerate_classes(lat, ClassKind.ROOT)
    for _ in range(count):
        target, roots = rng.randint(1, lat.rank - 1), []
        for r in rng.sample(all_roots, len(all_roots)):
            try:
                nodal.NodalConfig(lat, roots + [r])
            except ValueError:
                continue
            roots.append(r)
            if len(roots) == target:
                break
        yield nodal.NodalConfig(lat, roots)


def oracle_parts(key, members):
    """Sorted parts of `members` grouped by their rational_key."""
    parts = {}
    for c in members:
        parts.setdefault(key[c], []).append(c)
    return tuple(sorted(tuple(sorted(p)) for p in parts.values()))


# Root configurations whose span N is not saturated in the Picard lattice,
# found by a random search and named by their validate_config type: the
# torsion of Z^n / N has the order shown, so congruence modulo N needs the
# mod-d_i coordinates of the diagonal form.  A1+A3+A3 also leaves a
# remainder in a pivot row of that form.
UNSATURATED = {
    2: {
        "A1+A1+A1+A1+A1+A1+A1": (8, [
            (-2, 1, 1, 1, 1, 1, 1, 0), (0, 0, 0, 0, 1, -1, 0, 0), (-1, 0, 0, 0, 1, 1, 0, 1),
            (0, 0, 0, 1, 0, 0, -1, 0), (1, 0, 0, -1, 0, 0, -1, -1), (-1, 1, 1, 0, 0, 0, 0, 1),
            (0, -1, 1, 0, 0, 0, 0, 0)]),
        "A7": (2, [
            (1, 0, -1, 0, -1, 0, 0, -1), (-1, 0, 1, 0, 1, 0, 1, 0), (1, 0, 0, -1, -1, 0, -1, 0),
            (0, 0, -1, 0, 1, 0, 0, 0), (-2, 1, 1, 1, 0, 1, 1, 1), (1, 0, 0, 0, 0, -1, -1, -1),
            (0, -1, 0, 0, 0, 1, 0, 0)]),
        "A1+A1+A1+D4": (4, [
            (1, 0, -1, 0, 0, 0, -1, -1), (-2, 0, 1, 1, 1, 1, 1, 1), (0, 0, 0, 0, 1, -1, 0, 0),
            (0, 1, 0, -1, 0, 0, 0, 0), (1, 0, 0, 0, -1, -1, -1, 0), (0, 0, -1, 0, 0, 0, 0, 1),
            (-1, 1, 0, 1, 0, 0, 1, 0)]),
        "A1+A3+A3": (4, [
            (-2, 0, 1, 1, 1, 1, 1, 1), (-1, 1, 1, 0, 0, 1, 0, 0), (0, 0, -1, 0, 0, 0, 0, 1),
            (1, -1, 0, -1, -1, 0, 0, 0), (1, -1, 0, 0, 0, 0, -1, -1), (1, 0, -1, 0, -1, 0, 0, -1),
            (1, 0, 0, 0, -1, -1, -1, 0)]),
        "A2+A5": (3, [
            (2, -1, -1, -1, -1, -1, -1, 0), (1, 0, 0, -1, -1, 0, 0, -1), (1, 0, -1, 0, 0, 0, -1, -1),
            (0, -1, 0, 1, 0, 0, 0, 0), (-1, 0, 1, 0, 0, 1, 0, 1), (0, 0, 0, -1, 1, 0, 0, 0),
            (-2, 1, 0, 1, 1, 1, 1, 1)]),
    },
    3: {
        "A2+A2+A2": (3, [
            (-1, 1, 1, 0, 1, 0, 0), (0, -1, 1, 0, 0, 0, 0), (-1, 1, 0, 0, 0, 1, 1),
            (1, 0, 0, -1, -1, 0, -1), (1, -1, -1, -1, 0, 0, 0), (0, 0, 0, 0, 0, -1, 1)]),
        "A1+A5": (2, [
            (1, -1, 0, -1, -1, 0, 0), (0, 1, 0, 0, 0, 0, -1), (1, -1, 0, 0, 0, -1, -1),
            (0, 0, -1, 0, 0, 0, 1), (-1, 0, 0, 1, 1, 1, 0), (0, 0, 0, 1, -1, 0, 0)]),
        "A1+A1+A1+A1": (2, [
            (-1, 1, 1, 0, 0, 1, 0), (-1, 1, 0, 1, 0, 0, 1), (1, 0, -1, -1, -1, 0, 0),
            (1, 0, 0, 0, -1, -1, -1)]),
    },
}


def maximal_minors_gcd(cfg):
    """Oracle: the gcd of the r x r minors of the root matrix, r roots being
    linearly independent in a negative definite span; 1 for no roots."""
    roots = cfg.roots
    if not roots:
        return 1
    return math.gcd(*(determinant([[r[c] for c in cols] for r in roots])
                      for cols in combinations(range(cfg.lattice.rank), len(roots))))


@pytest.mark.parametrize("degree", [2, 3])
def test_unsaturated_configs_have_their_type_and_torsion(degree):
    for name, (order, roots) in UNSATURATED[degree].items():
        cfg = config(degree, *roots)
        assert nodal.validate_config(cfg) == name
        assert maximal_minors_gcd(cfg) == order, name


@cache
def congruence_cases(degree, kind):
    """The empty, full, conjugated, greedy random and unsaturated configs of
    one degree, each with the class table of one kind keyed once by
    rational_key, a shuffled copy of the table and that copy with a third
    duplicated."""
    lat = lt.make_lattice(degree)
    rng = random.Random(degree)
    classes = lt.enumerate_classes(lat, kind)
    cfgs = [config(degree), config(degree, *lt.simple_roots(lat))]
    cfgs += conjugated_configs(lat, rng, 5)
    cfgs += random_configs(lat, rng, 5)
    cfgs += (config(degree, *roots) for _, roots in UNSATURATED[degree].values())
    cases = []
    for cfg in cfgs:
        key = dict(zip(classes, map(rational_key(lat, cfg.roots), classes)))
        shuffled = rng.sample(classes, len(classes))
        doubled = shuffled + rng.sample(classes, len(classes) // 3)
        cases.append((cfg, classes, shuffled, doubled, partial(oracle_parts, key)))
    return cases


@pytest.mark.parametrize("degree", [2, 3])
@pytest.mark.parametrize("kind", [ClassKind.EXCEPTIONAL, ClassKind.BLOWDOWN])
def test_congruence_classes_match_rational_oracle(degree, kind):
    for cfg, classes, _, _, oracle in congruence_cases(degree, kind):
        assert nodal.congruence_classes(cfg, classes) == oracle(classes)


@pytest.mark.parametrize("degree", [2, 3])
def test_torsion_order_is_the_gcd_of_maximal_minors(degree):
    """The moduli d_i > 1 of the diagonal form multiply to the gcd of the
    maximal minors of the root matrix, the order of the torsion of Z^n / N,
    on every config of congruence_cases."""
    for cfg, *_ in congruence_cases(degree, ClassKind.EXCEPTIONAL):
        _, torsion, _ = nodal._invariants(cfg)
        assert math.prod(d for _, d in torsion) == maximal_minors_gcd(cfg), cfg.roots


def saturation_vectors(cfg, m):
    """Oracle: the integral vectors sum(c_i r_i) with every c_i in
    {0, 1/m, ..., (m - 1)/m}: one per element of the torsion when m is its
    exponent."""
    out = []
    for coeffs in product(range(m), repeat=len(cfg.roots)):
        v = [sum(Fraction(c, m) * r[k] for c, r in zip(coeffs, cfg.roots))
             for k in range(cfg.lattice.rank)]
        if all(x.denominator == 1 for x in v):
            out.append(tuple(map(int, v)))
    return out


def test_congruence_classes_widen_past_64_bit_digits():
    """Classes of no kind with entries near 10^30 need digits of more than 64
    bits; shifted by integral combinations of the roots and by the torsion
    vectors of an unsaturated span, they still part as rational_key parts
    them."""
    rng = random.Random(30)
    for degree, name, exponent in ((2, "A2", 1), (2, "A1+A1+A1+A1+A1+A1+A1", 2),
                                   (3, "A2+A2+A2", 3)):
        order, roots = UNSATURATED[degree].get(name, (1, A2_CUSP_2))
        cfg = config(degree, *roots)
        lat = cfg.lattice
        torsion = saturation_vectors(cfg, exponent)
        assert len(torsion) == order
        classes = []
        for _ in range(4):
            base = tuple(rng.randint(-10 ** 30, 10 ** 30) for _ in range(lat.rank))
            for _ in range(6):
                shift = rng.choice(torsion)
                for r in cfg.roots:
                    shift = lt.add(shift, lt.scale(rng.randint(-10 ** 29, 10 ** 29), r))
                classes.append(lt.add(base, shift))
        assert {lt.kind_of(lat, c) for c in classes} == {None}
        key = rational_key(lat, cfg.roots)
        assert nodal.congruence_classes(cfg, classes) == oracle_parts(
            {c: key(c) for c in classes}, classes)


@pytest.mark.parametrize("degree", [2, 3])
def test_congruence_classes_any_iterable(degree):
    """A shuffled list, a generator, a list with duplicated classes and that
    list reversed give the sorted oracle parts, on the same configs."""
    for kind in (ClassKind.EXCEPTIONAL, ClassKind.BLOWDOWN):
        for cfg, classes, shuffled, doubled, oracle in congruence_cases(degree, kind):
            once, twice = oracle(classes), oracle(doubled)
            for given, expected in ((shuffled, once), (iter(shuffled), once),
                                    (doubled, twice), (doubled[::-1], twice)):
                assert nodal.congruence_classes(cfg, given) == expected


def component_type_by_arms(size, degrees, arms):
    """Oracle: name a connected ADE diagram from its degrees and arm lengths."""
    if max(degrees, default=0) <= 2:
        return f"A{size}"
    a, b, c = sorted(arms)
    if a == 1 and b == 1:
        return f"D{size}"
    if (a, b) == (1, 2) and c in (2, 3, 4):
        return f"E{size}"
    raise ValueError("connected component is not an ADE diagram")


def dynkin_by_arm_walk(cfg):
    """Oracle Dynkin type: walk each arm of every branch vertex to its end."""
    lat, roots = cfg.lattice, cfg.roots
    if not roots:
        return "trivial"
    n = len(roots)
    gram = [[lt.pair(lat, a, b) for b in roots] for a in roots]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if gram[i][j] == 1]
    comps = {}
    for i, label in enumerate(components(n, edges)):
        comps.setdefault(label, []).append(i)
    names = []
    for verts in comps.values():
        degs = [sum(gram[i][j] for j in verts if j != i) for i in verts]
        arms = None
        if max(degs) == 3 and degs.count(3) == 1:
            branch = verts[degs.index(3)]
            arms = []
            for start in (j for j in verts if gram[branch][j] == 1):
                length, prev, cur = 1, branch, start
                while True:
                    nxt = [j for j in verts if gram[cur][j] == 1 and j != prev]
                    if not nxt:
                        break
                    prev, cur = cur, nxt[0]
                    length += 1
                arms.append(length)
        elif max(degs) > 2:
            raise ValueError("connected component is not an ADE diagram")
        names.append(component_type_by_arms(len(verts), degs, arms))
    return "+".join(sorted(names, key=lambda s: (s[0], int(s[1:]))))


NON_ADE_DIAGRAMS = [
    # a triangle: an affine A2 cycle
    (2, [(-2, 0, 1, 1, 1, 1, 1, 1), (0, 1, -1, 0, 0, 0, 0, 0),
         (2, -1, 0, -1, -1, -1, -1, -1)]),
    # a centre with four arms: affine D4
    (2, [(-2, 0, 1, 1, 1, 1, 1, 1), (0, 1, -1, 0, 0, 0, 0, 0),
         (1, 0, 0, -1, -1, -1, 0, 0), (1, 0, 0, -1, 0, 0, -1, -1),
         (2, -1, -1, 0, -1, -1, -1, -1)]),
    # affine E7 and affine E6: trees with one branch vertex, of one leaf
    # neighbour and of none, so only the Gram determinant rejects them
    (2, list(E7_ROOTS) + [(-2, 0, 1, 1, 1, 1, 1, 1)]),
    (3, list(lt.simple_roots(lt.make_lattice(3))) + [(-2, 1, 1, 1, 1, 1, 1)]),
]


@pytest.mark.parametrize("degree,roots", NON_ADE_DIAGRAMS,
                         ids=["triangle", "four-arm-star", "affine-E7", "affine-E6"])
def test_non_ade_diagrams_rejected(degree, roots):
    with pytest.raises(ValueError, match="root span is not negative definite"):
        config(degree, *roots)


def negative_definite_by_sylvester(lat, roots):
    """Oracle: the leading principal minors of the Gram matrix alternate in
    sign, the first negative (Sylvester's criterion)."""
    gram = [[lt.pair(lat, a, b) for b in roots] for a in roots]
    return all((-1) ** k * determinant([row[:k] for row in gram[:k]]) > 0
               for k in range(1, len(roots) + 1))


def pairwise_root_sets(lat, rng, count):
    """Random roots, each kept when it pairs to 0 or 1 with those kept, up to
    one more than the rank of K-perp.  Built without NodalConfig, so sets
    whose span is not negative definite occur."""
    all_roots = lt.enumerate_classes(lat, ClassKind.ROOT)
    for _ in range(count):
        target, roots = rng.randint(1, lat.rank), []
        for r in rng.sample(all_roots, len(all_roots)):
            if all(lt.pair(lat, r, s) in (0, 1) for s in roots):
                roots.append(r)
                if len(roots) == target:
                    break
        yield roots


@cache
def validated(degree):
    """validate_config, called once on every E7 / E6 simple-root subset, on
    greedy random valid sets, on random pairwise-{0, 1} root sets and on the
    non-ADE diagrams: (config, name or None, error message or None)."""
    lat = lt.make_lattice(degree)
    simple = lt.simple_roots(lat)
    sets = [[r for k, r in enumerate(simple) if mask >> k & 1]
            for mask in range(1 << len(simple))]
    sets += (cfg.roots for cfg in random_configs(lat, random.Random(10 + degree), 40))
    sets += pairwise_root_sets(lat, random.Random(40 + degree), 3000)
    sets += (roots for d, roots in NON_ADE_DIAGRAMS if d == degree)
    out = []
    for roots in sets:
        cfg = SimpleNamespace(lattice=lat, roots=tuple(sorted(roots)))
        try:
            out.append((cfg, nodal.validate_config(cfg), None))
        except ValueError as exc:
            out.append((cfg, None, str(exc)))
    return out


@pytest.mark.parametrize("degree", [2, 3])
def test_validate_config_matches_sylvester_oracle(degree):
    """Accept exactly the negative definite spans."""
    rejected = 0
    for cfg, name, error in validated(degree):
        positive = negative_definite_by_sylvester(cfg.lattice, cfg.roots)
        assert positive == (error is None), cfg.roots
        if error is not None:
            assert error == "root span is not negative definite"
            rejected += 1
    assert rejected > 500


@pytest.mark.parametrize("degree", [2, 3])
def test_dynkin_names_match_arm_walk_oracle(degree):
    """Each accepted name agrees with the arm walk, and E6, D5, D4, A5, A1+A2
    and, in degree 2 only, E7, D6 and A7 are met: branch vertices with one,
    two and three leaf neighbours."""
    names = set()
    for cfg, name, error in validated(degree):
        if error is None:
            assert name == dynkin_by_arm_walk(cfg), cfg.roots
            names.add(name)
    met = {"E6", "D5", "D4", "A5", "A1+A2"}
    assert met | ({"E7", "D6", "A7"} if degree == 2 else set()) <= names
    assert ("E7" in names) == (degree == 2)


def involution_quotient(parts, involution):
    """Oracle: quotient a congruence partition by an involution that permutes
    parts.  Each point is a part-pair {P, sP} of multiplicity |P u sP| / 2
    (a self-paired part of size 2m gives multiplicity m)."""
    index = {c: pi for pi, p in enumerate(parts) for c in p}
    seen, points = set(), []
    for pi, p in enumerate(parts):
        qi = index[involution(p[0])]
        if qi in seen or pi in seen:
            continue
        seen.update((pi, qi))
        members = set(p) | set(parts[qi])
        assert len(members) % 2 == 0
        points.append((min(members), len(members) // 2))
    return tuple(sorted(points))


def even_theta_grouping(lat, parts):
    """Oracle: label every blow-down class by its even theta characteristic
    and join the labels met by one congruence part, without a cached map."""
    labels = {c: theta_f2.even_theta_of_blowdown(lat, c) for p in parts for c in p}
    distinct = list(set(labels.values()))
    index = {label: i for i, label in enumerate(distinct)}
    joins = [(index[labels[p[0]]], index[labels[c]]) for p in parts for c in p[1:]]
    groups = {}
    for label, comp in zip(distinct, components(len(distinct), joins)):
        groups.setdefault(comp, []).append(label)
    return tuple(sorted((min(g), len(g)) for g in groups.values()))


INVOLUTIONS = {"bitangents": lt.geiser, "aronhold": lt.geiser,
               "doublesix": lt.double_six_partner}


def scheme_oracle(cfg, name, parts):
    lat = cfg.lattice
    if name == "eventheta":
        return even_theta_grouping(lat, parts)
    if name in INVOLUTIONS:
        return involution_quotient(parts, partial(INVOLUTIONS[name], lat))
    return tuple((p[0], len(p)) for p in parts)


@cache
def scheme_pass(degree):
    """Every scheme of one degree, run once on every E7 / E6 simple-root
    subset, on greedy random root sets and on the UNSATURATED spans, then
    each single-root profile, with the oracle answer of each computed
    beforehand.

    The pass is made as a built config and a class table are trusted: the
    pair tables warm, 32 other class lists partitioned since the tables were
    built, and every call to validate_config and kind_of logged with the
    scheme that made it."""
    lat = lt.make_lattice(degree)
    simple = lt.simple_roots(lat)
    cfgs = [nodal.NodalConfig(lat, [r for k, r in enumerate(simple) if mask >> k & 1])
            for mask in range(1 << len(simple))]
    full = cfgs[-1]
    cfgs += random_configs(lat, random.Random(20 + degree), 40)
    cfgs += (nodal.NodalConfig(lat, roots) for _, roots in UNSATURATED[degree].values())
    names = [n for n, (_, d, _) in nodal.SCHEMES.items() if d in (None, degree)]
    expected = []
    for cfg in cfgs:
        parts = {kind: nodal.congruence_classes(cfg, lt.enumerate_classes(lat, kind))
                 for kind in (ClassKind.EXCEPTIONAL, ClassKind.BLOWDOWN)}
        expected.append({name: scheme_oracle(cfg, name, parts[nodal.SCHEMES[name][0]])
                         for name in names})
    singles = [cfg for cfg in cfgs if degree == 2 and len(cfg.roots) == 1]
    profiles = [profile_by_pair(cfg) for cfg in singles]
    others = lt.enumerate_classes(lat, ClassKind.EXCEPTIONAL) \
        + lt.enumerate_classes(lat, ClassKind.BLOWDOWN)
    one_class = [(c, nodal.congruence_classes(full, [c])) for c in others[:32]]
    nodal._pairs.cache_clear()
    for name in INVOLUTIONS.keys() & set(names):  # double_six_partner checks the kind
        nodal._pairs(lat, name)

    step, calls = [None], []

    def logged(attr, original):
        def call(*args):
            calls.append((attr, step[0]))
            return original(*args)
        return call
    with pytest.MonkeyPatch.context() as mp:
        for module, attr in ((nodal, "validate_config"), (lt, "kind_of")):
            mp.setattr(module, attr, logged(attr, getattr(module, attr)))
        got = []
        for cfg in cfgs:
            got.append({})
            for name in names:
                step[0] = name
                got[-1][name] = nodal.scheme(cfg, name)
        step[0] = "profile"
        got_profiles = [nodal.intersection_profile(cfg) for cfg in singles]
    return SimpleNamespace(cfgs=cfgs, names=names, expected=expected, got=got,
                           profiles=profiles, got_profiles=got_profiles,
                           one_class=one_class, calls=calls)


# Each scheme's total: every class of its kind, or every label, is counted.
TOTALS = {2: {"lines": 56, "blowdowns": 576, "bitangents": 28, "aronhold": 288,
              "eventheta": 36},
          3: {"lines": 27, "blowdowns": 72, "doublesix": 36}}


@pytest.mark.parametrize("degree", [2, 3])
def test_schemes_match_quotient_oracles(degree):
    """Against the part-pair quotient and the even-theta grouping; each
    single-root profile against the pair oracle."""
    run = scheme_pass(degree)
    assert set(run.names) == set(TOTALS[degree])
    for cfg, points, got in zip(run.cfgs, run.expected, run.got):
        for name in run.names:
            assert got[name].points == points[name], (name, cfg.roots)
    assert run.got_profiles == run.profiles


def test_scheme_totals_preserved():
    """Multiplicities account for every class, or every label, of the clean
    count on every config of the pass: the A1 node, both A2 cusps and E7
    among them."""
    for degree, named in ((2, ((), A1_NODE, A2_CUSP_2, E7_ROOTS)), (3, ((), A2_CUSP_3))):
        run = scheme_pass(degree)
        assert all(config(degree, *roots) in run.cfgs for roots in named)
        for cfg, got in zip(run.cfgs, run.got):
            assert {name: s.total for name, s in got.items()} == TOTALS[degree], cfg.roots


@pytest.mark.parametrize("degree", [2, 3])
def test_schemes_do_not_revalidate(degree):
    """Schemes and the profile trust a built config."""
    assert [s for f, s in scheme_pass(degree).calls if f == "validate_config"] == []


@pytest.mark.parametrize("degree", [2, 3])
def test_schemes_partition_the_table_as_built(degree):
    """A scheme partitions its class table as enumerate_classes built it,
    sorted and of one kind, with no kind check in between, though other
    class lists were partitioned since."""
    run = scheme_pass(degree)
    assert all(parts == ((c,),) for c, parts in run.one_class)
    assert [s for f, s in run.calls if f == "kind_of"] == []


def test_even_theta_scheme_reads_no_class_table(monkeypatch):
    """The eventheta scheme reads the F2 cosets of the roots' labels: with
    enumerate_classes and the table keys refused, it gives what it gave in
    the pass, on every config of the pass."""
    run = scheme_pass(2)

    def refuse(*args):
        raise AssertionError("a class table was read")
    monkeypatch.setattr(lt, "enumerate_classes", refuse)
    monkeypatch.setattr(nodal, "_table_parts", refuse)
    for cfg, got in zip(run.cfgs, run.got):
        assert nodal.scheme(cfg, "eventheta") == got["eventheta"], cfg.roots


@pytest.mark.parametrize("degree", [2, 3])
def test_schemes_of_one_config_share_each_table_partition(monkeypatch, degree):
    """Every scheme of a degree, run on configs A, B, A, keys each class
    table once per visit, and gives what it gives cold; the same roots in
    another order hit the cache; and a pass over many configs keeps no more
    than one table per class kind.  Every scheme but eventheta, which reads
    no table, hits the cache."""
    lat = lt.make_lattice(degree)
    simple = lt.simple_roots(lat)
    names = [n for n, (_, d, _) in nodal.SCHEMES.items() if d in (None, degree)]
    tables = [lt.enumerate_classes(lat, kind)
              for kind in dict.fromkeys(nodal.SCHEMES[n][0] for n in names)]
    made, keys = [], nodal._keys
    monkeypatch.setattr(nodal, "_keys", lambda cfg, classes, pack:
                        made.append((cfg, classes)) or keys(cfg, classes, pack))
    a, b = config(degree, *simple[:1]), config(degree, *simple[1:3])
    nodal._table_parts.cache_clear()
    visits = []
    for cfg in (a, b, a):
        made.clear()
        visits.append({n: nodal.scheme(cfg, n) for n in names})
        assert made == [(cfg, table) for table in tables], cfg.roots
    for cfg, got in zip((a, b, a), visits):
        for n in names:
            nodal._table_parts.cache_clear()
            assert got[n] == nodal.scheme(cfg, n), (n, cfg.roots)
    for n in names:
        nodal.scheme(b, n)
    hits, made[:] = nodal._table_parts.cache_info().hits, []
    for n in names:  # b's roots, listed in the other order
        assert nodal.scheme(config(degree, *reversed(simple[1:3])), n) == visits[1][n]
    keyed = [n for n in names if n != "eventheta"]
    assert made == [] and nodal._table_parts.cache_info().hits == hits + len(keyed)
    for mask in range(1 << len(simple)):
        cfg = config(degree, *(r for k, r in enumerate(simple) if mask >> k & 1))
        for n in names:
            nodal.scheme(cfg, n)
    assert nodal._table_parts.cache_info().currsize <= len(ClassKind)


@pytest.mark.parametrize("name", sorted(INVOLUTIONS))
def test_pair_involutions_fix_no_class(name):
    """So a pair label {c, s(c)} always holds two classes."""
    kind, degree, _ = nodal.SCHEMES[name]
    lat = lt.make_lattice(degree)
    classes = lt.enumerate_classes(lat, kind)
    assert all(INVOLUTIONS[name](lat, c) != c for c in classes)
    assert len({min(c, INVOLUTIONS[name](lat, c)) for c in classes}) == len(classes) // 2


@pytest.mark.parametrize("name", sorted(INVOLUTIONS))
def test_pair_involutions_map_parts_onto_parts(name):
    """The premise of the pair schemes: s maps each congruence part of its
    class table onto a part, on every simple-root subset and random config
    of the pass; and the cached pairs list each pair's least class in
    sorted order and pair each class with its image, a fixed-point-free
    involution of the table indices."""
    kind, degree, _ = nodal.SCHEMES[name]
    lat = lt.make_lattice(degree)
    table = lt.enumerate_classes(lat, kind)
    image = {c: INVOLUTIONS[name](lat, c) for c in table}
    least, first, second = nodal._pairs(lat, name)
    assert least == tuple(table[i] for i in first) == tuple(sorted(least))
    partner = dict(zip(first, second)) | dict(zip(second, first))
    assert sorted(partner) == list(range(len(table)))
    assert all(partner[i] != i and partner[partner[i]] == i for i in partner)
    assert all(table[partner[i]] == image[table[i]] for i in partner)
    for cfg in scheme_pass(degree).cfgs:
        parts = set(map(frozenset, nodal.congruence_classes(cfg, table)))
        assert all(frozenset(map(image.get, p)) in parts for p in parts), cfg.roots


def test_even_theta_scheme_is_the_eventheta_entry():
    """The one pin of the six scheme aliases: each equals nodal.scheme under
    its name on the node (degree 2) and the cusp (degree 3) where its degree
    allows, and even_theta_scheme refuses degree 3.  A loop rather than a
    parametrization keeps this test's id."""
    node, cusp = config(2, *A1_NODE), config(3, *A2_CUSP_3)
    with pytest.raises(ValueError, match="eventheta scheme requires degree 2"):
        nodal.even_theta_scheme(cusp)
    aliases = {"lines": "line_scheme", "blowdowns": "blowdown_scheme",
               "bitangents": "bitangent_scheme", "doublesix": "double_six_scheme",
               "aronhold": "aronhold_scheme", "eventheta": "even_theta_scheme"}
    for name, alias in aliases.items():
        for cfg in (node, cusp):
            if nodal.SCHEMES[name][1] in (None, cfg.lattice.degree):
                assert getattr(nodal, alias)(cfg) == nodal.scheme(cfg, name), alias


def test_mixed_kinds_rejected():
    """Classes of mixed kinds are rejected on every call: the same tuple
    twice, then a generator over it."""
    cfg = config(2, *A1_NODE)
    lat = cfg.lattice
    mixed = lt.enumerate_classes(lat, ClassKind.EXCEPTIONAL)[:3] + (lt.divisor(lat, 1),)
    for _ in range(2):
        with pytest.raises(ValueError, match="^classes of mixed kinds$"):
            nodal.congruence_classes(cfg, mixed)
    with pytest.raises(ValueError, match="^classes of mixed kinds$"):
        nodal.congruence_classes(cfg, iter(mixed))
