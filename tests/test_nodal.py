"""ADE root configurations and multiplicity schemes."""

import random
import re
from fractions import Fraction
from functools import cache, partial
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
    assert nodal.line_scheme(cfg).multiplicity_profile() == {1: 27}
    assert nodal.blowdown_scheme(cfg).multiplicity_profile() == {1: 72}
    cfg2 = config(2)
    assert nodal.bitangent_scheme(cfg2).multiplicity_profile() == {1: 28}


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


def test_geiser_quotient_handles_self_pairing():
    """In the E7 scheme all 56 lines are congruent; the quotient still
    counts 28 bitangents."""
    cfg = config(2, *E7_ROOTS)
    assert nodal.line_scheme(cfg).multiplicity_profile() == {56: 1}
    assert nodal.bitangent_scheme(cfg).total == 28


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


@cache
def congruence_cases(degree, kind):
    """The empty, full, conjugated and greedy random configs of one degree,
    each with the class table of one kind keyed once by rational_key, a
    shuffled copy of the table and that copy with a third duplicated."""
    lat = lt.make_lattice(degree)
    rng = random.Random(degree)
    classes = lt.enumerate_classes(lat, kind)
    cfgs = [config(degree), config(degree, *lt.simple_roots(lat))]
    cfgs += conjugated_configs(lat, rng, 5)
    cfgs += random_configs(lat, rng, 5)
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
    [(-2, 0, 1, 1, 1, 1, 1, 1), (0, 1, -1, 0, 0, 0, 0, 0),
     (2, -1, 0, -1, -1, -1, -1, -1)],
    # a centre with four arms: affine D4
    [(-2, 0, 1, 1, 1, 1, 1, 1), (0, 1, -1, 0, 0, 0, 0, 0),
     (1, 0, 0, -1, -1, -1, 0, 0), (1, 0, 0, -1, 0, 0, -1, -1),
     (2, -1, -1, 0, -1, -1, -1, -1)],
]


@pytest.mark.parametrize("roots", NON_ADE_DIAGRAMS, ids=["triangle", "four-arm-star"])
def test_non_ade_diagrams_rejected(roots):
    with pytest.raises(ValueError, match="root span is not negative definite"):
        config(2, *roots)


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
    if degree == 2:
        sets += NON_ADE_DIAGRAMS
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
    """Each accepted name agrees with the arm walk, and E6, D5, A5, A1+A2
    and, in degree 2 only, E7 are met."""
    names = set()
    for cfg, name, error in validated(degree):
        if error is None:
            assert name == dynkin_by_arm_walk(cfg), cfg.roots
            names.add(name)
    assert {"E6", "D5", "A5", "A1+A2"} <= names
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
    subset and on greedy random root sets, then each single-root profile,
    with the oracle answer of each computed beforehand.

    The pass is made as a built config and a class table are trusted: the
    pair labels warm and the even-theta labels cold, 32 other class lists
    partitioned since the tables were built, and every call to
    validate_config and kind_of logged with the scheme that made it."""
    lat = lt.make_lattice(degree)
    simple = lt.simple_roots(lat)
    cfgs = [nodal.NodalConfig(lat, [r for k, r in enumerate(simple) if mask >> k & 1])
            for mask in range(1 << len(simple))]
    full = cfgs[-1]
    cfgs += random_configs(lat, random.Random(20 + degree), 40)
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
    nodal._labels.cache_clear()
    for name in INVOLUTIONS.keys() & set(names):  # double_six_partner checks the kind
        nodal._labels(lat, name)
    warm = nodal._labels.cache_info().currsize

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
                           one_class=one_class, warm=warm, calls=calls)


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
    assert [s for f, s in run.calls if f == "kind_of" and s != "eventheta"] == []


def test_even_theta_scheme_trusts_the_table():
    """The eventheta scheme labels the blow-down table by mod2_label: built
    cold in the pass, its labels cost no kind_of call."""
    run = scheme_pass(2)
    assert run.warm == len(INVOLUTIONS.keys() & set(run.names))  # eventheta cold
    assert [s for f, s in run.calls if f == "kind_of" and s == "eventheta"] == []


@pytest.mark.parametrize("name", sorted(INVOLUTIONS))
def test_pair_involutions_fix_no_class(name):
    """So a pair label {c, s(c)} always holds two classes."""
    kind, degree, _ = nodal.SCHEMES[name]
    lat = lt.make_lattice(degree)
    classes = lt.enumerate_classes(lat, kind)
    assert all(INVOLUTIONS[name](lat, c) != c for c in classes)
    assert len({min(c, INVOLUTIONS[name](lat, c)) for c in classes}) == len(classes) // 2


def test_even_theta_scheme_is_the_eventheta_entry():
    cfg = config(3, *A2_CUSP_3)
    with pytest.raises(ValueError, match="eventheta scheme requires degree 2"):
        nodal.even_theta_scheme(cfg)
    cfg = config(2, *A2_CUSP_2)
    assert nodal.even_theta_scheme(cfg) == nodal.scheme(cfg, "eventheta")


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
