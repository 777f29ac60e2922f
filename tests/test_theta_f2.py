"""The F2 algebra of theta characteristics."""

import copy
import pickle
import random
from collections import Counter
from functools import cache, reduce
from itertools import combinations
from operator import xor

import pytest

from dptheta import lattice as lt, nodal, theta_f2 as tf
from dptheta.lattice import ClassKind
from test_nodal import UNSATURATED, random_configs


def test_group_structure():
    classes = tf.all_classes()
    ident = tf.IDENTITY
    for a in classes[:10]:
        assert a + a == ident
        for b in classes[:10]:
            assert a + b == b + a


def test_complement_identification():
    assert tf.EvenSubsetClass((1, 2)) == tf.EvenSubsetClass((3, 4, 5, 6, 7, 8))
    assert tf.EvenSubsetClass(range(1, 9)) == tf.IDENTITY


def test_weil_pairing_bilinear():
    classes = tf.all_classes()
    rng = random.Random(2)
    for _ in range(200):
        a, b, c = (rng.choice(classes) for _ in range(3))
        assert tf.weil_pair(a + b, c) \
            == (tf.weil_pair(a, c) + tf.weil_pair(b, c)) % 2


def test_q_theta_zero_counts():
    """An even theta gives 36 zeros, an odd one 28 (genus-3 Arf counts)."""
    classes = tf.all_classes()
    for theta in classes:
        zeros = sum(1 for a in classes if tf.q_theta(theta, a) == 0)
        assert zeros == (36 if theta.parity == 0 else 28)


def test_syzygetic_validation():
    odds = tf.odd_classes()
    with pytest.raises(ValueError):
        tf.syzygetic(odds[0], odds[0], odds[1])
    with pytest.raises(ValueError):
        tf.syzygetic(odds[0], odds[1], tf.IDENTITY)


def test_aronhold_validation():
    sets = tf.enumerate_aronhold()
    good = sets[0]
    with pytest.raises(ValueError):
        tf.even_theta_of_aronhold(good[:6])
    # swap in an odd class that breaks asyzygy
    odds = [t for t in tf.odd_classes() if t not in good]
    for cand in odds:
        trial = tuple(sorted(good[:6] + (cand,)))
        if trial not in sets:
            with pytest.raises(ValueError):
                tf.even_theta_of_aronhold(trial)
            break


def _aronhold_by_triples(members):
    """The former check, as the oracle: the sum of seven distinct odd
    classes none of whose 35 triples is syzygetic, else None."""
    if len(members) != 7 or len(set(members)) != 7 or any(t.parity != 1 for t in members):
        return None
    if any(tf.syzygetic(*t) for t in combinations(members, 3)):
        return None
    return tf._TABLE[reduce(xor, (t.mask for t in members))]


def test_aronhold_lookup_matches_triple_rule():
    """even_theta_of_aronhold, a lookup among the 288 constructed sets,
    gives the triple rule's verdict on 20,000 seeded 7-sets of odd classes,
    on the 288 sets shuffled, on every one-member swap of them (none is an
    Aronhold set: six members fix the seventh) and on tuples of the wrong
    size or parity, and returns the class of the members' XOR itself."""
    odds = tf.odd_classes()
    sets = tf.enumerate_aronhold()
    rng = random.Random(20_000)
    trials = [tuple(rng.sample(odds, 7)) for _ in range(20_000)]
    swaps = [s[:i] + (c,) + s[i + 1:] for s in sets for i in range(7)
             for c in odds if c not in s]
    assert len(swaps) == 42_336
    good = sets[0]
    trials += [tuple(rng.sample(s, 7)) for s in sets] + swaps + [(), good[:6], good + (odds[0],), good + good[:1],
                       good[:6] + (tf.IDENTITY,), good[1:] + (tf.even_classes()[1],)]
    tf._aronhold_index.cache_clear()
    tf.enumerate_aronhold.cache_clear()
    verdicts = Counter()
    for trial in trials:
        expected = _aronhold_by_triples(trial)
        try:
            got = tf.even_theta_of_aronhold(trial)
        except ValueError:
            got = None
        assert got is expected, trial
        verdicts[got is not None] += 1
    assert verdicts[True] >= 288 and verdicts[False] >= 42_336


def test_blowdown_labels():
    """All 576 blow-down classes label Aronhold sets; fibers have size 16
    and Geiser-paired classes agree."""
    lat = lt.make_lattice(2)
    fibers = Counter()
    for bd in lt.enumerate_classes(lat, ClassKind.BLOWDOWN):
        even = tf.even_theta_of_blowdown(lat, bd)
        assert even.parity == 0
        assert even == tf.even_theta_of_blowdown(lat, lt.geiser(lat, bd))
        fibers[even] += 1
    assert len(fibers) == 36
    assert set(fibers.values()) == {16}


def test_make_space_and_arf():
    for g in (1, 2, 3, 4):
        assert tf.arf(tf.make_space(g, 0)) == 0
        assert tf.arf(tf.make_space(g, 1)) == 1


def test_zero_counts():
    assert tf.count_zeros(tf.make_space(3, 0)) == 36
    assert tf.count_zeros(tf.make_space(3, 1)) == 28
    assert tf.count_zeros(tf.make_space(6, 1)) == 2016


def test_shift_by_zero_preserves_arf():
    rng = random.Random(7)
    q = tf.make_space(3, 1)
    zeros = [v for v in range(1 << q.dim) if q.evaluate(v) == 0]
    for _ in range(10):
        shifted = q.shift(rng.choice(zeros))
        assert tf.arf(shifted) == 1


def _conic_pairs_oracle(rng=None):
    """The former `count_conic_pairs`: enumerate the 4096 vectors of F2^12."""
    q1 = tf.make_space(6, arf_invariant=1)
    if rng is not None:
        zeros = [v for v in range(1 << q1.dim) if q1.evaluate(v) == 0]
        q1 = q1.shift(rng.choice(zeros))
    zeros1 = [v for v in range(1, 1 << q1.dim) if q1.evaluate(v) == 0]
    eta = rng.choice(zeros1) if rng is not None else zeros1[0]
    q2 = q1.shift(eta)
    assert q2.evaluate(eta) == 0
    # common zeros: q1(v) = 0 and <v, eta> = 0; they pair off as {v, v+eta}
    common = [v for v in range(1 << q1.dim)
              if q1.evaluate(v) == 0 and q1.bilinear(v, eta) == 0]
    assert len(common) % 2 == 0
    z = [v for v in zeros1 if v != eta and q2.evaluate(v) == 0]
    assert len(z) == len(common) - 2 and len(z) % 2 == 0
    return len(common) // 2, len(z), len(z) // 2


def test_conic_pairs_match_enumeration_oracle():
    assert tf.count_conic_pairs() == _conic_pairs_oracle()
    for seed in range(20):
        assert tf.count_conic_pairs(random.Random(seed)) \
            == _conic_pairs_oracle(random.Random(seed))


def test_common_zeros_by_two_zero_counts():
    """|{q = 0} & eta-perp| = (zeros(q) + zeros(q + <., eta>) - 2^(dim-1)) / 2
    for random forms q and nonzero eta, against an exhaustive count."""
    rng = random.Random(17)
    for dim in (2, 4, 6, 8, 10, 12):
        for _ in range(20):
            space = random_space(rng, dim)
            eta = rng.randrange(1, 1 << dim)
            common = sum(1 for v in range(1 << dim)
                         if space.evaluate(v) == 0 and space.bilinear(v, eta) == 0)
            closed = tf.count_zeros(space) + tf.count_zeros(space.shift(eta)) - (1 << (dim - 1))
            assert closed == 2 * common, (space, eta)


def _count_zeros_oracle(space):
    """The former `count_zeros`: evaluate q on all 2^dim vectors."""
    return sum(1 for v in range(1 << space.dim) if space.evaluate(v) == 0)


def _arf_oracle(space, zeros):
    """Arf invariant from an exhaustive zero count.

    The character sum W = 2 zeros - 2^dim is +-2^{dim/2} exactly when the
    form is nondegenerate, the sign giving the invariant; at dim >= 2 this
    is the former comparison of zeros with 2^{2g-1} +- 2^{g-1}.
    """
    w = 2 * zeros - (1 << space.dim)
    if space.dim % 2 == 0 and abs(w) == 1 << (space.dim // 2):
        return int(w < 0)
    raise ValueError("form is not nondegenerate")


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as e:
        return f"ValueError: {e}"


def random_space(rng, dim):
    """Rows with bits on, below and above the diagonal, past dim too."""
    density = rng.random()
    rows = tuple(sum(1 << j for j in range(dim + 3) if rng.random() < density)
                 for _ in range(dim))
    return tf.QuadraticSpace(dim, rows)


def test_witt_matches_exhaustive_oracle():
    """count_zeros and arf, and which inputs raise, on 2000 random forms."""
    rng = random.Random(2024)
    raised = nondegenerate = 0
    for _ in range(2000):
        space = random_space(rng, rng.randint(0, 12))
        if rng.random() < 0.25 and space.dim % 2 == 0 and space.dim:
            space = tf.make_space(space.dim // 2, rng.randint(0, 1)).shift(
                rng.getrandbits(space.dim + 2))
        zeros = _count_zeros_oracle(space)
        assert tf.count_zeros(space) == zeros, space
        expected = _outcome(_arf_oracle, space, zeros)
        assert _outcome(tf.arf, space) == expected, space
        raised += isinstance(expected, str)
        nondegenerate += not isinstance(expected, str)
    assert raised > 500 and nondegenerate > 500


def test_shifted_standard_forms_up_to_cap():
    """arf(q + <., eta>) = arf(q) + q(eta), with q(eta) computed directly."""
    def standard_form_value(g, arf_invariant, v):
        q = sum((v >> (2 * i)) & (v >> (2 * i + 1)) & 1 for i in range(g))
        if arf_invariant:
            q += (v & 1) + ((v >> 1) & 1)
        return q & 1

    rng = random.Random(5)
    cap = tf.MAX_COUNT_DIM
    for g in (1, 2, 3, 8, 31, 100, cap // 2 - 1, cap // 2):
        for a in (0, 1):
            eta = rng.getrandbits(2 * g + 3)
            space = tf.make_space(g, a).shift(eta)
            expected = a ^ standard_form_value(g, a, eta)
            assert tf.arf(space) == expected
            sign = -1 if expected else 1
            assert tf.count_zeros(space) == (1 << (2 * g - 1)) + sign * (1 << (g - 1))


def test_count_beyond_cap_rejected():
    dim = tf.MAX_COUNT_DIM + 2
    space = tf.QuadraticSpace(dim, (0,) * dim)
    for f in (tf.count_zeros, tf.arf):
        with pytest.raises(ValueError, match="limited to dimension"):
            f(space)


def test_make_space_beyond_cap_rejected():
    """make_space refuses 2g > MAX_COUNT_DIM before building its 2g rows,
    which would hold about g^2 bits (1.25 GB at g = 10^5)."""
    cap = tf.MAX_COUNT_DIM
    assert tf.make_space(cap // 2, 1).dim == cap
    for g in (cap // 2 + 1, 10 ** 5, 10 ** 18):
        with pytest.raises(ValueError, match=f"exceeds {cap}"):
            tf.make_space(g)


def test_conic_pair_numbers_by_zero_count():
    """496 zero classes on the genus-5 quotient is the zero count of an odd
    genus-5 form, and Z is its double minus the classes of 0 and eta."""
    odd5 = tf.count_zeros(tf.make_space(5, 1))
    assert odd5 == 496
    assert tf.count_conic_pairs() == (odd5, 2 * odd5 - 2, odd5 - 1)


def _shift_oracle(space, eta):
    """The former `QuadraticSpace.shift`: one `bilinear` call per basis vector."""
    rows = list(space.rows)
    for j in range(space.dim):
        if space.bilinear(1 << j, eta):
            rows[j] ^= 1 << j
    return tf.QuadraticSpace(space.dim, tuple(rows))


def test_shift_matches_bilinear_oracle():
    """Odd dims and eta wider than dim included."""
    rng = random.Random(11)
    spaces = [random_space(rng, dim) for dim in range(24) for _ in range(3)]
    for space in spaces + [tf.make_space(50, 1), tf.make_space(500, 1)]:
        eta = rng.getrandbits(space.dim + 4)
        assert space.shift(eta) == _shift_oracle(space, eta)


def test_polarization_random_forms():
    """q(u + v) = q(u) + q(v) + B(u, v) for random forms up to dim 12."""
    rng = random.Random(13)
    for dim in (2, 4, 6, 8, 10, 12):
        rows = tuple(rng.getrandbits(dim) >> i << i for i in range(dim))
        space = tf.QuadraticSpace(dim, rows)
        for _ in range(100):
            u, v = rng.getrandbits(dim), rng.getrandbits(dim)
            bl = space.evaluate(u ^ v) ^ space.evaluate(u) ^ space.evaluate(v)
            full = 0  # polarization of the stored upper-triangular matrix
            for i in range(dim):
                if (u >> i) & 1:
                    full ^= (space.rows[i] & v).bit_count() & 1
                if (v >> i) & 1:
                    full ^= (space.rows[i] & u).bit_count() & 1
            # diagonal contributions appear twice and cancel mod 2
            assert bl == full


def _odd_label_oracle(d):
    """The former four-family dictionary from the 56 exceptional classes to
    the odd classes: E_i and D_i map to {i, 8}, L_{i,j} and C_{i,j} to {i, j},
    the family read off the L-degree a."""
    a, b = d[0], d[1:]
    if a == 0:  # E_i
        return tf.EvenSubsetClass((b.index(1) + 1, 8))
    if a == 1:  # L_{i,j}
        return tf.EvenSubsetClass([i + 1 for i, c in enumerate(b) if c == -1])
    if a == 2:  # C_{i,j}
        return tf.EvenSubsetClass([i + 1 for i, c in enumerate(b) if c == 0])
    if a == 3:  # D_i
        return tf.EvenSubsetClass((b.index(-2) + 1, 8))
    raise ValueError(f"not a degree-2 exceptional class: {d}")


def _blowdown_oracle(lat, blowdown):
    """The former blow-down labeling: label the seven contracted lines by
    the dictionary and add them up as an Aronhold set."""
    lines = lt.contracted_lines(lat, blowdown)
    assert len(lines) == 7
    return tf.even_theta_of_aronhold(tuple(_odd_label_oracle(d) for d in lines))


def _aronhold_dfs_oracle():
    """The former enumeration: depth-first over the sorted odd classes, a
    candidate c joining when c + s is even for every pair sum s so far."""
    odds = [t.mask for t in tf.odd_classes()]
    out = []

    def extend(chosen, sums, start):
        if len(chosen) == 7:
            out.append(tuple(map(tf.EvenSubsetClass._from_mask, chosen)))
            return
        for i in range(start, len(odds)):
            c = odds[i]
            if not any(tf._odd(s ^ c) for s in sums):
                extend(chosen + [c], sums + [a ^ c for a in chosen], i + 1)

    extend([], [], 0)
    return tuple(out)


def test_odd_label_dictionary():
    """E_i and its Geiser partner D_i share the label {i, 8}; the lines
    L_{i,j} and conics C_{i,j} share {i, j}."""
    lat = lt.make_lattice(2)
    e3 = lt.class_E(lat, 3)
    assert tf.mod2_label(e3) == tf.EvenSubsetClass((3, 8))
    assert tf.mod2_label(lt.geiser(lat, e3)) == tf.EvenSubsetClass((3, 8))
    l12 = (1, -1, -1, 0, 0, 0, 0, 0)
    assert tf.mod2_label(l12) == tf.EvenSubsetClass((1, 2))
    assert tf.mod2_label(lt.geiser(lat, l12)) == tf.EvenSubsetClass((1, 2))


def test_all_56_labels_cover_odds():
    lat = lt.make_lattice(2)
    labels = Counter(tf.mod2_label(d)
                     for d in lt.enumerate_classes(lat, ClassKind.EXCEPTIONAL))
    assert len(labels) == 28
    assert set(labels.values()) == {2}


def test_mod2_label_matches_dictionary_oracle():
    lines = lt.enumerate_classes(lt.make_lattice(2), ClassKind.EXCEPTIONAL)
    assert len(lines) == 56
    for d in lines:
        assert tf.mod2_label(d) == _odd_label_oracle(d), d


def test_mod2_label_is_additive():
    """The premise of the even-theta scheme's F2 cosets: mod2_label is a
    homomorphism from Z^8 to the 64 classes, on seeded random vectors."""
    rng = random.Random(44)
    for _ in range(500):
        a, b = (tuple(rng.randint(-50, 50) for _ in range(8)) for _ in range(2))
        assert tf.mod2_label(lt.add(a, b)) == tf.mod2_label(a) + tf.mod2_label(b), (a, b)


def test_blowdown_label_matches_contracted_lines_oracle():
    lat = lt.make_lattice(2)
    blowdowns = lt.enumerate_classes(lat, ClassKind.BLOWDOWN)
    assert len(blowdowns) == 576
    for bd in blowdowns:
        assert tf.even_theta_of_blowdown(lat, bd) == _blowdown_oracle(lat, bd), bd


def test_aronhold_matches_dfs_oracle():
    """Same sets in the same order, members in the same order."""
    assert tf.enumerate_aronhold() == _aronhold_dfs_oracle()


def test_blowdown_lines_are_constructed_aronhold_sets():
    """Lattice to F2: the mod-2 labels of the seven lines a blow-down
    contracts form one of the 288 constructed Aronhold sets, each set comes
    from exactly one Geiser pair, and its even class is the blow-down's."""
    lat = lt.make_lattice(2)
    sets = set(tf.enumerate_aronhold())
    pairs_of = {}
    for bd in lt.enumerate_classes(lat, ClassKind.BLOWDOWN):
        labels = tuple(sorted(map(tf.mod2_label, lt.contracted_lines(lat, bd))))
        assert labels in sets, bd
        assert tf.even_theta_of_aronhold(labels) == tf.even_theta_of_blowdown(lat, bd)
        pairs_of.setdefault(labels, set()).add(frozenset((bd, lt.geiser(lat, bd))))
    assert pairs_of.keys() == sets
    assert all(len(p) == 1 for p in pairs_of.values())


def test_even_thetas_are_double_sixes():
    """A marked line E7 takes degree 2 to degree 3: the degree-3 lattice is
    the degree-2 classes with last coordinate 0.  The 72 degree-2 blow-downs
    there, that coordinate dropped, are the 72 degree-3 blow-downs; their
    even thetas (mod2_label) hold them two to each of the 36, and these
    pairs are the double sixes.  The lift commutes with the reflection in
    each simple root of E6, which permutes the pairs."""
    lat2, lat3 = lt.make_lattice(2), lt.make_lattice(3)
    blowdowns = lt.enumerate_classes(lat3, ClassKind.BLOWDOWN)
    lifted = [b for b in lt.enumerate_classes(lat2, ClassKind.BLOWDOWN) if b[-1] == 0]
    assert sorted(b[:-1] for b in lifted) == sorted(blowdowns)
    pairs = {}
    for b in lifted:
        pairs.setdefault(tf.mod2_label(b), set()).add(b[:-1])
    pairs = set(map(frozenset, pairs.values()))
    assert len(pairs) == 36 and pairs == set(lt.double_six_orbits(lat3))
    for root in lt.simple_roots(lat3):
        for b in blowdowns:
            assert lt.reflect(lat3, root, b) + (0,) == lt.reflect(lat2, root + (0,), b + (0,))
        assert {frozenset(lt.reflect(lat3, root, b) for b in p) for p in pairs} == pairs


def test_unmarked_bitangents_are_the_27_lines():
    """Across the same bridge, each of the 27 Geiser pairs of degree-2 lines
    other than the marked one {E7, geiser(E7)} holds exactly one line with
    last coordinate 0, and those lines, that coordinate dropped, are the 27
    lines of degree 3."""
    lat2, lat3 = lt.make_lattice(2), lt.make_lattice(3)
    e7 = lt.class_E(lat2, 7)
    bitangents = {frozenset((c, lt.geiser(lat2, c)))
                  for c in lt.enumerate_classes(lat2, ClassKind.EXCEPTIONAL)}
    unmarked = bitangents - {frozenset((e7, lt.geiser(lat2, e7)))}
    assert len(bitangents) == 28 and len(unmarked) == 27
    lines = []
    for p in unmarked:
        (line,) = (c for c in p if c[-1] == 0)
        lines.append(line[:-1])
    assert sorted(lines) == sorted(lt.enumerate_classes(lat3, ClassKind.EXCEPTIONAL))


def test_bitangent_scheme_is_line_scheme_plus_marked_point():
    """For each of the 64 subsets of E6's simple roots, lifted to degree 2
    by a last coordinate 0, the bitangent scheme is the degree-3 line scheme
    plus the marked pair {E7, geiser(E7)} as a point of multiplicity 1."""
    lat2, lat3 = lt.make_lattice(2), lt.make_lattice(3)
    e7 = lt.class_E(lat2, 7)
    marked = min(e7, lt.geiser(lat2, e7))
    simple = lt.simple_roots(lat3)
    for k in range(len(simple) + 1):
        for subset in combinations(simple, k):
            cfg2 = nodal.NodalConfig(lat2, [r + (0,) for r in subset])
            bitangents = nodal.scheme(cfg2, "bitangents")
            assert (marked, 1) in bitangents.points
            profile = Counter(bitangents.multiplicity_profile())
            profile[1] -= 1
            lines = nodal.scheme(nodal.NodalConfig(lat3, subset), "lines")
            assert +profile == lines.multiplicity_profile(), subset


@cache
def _reflection(lat, root, kind):
    """The reflection in a root, as a map of the class table of one kind."""
    return {c: lt.reflect(lat, root, c) for c in lt.enumerate_classes(lat, kind)}


def orbit_profile(cfg, label, kind):
    """Test-side W(N)-orbit oracle for a scheme on the table of one kind:
    the profile of the labels merged by the joins c ~ reflect(r, c), r in
    cfg.roots.  The joins' components are the W(N)-orbits of the table, so
    merging the labels at the two ends of each join merges exactly the
    labels that one orbit meets."""
    lat = cfg.lattice
    labels = {c: label(c) for c in lt.enumerate_classes(lat, kind)}
    return join_profile(labels.values(), ((labels[c], labels[d]) for r in cfg.roots
                                          for c, d in _reflection(lat, r, kind).items()))


def transvection_profile(cfg, classes):
    """Test-side transvection oracle: the profile of the given classes (the
    36 even or the 28 odd ones) merged by the joins theta ~ theta +
    mod2_label(r), r in cfg.roots, whose two ends are both in the set.  It
    reads no Picard table."""
    members = set(classes)
    return join_profile(members, ((t, t + tf.mod2_label(r)) for r in cfg.roots
                                  for t in members if t + tf.mod2_label(r) in members))


def join_profile(nodes, joins):
    """Map size -> number of the components of nodes under the joins."""
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in joins:
        parent[find(b)] = find(a)
    return dict(Counter(Counter(map(find, list(parent))).values()))


def test_even_thetas_are_double_sixes_by_orbits():
    """Across the marked-line bridge, for each of the 64 subsets of E6's
    simple roots, lifted to degree 2 by a last coordinate 0, the degree-3
    double-six scheme and the degree-2 even-theta scheme have the same
    W(N)-orbit profile.  Congruence (nodal.scheme) gives them equal profiles
    on exactly the 16 subsets of type trivial, A1, A2, D4, D5 or E6; the
    other 48 are recorded divergences of the congruence rule."""
    lat2, lat3 = lt.make_lattice(2), lt.make_lattice(3)

    def double_six(c):
        return min(c, lt.double_six_partner(lat3, c))

    simple = lt.simple_roots(lat3)
    agree = {}
    for k in range(len(simple) + 1):
        for subset in combinations(simple, k):
            cfg3 = nodal.NodalConfig(lat3, subset)
            cfg2 = nodal.NodalConfig(lat2, [r + (0,) for r in subset])
            assert (orbit_profile(cfg3, double_six, ClassKind.BLOWDOWN)
                    == orbit_profile(cfg2, tf.mod2_label, ClassKind.BLOWDOWN)), subset
            agree[subset] = (nodal.scheme(cfg3, "doublesix").multiplicity_profile()
                             == nodal.scheme(cfg2, "eventheta").multiplicity_profile())
    six = {"trivial", "A1", "A2", "D4", "D5", "E6"}
    assert len(agree) == 64 and sum(agree.values()) == 16
    assert all(ok == (nodal.validate_config(nodal.NodalConfig(lat3, subset)) in six)
               for subset, ok in agree.items())


def _e(i, j):
    """The degree-2 root E_i - E_j."""
    return tuple((k == i) - (k == j) for k in range(8))


@pytest.mark.parametrize("roots,kind,congruence,orbits", [
    ([_e(1, 2)], "A1", {1: 16, 2: 10}, {1: 16, 2: 10}),
    ([_e(1, 2), _e(2, 3)], "A2", {1: 6, 3: 10}, {1: 6, 3: 10}),
    ([_e(1, 2), _e(3, 4)], "A1+A1", {2: 12, 4: 3}, {1: 8, 2: 8, 4: 3}),
    ([_e(1, 2), _e(2, 3), _e(3, 4)], "A3", {2: 1, 4: 4, 6: 3}, {1: 2, 4: 4, 6: 3}),
    ([_e(1, 2), _e(3, 4), _e(4, 5)], "A1+A2", {2: 1, 4: 4, 6: 3}, {1: 4, 2: 1, 3: 4, 6: 3}),
    ([_e(1, 2), _e(3, 4), _e(5, 6)], "A1+A1+A1", {4: 7, 8: 1}, {1: 4, 2: 6, 4: 3, 8: 1}),
    ([_e(1, 2), _e(3, 4), (1, 0, 0, 0, 0, -1, -1, -1)], "A1+A1+A1",  # L - E5 - E6 - E7
     {2: 12, 4: 3}, {2: 12, 4: 3}),
], ids=["A1", "A2", "A1+A1", "A3", "A1+A2", "3A1-first-orbit", "3A1-second-orbit"])
def test_eventheta_congruence_against_orbits(roots, kind, congruence, orbits):
    """The even-theta scheme of one degree-2 representative per type:
    today's congruence profile, and the W(N)-orbit profile of the oracle,
    which the transvection components of the 36 even classes match.  The
    two columns differ on A1+A1, A3, A1+A2 and the first 3A1 orbit; there
    the congruence column is a recorded divergence, not a claim that it is
    right."""
    cfg = nodal.NodalConfig(lt.make_lattice(2), roots)
    assert nodal.validate_config(cfg) == kind
    assert nodal.scheme(cfg, "eventheta").multiplicity_profile() == congruence
    assert orbit_profile(cfg, tf.mod2_label, ClassKind.BLOWDOWN) == orbits
    assert transvection_profile(cfg, tf.even_classes()) == orbits


def test_bitangents_match_odd_transvections():
    """The degree-2 bitangent scheme has the profile of the transvection
    components of the 28 odd classes and of the W(N)-orbits of the 56 lines
    labelled by mod2_label: on the 128 E7 simple-root subsets, 40 greedy
    random configurations and the 5 unsaturated spans.  On bitangents the
    congruence and orbit rules agree."""
    lat = lt.make_lattice(2)
    simple = lt.simple_roots(lat)
    configs = [nodal.NodalConfig(lat, [r for k, r in enumerate(simple) if mask >> k & 1])
               for mask in range(1 << len(simple))]
    configs += random_configs(lat, random.Random(22), 40)
    configs += (nodal.NodalConfig(lat, roots) for _, roots in UNSATURATED[2].values())
    assert len(configs) == 173
    for cfg in configs:
        profile = nodal.scheme(cfg, "bitangents").multiplicity_profile()
        assert profile == transvection_profile(cfg, tf.odd_classes()), cfg.roots
        assert profile == orbit_profile(cfg, tf.mod2_label, ClassKind.EXCEPTIONAL), cfg.roots


def test_even_theta_of_blowdown_rejects():
    lat2, lat3 = lt.make_lattice(2), lt.make_lattice(3)
    with pytest.raises(ValueError, match="requires degree 2"):
        tf.even_theta_of_blowdown(lat3, lt.enumerate_classes(lat3, ClassKind.BLOWDOWN)[0])
    for d in (lt.class_E(lat2, 1), (0,) * 8, lt.enumerate_classes(lat2, ClassKind.ROOT)[0]):
        with pytest.raises(ValueError, match="not a blow-down class"):
            tf.even_theta_of_blowdown(lat2, d)


# Set-based reference model of the 64 classes: sorted representative tuples.
GROUND = frozenset(range(1, 9))


def ref_class(elems):
    s = frozenset(elems)
    if len(s) > 4 or (len(s) == 4 and 1 not in s):
        s = GROUND - s
    return tuple(sorted(s))


def ref_add(a, b):
    return ref_class(set(a) ^ set(b))


def ref_parity(a):
    return int(len(a) == 2)


def ref_pair(a, b):
    return len(set(a) & set(b)) % 2


def ref_q(theta, eta):
    return (ref_parity(ref_add(theta, eta)) + ref_parity(theta)) % 2


def test_mask_model_matches_set_oracle():
    """Sum, parity, pairing and q_theta agree with the set model on all
    64 x 64 pairs; every even subset of 1..8 lands on its representative."""
    evens = [c for k in range(0, 9, 2) for c in combinations(range(1, 9), k)]
    assert len(evens) == 128
    for e in evens:
        cls = tf.EvenSubsetClass(e)
        assert cls.elems == ref_class(e)
        assert cls == tf.EvenSubsetClass(GROUND - set(e))
        assert hash(cls) == hash(tf.EvenSubsetClass(GROUND - set(e)))
    classes = tf.all_classes()
    assert [c.elems for c in classes] == sorted({ref_class(e) for e in evens})
    for a in classes:
        assert a.parity == ref_parity(a.elems)
        assert str(a) == "{" + ",".join(map(str, a.elems)) + "}"
        for b in classes:
            assert (a + b).elems == ref_add(a.elems, b.elems)
            assert tf.weil_pair(a, b) == ref_pair(a.elems, b.elems)
            assert tf.q_theta(a, b) == ref_q(a.elems, b.elems)


def test_aronhold_sets_asyzygetic_under_set_oracle():
    sets = tf.enumerate_aronhold()
    assert list(sets) == sorted(sets)
    assert len(set(sets)) == 288
    for s in sets:
        members = [t.elems for t in s]
        assert len(set(members)) == 7
        assert all(ref_parity(t) == 1 for t in members)
        for a, b, c in combinations(members, 3):
            assert ref_q(a, ref_add(b, c)) == 1  # asyzygetic
        total = ()
        for t in members:
            total = ref_add(total, t)
        assert tf.even_theta_of_aronhold(s).elems == total
        assert tf.even_theta_of_aronhold(s[::-1]).elems == total


def test_every_source_gives_one_of_64_objects():
    """The constructor with either complement, _from_mask, +, mod2_label,
    even_theta_of_aronhold, IDENTITY, all_classes(), pickle at every
    protocol, copy.copy and copy.deepcopy together hold exactly 64 objects:
    equality is identity, and each class stores its representative once."""
    assert "__eq__" not in vars(tf.EvenSubsetClass)
    classes = tf.all_classes()
    assert all(c.elems is c.elems for c in classes)
    lat = lt.make_lattice(2)
    evens = [c for k in range(0, 9, 2) for c in combinations(range(1, 9), k)]
    got = [tf.IDENTITY, *classes]
    got += [tf.EvenSubsetClass(e) for e in evens]
    got += [tf.EvenSubsetClass(GROUND - set(e)) for e in evens]
    got += [tf.EvenSubsetClass._from_mask(c.mask) for c in classes]
    got += [a + b for a in classes for b in classes]
    got += [tf.mod2_label(d) for kind in (ClassKind.EXCEPTIONAL, ClassKind.BLOWDOWN)
            for d in lt.enumerate_classes(lat, kind)]
    got += map(tf.even_theta_of_aronhold, tf.enumerate_aronhold())
    got += [pickle.loads(pickle.dumps(c, protocol))
            for c in classes for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    got += map(copy.copy, classes)
    got += map(copy.deepcopy, classes)
    assert len({id(c) for c in got}) == 64
    assert {id(c) for c in got} == {id(c) for c in classes}


def test_syzygetic_matches_set_oracle():
    """Of the 3276 triples of odd classes 1260 are syzygetic, each verdict
    the set model's q_t1(t2 + t3) = 0; the 35 triples of every Aronhold set
    are asyzygetic."""
    verdicts = Counter()
    for a, b, c in combinations(tf.odd_classes(), 3):
        got = tf.syzygetic(a, b, c)
        assert got == (ref_q(a.elems, ref_add(b.elems, c.elems)) == 0), (a, b, c)
        verdicts[got] += 1
    assert verdicts == {True: 1260, False: 2016}
    for s in tf.enumerate_aronhold():
        assert not any(tf.syzygetic(*t) for t in combinations(s, 3)), s
