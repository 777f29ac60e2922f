"""Spin-structure counting on dual graphs."""

import itertools
import random
from collections import Counter

import pytest

from dptheta import kernels, spin
from dptheta.spin import DualGraph


def degree_even(graph, delta):
    """Oracle predicate: every vertex meets delta an even number of times,
    counted vertex by vertex (loops contribute two)."""
    delta_edges = [graph.edges[i] for i in delta]
    for v in range(len(graph.genera)):
        deg = sum((i == v) + (j == v) for i, j in delta_edges)
        if deg % 2:
            return False
    return True


def brute_even_subsets(graph):
    """Oracle: test all 2^m edge subsets directly (m <= 12)."""
    m = len(graph.edges)
    out = []
    for k in range(m + 1):
        for combo in itertools.combinations(range(m), k):
            if degree_even(graph, combo):
                out.append(combo)
    return tuple(sorted(out))


def elimination_even_subsets(graph):
    """Oracle: kernel of the vertex / non-loop-edge incidence matrix over
    F2, by row elimination and back-substitution, one row per vertex."""
    edges = graph.edges
    m = len(edges)
    rows = []
    for v in range(len(graph.genera)):
        mask = 0
        for e_idx, (i, j) in enumerate(edges):
            if i != j and (i == v or j == v):
                mask |= 1 << e_idx
        if mask:
            rows.append(mask)
    pivots = {}
    for row in rows:
        for col in range(m):
            if (row >> col) & 1:
                if col in pivots:
                    row ^= pivots[col]
                else:
                    pivots[col] = row
                    break
    basis = []
    for fc in (c for c in range(m) if c not in pivots):
        vec = 1 << fc
        for col in sorted(pivots, reverse=True):
            if (pivots[col] & vec).bit_count() & 1:
                vec ^= 1 << col
        basis.append(vec)
    subsets = []
    for combo in range(1 << len(basis)):
        vec = 0
        for b_idx, b in enumerate(basis):
            if (combo >> b_idx) & 1:
                vec ^= b
        subsets.append(tuple(i for i in range(m) if (vec >> i) & 1))
    return tuple(sorted(subsets))


def random_graph(rng):
    """A random connected stable dual graph with at most 10 edges."""
    while True:
        nv = rng.randint(1, 4)
        genera = [rng.randint(0, 2) for _ in range(nv)]
        ne = rng.randint(max(0, nv - 1), 10)
        edges = [tuple(sorted((rng.randrange(nv), rng.randrange(nv))))
                 for _ in range(ne)]
        try:
            return DualGraph(genera, edges)
        except ValueError:
            continue


def test_single_node_irreducible():
    g = DualGraph([2], [(0, 0)])
    scheme = spin.spin_scheme(g)
    by_delta = {s.delta: s for s in scheme}
    assert by_delta[()].count == 16 and by_delta[()].multiplicity == 2
    assert by_delta[(0,)].count == 32 and by_delta[(0,)].multiplicity == 1
    assert sum(s.count * s.multiplicity for s in scheme) == 64


def test_banana_graph():
    g = DualGraph([1, 1], [(0, 1), (0, 1)])
    scheme = spin.spin_scheme(g)
    assert sum(s.count * s.multiplicity for s in scheme) == 64
    deltas = {s.delta for s in scheme}
    assert deltas == {(), (0, 1)}


def test_smooth_counts():
    assert spin.theta_counts(2) == (6, 10)
    assert spin.theta_counts(3) == (28, 36)
    assert spin.theta_counts(0) == (0, 1)


GENUS3_TABLE = {
    # nodes -> rows of (resolved, count, multiplicity, odd, even)
    0: [(0, 64, 1, 28, 36)],
    1: [(0, 32, 1, 16, 16), (1, 16, 2, 6, 10)],
    2: [(0, 16, 1, 8, 8), (1, 16, 2, 8, 8), (2, 4, 4, 1, 3)],
    3: [(0, 8, 1, 4, 4), (1, 12, 2, 6, 6), (2, 6, 4, 3, 3),
        (3, 1, 8, 0, 1)],
}


def test_table_degree_identity():
    for g in (2, 3, 4, 5):
        for n in range(g + 1):
            rows = spin.spin_table_irreducible(g, n)
            assert sum(r.count * r.multiplicity for r in rows) == 4 ** g
            assert sum(r.odd + r.even for r in rows) \
                == sum(r.count for r in rows)


def deltas(graph):
    """The graph's even edge subsets as spin_scheme lists them."""
    return tuple(s.delta for s in spin.spin_scheme(graph))


def test_even_subsets_against_brute_force():
    rng = random.Random(11)
    for _ in range(50):
        g = random_graph(rng)
        assert deltas(g) == brute_even_subsets(g)


def random_large_graph(rng):
    """A random connected stable dual graph: a spanning tree on up to 30
    vertices plus up to 10 extra edges (at most 40 edges, b1 <= 10)."""
    while True:
        nv = rng.randint(1, 30)
        edges = [(rng.randrange(v), v) for v in range(1, nv)]
        edges += [(rng.randrange(nv), rng.randrange(nv))
                  for _ in range(rng.randint(0, min(10, 40 - len(edges))))]
        degree = Counter(v for e in edges for v in e)
        genera = [rng.randint(0 if degree[v] >= 3 else 1, 2)
                  for v in range(nv)]
        try:
            return DualGraph(genera, edges)
        except ValueError:
            continue


def test_even_subsets_against_elimination():
    """Beyond the brute force's reach: 120 graphs with up to 40 edges."""
    rng = random.Random(17)
    sizes = []
    for _ in range(120):
        g = random_large_graph(rng)
        subsets = deltas(g)
        assert subsets == elimination_even_subsets(g)
        assert all(degree_even(g, d) for d in subsets)
        sizes.append((g.genus - sum(g.genera), len(g.edges)))
    assert max(b1 for b1, _ in sizes) == 10
    assert max(m for _, m in sizes) > 12


def test_is_even_subset_against_degree_count():
    """spin_counts refuses a subset as not even exactly when the per-vertex
    degree count finds an odd vertex."""
    rng = random.Random(29)
    for _ in range(40):
        g = random_graph(rng)
        m = len(g.edges)
        for k in range(m + 1):
            for combo in itertools.combinations(range(m), k):
                if degree_even(g, combo):
                    spin.spin_counts(g, combo)
                else:
                    with pytest.raises(ValueError, match="subset is not even"):
                        spin.spin_counts(g, combo)


@pytest.mark.parametrize("delta", [(0, 0), (5,), (2,), (-1, -2)],
                         ids=["repeated", "far-past-end", "just-past-end", "negative"])
def test_edge_subset_must_list_distinct_edges(delta):
    """A repeated, negative or out-of-range edge index is refused, not
    counted twice, read from the end or left to raise IndexError."""
    g = DualGraph((1, 1), ((0, 1), (0, 1)))
    with pytest.raises(ValueError, match="repeated or out of range"):
        spin.spin_counts(g, delta)


def caterpillar(n):
    """n genus-0 spine vertices in a path, each with a genus-1 leaf; the
    two ends carry a second leaf so that every spine vertex is stable."""
    genera = [0] * n + [1] * (n + 2)
    edges = [(v, v + 1) for v in range(n - 1)]
    edges += [(v, n + v) for v in range(n)] + [(0, 2 * n), (n - 1, 2 * n + 1)]
    return DualGraph(genera, edges)


def test_caterpillar_tree():
    """A tree has one even subset, the empty one, carrying all 4^g."""
    g = caterpillar(2000)
    assert g.genus == 2002
    (support,) = spin.spin_scheme(g)
    assert support.delta == ()
    assert support.count * support.multiplicity == 4 ** g.genus


def random_chained_graph(rng):
    """A random connected stable dual graph on 1-12 vertices: a spanning
    tree, extra edges (loops allowed), maybe repeats of one edge and maybe
    a chain of 1-6 genus-1 vertices between two old ones; b1 <= 12."""
    while True:
        nv = rng.randint(1, 12)
        genera = [rng.choice((0, 0, 1, 2)) for _ in range(nv)]
        edges = [(rng.randrange(v), v) for v in range(1, nv)]
        edges += [(rng.randrange(nv), rng.randrange(nv)) for _ in range(rng.randint(0, 8))]
        if rng.random() < 0.5:
            ends = [rng.randrange(nv)] + list(range(nv, nv + rng.randint(1, 6)))
            genera += [1] * (len(ends) - 1)
            ends.append(rng.randrange(nv))
            edges += list(zip(ends, ends[1:]))
        if rng.random() < 0.3:
            edges += [rng.choice(edges)] * rng.randint(1, 3)
        try:
            graph = DualGraph(genera, edges)
        except ValueError:
            continue
        if graph.b1 <= 12:
            return graph


def ring_with_chords(n, chords, rng):
    """n genus-1 vertices in a randomly labelled ring, plus random chords."""
    label = list(range(n))
    rng.shuffle(label)
    edges = [(label[v], label[(v + 1) % n]) for v in range(n)]
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(chords)]
    return DualGraph([1] * n, edges)


def test_spin_scheme_against_spin_counts():
    """spin_scheme reads each support's b1 off the cycle signatures; on
    seeded graphs with loops, multi-edges, bridges, genus-0 vertices and
    genus-1 chains, and on a 200-vertex ring whose long chains collapse, it
    equals spin_counts over the elimination oracle's even subsets, which
    reduces each support anew."""
    rng = random.Random(41)
    graphs = [random_chained_graph(rng) for _ in range(150)]
    graphs.append(ring_with_chords(200, 6, rng))
    seen = Counter()
    for g in graphs:
        subsets = elimination_even_subsets(g)
        assert spin.spin_scheme(g) == tuple(spin.spin_counts(g, d) for d in subsets), g
        degree = Counter(v for e in g.edges for v in e)
        seen["loop"] += any(i == j for i, j in g.edges)
        seen["multi-edge"] += len(set(g.edges)) < len(g.edges)
        seen["bridge"] += len(set().union(*subsets)) < len(g.edges)
        seen["genus 0"] += 0 in g.genera
        seen["chain"] += any(degree[v] == 2 and g.genera[v] == 1 for v in range(len(g.genera)))
    assert min(seen.values()) >= 20, seen


def test_spin_scheme_reduces_once(monkeypatch):
    """One spin_scheme call runs `_reduce` once, for the whole graph, and
    counts no support through spin_counts."""
    calls = Counter()
    reduce = spin._reduce

    def counting(edges, delta):
        calls["_reduce"] += 1
        return reduce(edges, delta)

    def refuse(graph, delta):
        raise AssertionError("spin_counts called")

    monkeypatch.setattr(spin, "_reduce", counting)
    monkeypatch.setattr(spin, "spin_counts", refuse)
    scheme = spin.spin_scheme(ring_with_chords(30, 5, random.Random(3)))
    assert len(scheme) == 2 ** 6 and calls == {"_reduce": 1}


def test_components_on_long_path():
    n = 5000
    assert kernels.components(n, [(v, v + 1) for v in range(n - 1)]) \
        == [n - 1] * n
    assert kernels.components(n, [(v + 1, v) for v in range(n - 1)]) == [0] * n


def test_multiplicity_is_power_of_two():
    rng = random.Random(23)
    for _ in range(30):
        g = random_graph(rng)
        for s in spin.spin_scheme(g):
            assert s.multiplicity & (s.multiplicity - 1) == 0


def test_graph_validation():
    with pytest.raises(ValueError):
        DualGraph([1, 1], [])  # disconnected
    with pytest.raises(ValueError):
        DualGraph([0, 2], [(0, 1)])  # unstable genus-0 vertex
    with pytest.raises(ValueError):
        DualGraph([1], [])  # arithmetic genus < 2
    with pytest.raises(ValueError):
        DualGraph([2], [(0, 1)])  # edge endpoint out of range


def test_betti_number_capped():
    """2^b1 supports: b1 = MAX_B1 is accepted, one more loop is rejected
    before anything is enumerated."""
    assert DualGraph([1], [(0, 0)] * spin.MAX_B1).genus == spin.MAX_B1 + 1
    with pytest.raises(ValueError, match="Betti"):
        DualGraph([1], [(0, 0)] * (spin.MAX_B1 + 1))
    with pytest.raises(ValueError, match="Betti"):
        DualGraph([1], [(0, 0)] * 26)


def test_genus_capped():
    """spin prints counts up to 2^{2g}: MAX_GRAPH_GENUS is accepted, one
    more is rejected by DualGraph itself."""
    top = spin.MAX_GRAPH_GENUS
    assert DualGraph([top], []).genus == top
    assert DualGraph([0, top - 1], [(0, 0), (0, 1)]).genus == top
    for genera in ([top + 1], [8000], [top, 1]):
        edges = [(0, 1)] if len(genera) == 2 else []
        with pytest.raises(ValueError, match=f"exceeds {top}"):
            DualGraph(genera, edges)


def betti_all_vertices(n_vertices, edges):
    """The former `spin.betti`: a union-find labelling all n vertices."""
    edges = list(edges)
    return len(edges) - n_vertices + len(set(kernels.components(n_vertices, edges)))


def test_betti_against_all_vertex_oracle():
    """Only endpoints are labelled; each untouched vertex adds one vertex
    and one component, so the result is the same."""
    rng = random.Random(21)
    isolated = 0
    for _ in range(400):
        n = rng.randint(1, 12)
        edges = [(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(0, 14))]
        isolated += len({v for e in edges for v in e}) < n
        assert spin.betti(n, edges) == betti_all_vertices(n, edges)
    assert isolated > 100
    assert spin.betti(10 ** 6, [(5, 7), (7, 5), (3, 3)]) == 2


def test_betti_enforces_vertex_count():
    """betti reads n_vertices: an endpoint outside range(n_vertices) and a
    negative count are refused, with DualGraph's message for the first."""
    with pytest.raises(ValueError, match=r"^edge \(5, 7\) out of range$"):
        spin.betti(2, [(5, 7), (7, 5)])
    with pytest.raises(ValueError, match="nonnegative"):
        spin.betti(-3, [(0, 0)])
    with pytest.raises(ValueError, match=r"^edge \(0, -1\) out of range$"):
        spin.betti(3, [(0, 1), (0, -1)])
    assert spin.betti(0, []) == 0 and spin.betti(3, [(2, 2)]) == 1


def test_support_betti_against_union_find():
    """log2(count) - 2 sum(g_v) is each support's b1, checked by union-find
    over all vertices, on the 200-graph corpus and one b1 = 16 graph."""
    rng = random.Random(5)
    graphs = [random_graph(rng) for _ in range(200)]
    graphs.append(DualGraph([0, 1, 1], [(0, 1)] * 9 + [(0, 2)] * 9))
    assert graphs[-1].genus - sum(graphs[-1].genera) == spin.MAX_B1
    for g in graphs:
        for s in spin.spin_scheme(g):
            b_delta = s.count.bit_length() - 1 - 2 * sum(g.genera)
            assert s.count == 1 << (s.count.bit_length() - 1)
            assert b_delta == betti_all_vertices(len(g.genera),
                                                 [g.edges[i] for i in s.delta])


def test_b1_is_the_graph_betti_number():
    """DualGraph.b1 is spin.betti of its edges, and genus is sum(g_v) + b1,
    on the 200-graph corpus, 120 larger graphs and one b1 = MAX_B1 graph."""
    rng = random.Random(5)
    graphs = [random_graph(rng) for _ in range(200)]
    rng = random.Random(17)
    graphs += [random_large_graph(rng) for _ in range(120)]
    graphs.append(DualGraph([0, 1, 1], [(0, 1)] * 9 + [(0, 2)] * 9))
    assert graphs[-1].b1 == spin.MAX_B1
    for g in graphs:
        assert g.b1 == spin.betti(len(g.genera), g.edges)
        assert g.genus == sum(g.genera) + g.b1


def test_odd_subset_refused():
    g = DualGraph([1, 1], [(0, 1), (0, 1), (0, 0)])  # edge 0 is the loop
    assert spin.spin_counts(g, (0,)).count == 2 ** 5
    for delta in [(1,), (0, 1), (0, 2)]:
        with pytest.raises(ValueError, match="subset is not even"):
            spin.spin_counts(g, delta)


def test_parse_graph():
    g = spin.parse_graph("# comment\nv 2\ne 0 0\n")
    assert g.genera == (2,) and g.edges == ((0, 0),)
    with pytest.raises(ValueError):
        spin.parse_graph("v 1\nv 1\nz 0 1\n")
    with pytest.raises(ValueError):
        spin.parse_graph("e 0 1\n")
