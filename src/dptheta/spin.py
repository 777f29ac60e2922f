"""Spin-structure counting on stable curves presented as dual graphs.

A dual graph records the irreducible components of a stable curve (vertex
genera) and its nodes (edges, loops allowed).  The supports of spin
structures correspond to the even subsets of edges; each support carries
2^{2 sum(g_v) + b1(support)} spin structures, every one counting with
multiplicity 2^{b1(graph) - b1(support)}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

Edge = tuple[int, int]
MAX_B1 = 16  # even_subsets lists all 2^b1 kernel vectors


@dataclass(frozen=True)
class DualGraph:
    """Weighted multigraph: vertex geometric genera and node edges.

    Edges are unordered pairs of 0-based vertex indices, loops allowed.
    Validates connectivity, stability (genus-0 vertices need at least three
    edge incidences, loops counting twice), arithmetic genus >= 2 and a
    first Betti number of at most MAX_B1.
    """

    genera: tuple[int, ...]
    edges: tuple[Edge, ...]

    def __init__(self, genera, edges):
        genera = tuple(genera)
        edges = tuple(sorted(tuple(sorted(e)) for e in edges))
        object.__setattr__(self, "genera", genera)
        object.__setattr__(self, "edges", edges)
        n = len(genera)
        if n == 0:
            raise ValueError("graph needs at least one vertex")
        if any(g < 0 for g in genera):
            raise ValueError("vertex genera must be nonnegative")
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) out of range")
        if len(set(components(n, edges))) != 1:
            raise ValueError("graph is not connected")
        b1 = len(edges) - n + 1  # the graph is connected
        if b1 > MAX_B1:
            raise ValueError(f"first Betti number {b1} exceeds {MAX_B1}")
        for v in range(n):
            if genera[v] == 0 and self.incidences(v) < 3:
                raise ValueError(f"vertex {v} violates stability")
        if self.genus < 2:
            raise ValueError("arithmetic genus must be >= 2")

    def incidences(self, v: int) -> int:
        return sum((e[0] == v) + (e[1] == v) for e in self.edges)

    @property
    def genus(self) -> int:
        return sum(self.genera) + betti(len(self.genera), self.edges)


def components(n: int, pairs) -> list[int]:
    """Component label of each of n vertices joined by the given index pairs.

    Union-find with path halving; two vertices share a label exactly when
    they are connected.
    """
    parent = list(range(n))
    for i, j in pairs:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        parent[i] = j
    labels = []
    for v in range(n):
        while parent[v] != v:
            v = parent[v]
        labels.append(v)
    return labels


def betti(n_vertices: int, edges) -> int:
    """First Betti number: edges - vertices + components."""
    edges = list(edges)
    return len(edges) - n_vertices + len(set(components(n_vertices, edges)))


def even_subsets(graph: DualGraph) -> tuple[tuple[int, ...], ...]:
    """All even subsets of edges, as sorted tuples of edge indices.

    A subset is even when every vertex has an even number of incidences
    with it (loops contribute two).  These are the kernel vectors of the
    vertex / non-loop-edge incidence matrix over F2; loops are free.  The
    result has exactly 2^{b1} members.
    """
    edges = graph.edges
    m = len(edges)
    n = len(graph.genera)
    # rows: one bitmask of edge-columns per vertex; loops drop out mod 2
    rows = []
    for v in range(n):
        mask = 0
        for e_idx, (i, j) in enumerate(edges):
            if i != j and (i == v or j == v):
                mask |= 1 << e_idx
        if mask:
            rows.append(mask)
    # Gaussian elimination to find a kernel basis
    pivots: dict[int, int] = {}
    for row in rows:
        for col in range(m):
            if (row >> col) & 1:
                if col in pivots:
                    row ^= pivots[col]
                else:
                    pivots[col] = row
                    break
    free_cols = [c for c in range(m) if c not in pivots]
    basis = []
    for fc in free_cols:
        vec = 1 << fc
        # back-substitute: set pivot variables forced by this free column
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
    assert len(subsets) == 1 << betti(n, edges)
    return tuple(sorted(subsets))


def is_even_subset(graph: DualGraph, delta) -> bool:
    delta_edges = [graph.edges[i] for i in delta]
    for v in range(len(graph.genera)):
        deg = sum((i == v) + (j == v) for i, j in delta_edges)
        if deg % 2:
            return False
    return True


@dataclass(frozen=True)
class SpinSupport:
    """Spin structures supported on a given even edge subset."""

    delta: tuple[int, ...]
    count: int
    multiplicity: int


def spin_counts(graph: DualGraph, delta) -> SpinSupport:
    """Count and multiplicity of the spin structures supported on delta.

    count = 2^{2 sum(g_v)} * 2^{b1(delta-subgraph)} (line bundles on the
    normalization times gluings); multiplicity = 2^{b1(graph) - b1(delta)}.
    """
    delta = tuple(sorted(delta))
    if not is_even_subset(graph, delta):
        raise ValueError("subset is not even")
    n = len(graph.genera)
    b_full = betti(n, graph.edges)
    b_delta = betti(n, [graph.edges[i] for i in delta])
    count = 1 << (2 * sum(graph.genera) + b_delta)
    return SpinSupport(delta, count, 1 << (b_full - b_delta))


def spin_scheme(graph: DualGraph) -> tuple[SpinSupport, ...]:
    """One SpinSupport per even subset; total degree sums to 2^{2g}."""
    return tuple(spin_counts(graph, d) for d in even_subsets(graph))


def theta_counts(g: int) -> tuple[int, int]:
    """(odd, even) theta characteristic counts of a smooth genus-g curve."""
    if g < 0:
        raise ValueError("genus must be nonnegative")
    if g == 0:
        return (0, 1)
    return (2 ** (g - 1) * (2 ** g - 1), 2 ** (g - 1) * (2 ** g + 1))


@dataclass(frozen=True)
class SpinTableRow:
    resolved: int  # k: number of resolved nodes
    count: int
    multiplicity: int
    odd: int
    even: int


def spin_table_irreducible(g: int, n: int) -> tuple[SpinTableRow, ...]:
    """Multiplicity table for an irreducible genus-g curve with n nodes.

    Row k counts the binom(n, k) * 2^{2g-n-k} spin structures of
    multiplicity 2^k.  The parity split is half-and-half except on the
    maximal-multiplicity row, which inherits the counts of the smooth
    normalization of genus g - n.
    """
    if g < 2:
        raise ValueError("arithmetic genus must be >= 2")
    if not 0 <= n <= g:
        raise ValueError("node count must be between 0 and g")
    rows = []
    for k in range(n + 1):
        count = math.comb(n, k) * 2 ** (2 * g - n - k)
        if k < n:
            odd = even = count // 2
        else:
            odd, even = theta_counts(g - n)
        rows.append(SpinTableRow(k, count, 2 ** k, odd, even))
    return tuple(rows)


def parse_graph(text: str) -> DualGraph:
    """Parse a graph file: `v <genus>` lines then `e <i> <j>` lines."""
    genera = []
    edges = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "v" and len(parts) == 2:
            genera.append(int(parts[1]))
        elif parts[0] == "e" and len(parts) == 3:
            edges.append((int(parts[1]), int(parts[2])))
        else:
            raise ValueError(f"line {lineno}: cannot parse {raw!r}")
    if not genera:
        raise ValueError("graph file has no vertices")
    return DualGraph(genera, edges)
