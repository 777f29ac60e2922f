"""Spin-structure counting on stable curves presented as dual graphs.

A dual graph records the irreducible components of a stable curve (vertex
genera) and its nodes (edges, loops allowed).  The supports of spin
structures correspond to the even subsets of edges; each support carries
2^{2 sum(g_v) + b1(support)} spin structures, every one counting with
multiplicity 2^{b1(graph) - b1(support)}.

One F2 reduction, `_reduce`, serves evenness, b1 and the even subsets: an
edge's boundary is the vertex bitmask (1 << i) ^ (1 << j), 0 for a loop, and
a subset is even when its boundaries XOR to 0.  `spin_scheme` reduces the
whole graph once: its basis is a set of fundamental cycles, whose span by
doubling lists the even subsets as the supports' deltas, and each support's
b1 is a small F2 rank over the edges' cycle signatures, deduplicated so that
chains and parallel classes count once.  `spin_counts` reduces one
given subset.  Union-find (`kernels.components`) checks the graph's
connectivity only.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from operator import itemgetter

from .kernels import components
from .text import data_lines, echo, parse_int

MAX_B1 = 16  # spin_scheme lists all 2^b1 supports, each b1 a rank of at most 16 bits
MAX_GENUS = 100  # spin-table: at most 5151 rows, counts below 2^200
MAX_GRAPH_GENUS = 5000  # spin prints counts up to 2^{2g}: at most 3011 digits


class DualGraph(namedtuple("DualGraph", "genera edges")):
    """Weighted multigraph: vertex geometric genera and node edges.

    Edges are unordered pairs of 0-based vertex indices, loops allowed, kept
    sorted.  The constructor (also under _make and _replace) checks
    connectivity, stability (genus-0 vertices need at least three edge
    incidences, loops counting twice), an arithmetic genus from 2 to
    MAX_GRAPH_GENUS and a first Betti number of at most MAX_B1.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, genera, edges):
        genera = tuple(genera)
        edges = tuple(sorted(tuple(sorted(e)) for e in edges))
        self = super().__new__(cls, genera, edges)
        n = len(genera)
        if n == 0:
            raise ValueError("graph needs at least one vertex")
        if any(g < 0 for g in genera):
            raise ValueError("vertex genera must be nonnegative")
        _check_range(n, edges)
        if len(set(components(n, edges))) != 1:
            raise ValueError("graph is not connected")
        if self.b1 > MAX_B1:
            raise ValueError(f"first Betti number {self.b1} exceeds {MAX_B1}")
        degree = Counter(v for e in edges for v in e)  # a loop counts twice
        for v in range(n):
            if genera[v] == 0 and degree[v] < 3:
                raise ValueError(f"vertex {v} violates stability")
        if self.genus < 2:
            raise ValueError("arithmetic genus must be >= 2")
        if self.genus > MAX_GRAPH_GENUS:
            raise ValueError(f"arithmetic genus {echo(self.genus)} exceeds {MAX_GRAPH_GENUS}")
        return self

    @property
    def b1(self) -> int:
        """First Betti number: edges - vertices + 1, as __new__ proved the
        graph connected."""
        return len(self.edges) - len(self.genera) + 1

    @property
    def genus(self) -> int:
        return sum(self.genera) + self.b1


def _check_range(n_vertices: int, edges) -> None:
    """Refuse an edge with an endpoint outside range(n_vertices)."""
    for i, j in edges:
        if not (0 <= i < n_vertices and 0 <= j < n_vertices):
            raise ValueError(f"edge {echo((i, j))} out of range")


def _reduce(edges, delta) -> tuple[int, list[int]]:
    """(XOR of the boundaries, even-subset basis) of the distinct edges in delta.

    A repeated, negative or out-of-range index raises ValueError.  Each
    boundary is reduced against pivots keyed by their highest set bit,
    carrying a one-hot tag of the edges combined; each tag whose boundary
    reduces to 0 is a basis vector, so len(basis) is b1 of those edges.
    """
    total, seen, pivots, basis, m = 0, set(), {}, [], len(edges)
    for e in delta:
        if e in seen or not 0 <= e < m:
            raise ValueError(f"edge index {echo(e)} is repeated or out of range")
        seen.add(e)
        i, j = edges[e]
        boundary, tag = (1 << i) ^ (1 << j), 1 << e
        total ^= boundary
        while boundary:
            top = boundary.bit_length()
            if top not in pivots:
                pivots[top] = boundary, tag
                break
            boundary ^= pivots[top][0]
            tag ^= pivots[top][1]
        else:
            basis.append(tag)
    return total, basis


def betti(n_vertices: int, edges) -> int:
    """First Betti number of the edges on vertices 0, ..., n_vertices - 1.

    A negative n_vertices or an endpoint out of range raises ValueError.  A
    vertex no edge touches adds nothing, so only the endpoints of the edges
    are labelled, 0, 1, ..., before the reduction counts b1.
    """
    if n_vertices < 0:
        raise ValueError("n_vertices must be nonnegative")
    edges = list(edges)
    _check_range(n_vertices, edges)
    index = {v: k for k, v in enumerate({v for edge in edges for v in edge})}
    return len(_reduce([(index[i], index[j]) for i, j in edges], range(len(edges)))[1])


def _indices(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


# spin structures supported on a given even edge subset
SpinSupport = namedtuple("SpinSupport", "delta count multiplicity")


def spin_counts(graph: DualGraph, delta) -> SpinSupport:
    """Count and multiplicity of the spin structures supported on delta.

    count = 2^{2 sum(g_v)} * 2^{b1(delta-subgraph)} (line bundles on the
    normalization times gluings); multiplicity = 2^{b1(graph) - b1(delta)}.
    """
    delta = tuple(sorted(delta))
    total, basis = _reduce(graph.edges, delta)
    if total:
        raise ValueError("subset is not even")
    b_delta = len(basis)
    count = 1 << (2 * sum(graph.genera) + b_delta)
    return SpinSupport(delta, count, 1 << (graph.b1 - b_delta))


def spin_scheme(graph: DualGraph) -> tuple[SpinSupport, ...]:
    """One SpinSupport per even subset, sorted by delta, as `spin_counts`
    gives them; total degree sums to 2^{2g}.

    basis[j] is the fundamental cycle C_j of the spanning forest made of
    `_reduce`'s pivot edges: one non-forest edge and the forest path between
    its ends.  Edge e lies in C_j for j in its signature sig(e), and in the
    support span[k] when sig(e) & k has odd weight.  A cycle of span[k] is a
    sum over J of the C_j with J inside k (the non-forest edges force it)
    and sig(e) & J of even weight for every e outside span[k], so
    b1(span[k]) = |k| - rank{sig(e) & k of even weight}.  A signature of one
    bit never counts, so only the distinct ones of two or more bits are
    kept: each chain of degree-2 vertices and each parallel class is one.
    """
    basis = _reduce(graph.edges, range(len(graph.edges)))[1]
    span = [0]  # span[k] is the XOR of basis[j] over the set bits j of k
    for tag in basis:
        span += [s ^ tag for s in span]
    signature = [0] * len(graph.edges)
    for j, tag in enumerate(basis):
        for e in _indices(tag):
            signature[e] |= 1 << j
    shared = {sig for sig in signature if sig & (sig - 1)}
    genus_bits = 2 * sum(graph.genera)
    supports = []
    for k, mask in enumerate(span):
        pivots = []
        for sig in shared:
            row = sig & k
            if not row.bit_count() & 1:
                for p in pivots:  # pivots keep distinct top bits; min clears each
                    row = min(row, row ^ p)
                if row:
                    pivots.append(row)
        b_delta = k.bit_count() - len(pivots)
        supports.append((_indices(mask), 1 << (genus_bits + b_delta), 1 << (graph.b1 - b_delta)))
    supports.sort(key=itemgetter(0))
    return tuple(map(SpinSupport._make, supports))


def theta_counts(g: int) -> tuple[int, int]:
    """(odd, even) theta characteristic counts of a smooth genus-g curve."""
    if g < 0:
        raise ValueError("genus must be nonnegative")
    if g == 0:
        return (0, 1)
    return (2 ** (g - 1) * (2 ** g - 1), 2 ** (g - 1) * (2 ** g + 1))


# resolved is k, the number of resolved nodes
SpinTableRow = namedtuple("SpinTableRow", "resolved count multiplicity odd even")


def spin_table_irreducible(g: int, n: int) -> tuple[SpinTableRow, ...]:
    """Multiplicity table for an irreducible genus-g curve with n nodes.

    Row k counts the binom(n, k) * 2^{2g-n-k} spin structures of
    multiplicity 2^k.  The parity split is half-and-half except on the
    maximal-multiplicity row, which inherits the counts of the smooth
    normalization of genus g - n.
    """
    if g < 2:
        raise ValueError("arithmetic genus must be >= 2")
    if g > MAX_GENUS:
        raise ValueError(f"arithmetic genus {echo(g)} exceeds {MAX_GENUS}")
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
    for lineno, line in data_lines(text):
        parts = line.split()
        if parts[0] == "v" and len(parts) == 2:
            genera.append(parse_int(parts[1]))
        elif parts[0] == "e" and len(parts) == 3:
            edges.append((parse_int(parts[1]), parse_int(parts[2])))
        else:
            raise ValueError(f"line {lineno}: cannot parse {echo(line)}")
    if not genera:
        raise ValueError("graph file has no vertices")
    return DualGraph(genera, edges)
