"""Exact kernels shared by several layers, with no imports of their own.

Fraction-free (Bareiss) elimination serves the polynomial determinants of
`poly` and `detrep` and the leading minors `nodal` checks a Gram matrix
with; union-find serves the connectivity checks of `spin` and `nodal`.
"""

from __future__ import annotations


def _bareiss_step(m, k, prev) -> None:
    """Replace the block below and right of the pivot m[k][k] by its 2x2
    minors with the pivot, divided exactly by the previous pivot."""
    top, pivot = m[k], m[k][k]
    n = len(top)
    for row in m[k + 1:]:
        lead = row[k]
        for j in range(k + 1, n):
            entry = row[j] * pivot
            if lead:  # a zero below the pivot only rescales the row
                entry = entry - lead * top[j]
            row[j] = entry // prev


def determinant(matrix):
    """Determinant by fraction-free (Bareiss) elimination.

    The entries may be ints or MultiPolys, anything whose `//` divides
    exactly: each step replaces the trailing block by its 2x2 minors with
    the pivot, divided by the previous pivot.  Rows swap only on a zero pivot.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    if n == 0:
        raise ValueError("empty matrix")
    m = [list(row) for row in matrix]
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return m[k][k]  # a zero column: the zero of the entry type
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        _bareiss_step(m, k, prev)
        prev = m[k][k]
    return m[-1][-1] * sign


def leading_minors(matrix):
    """Leading principal minors of a square matrix, smallest first.

    One Bareiss pass without row swaps: before step k the pivot m[k][k] is
    the minor of size k + 1.  The pass cannot go on past a zero pivot, so
    the minors stop after the first zero.
    """
    m = [list(row) for row in matrix]
    prev = 1
    for k in range(len(m)):
        minor = m[k][k]
        yield minor
        if not minor:
            return
        _bareiss_step(m, k, prev)
        prev = minor


def components(n: int, pairs) -> list[int]:
    """Component label of each of n vertices joined by the given index pairs.

    Union-find with path halving, also while labelling; two vertices share
    a label (the index of their root) exactly when they are connected.
    """
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for i, j in pairs:
        parent[find(i)] = find(j)
    return [find(v) for v in range(n)]
