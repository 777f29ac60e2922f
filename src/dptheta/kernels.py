"""Exact kernels shared by several layers, with no imports of their own.

The fraction-free (Bareiss) determinant of int matrices serves
`poly.sylvester`, the one Sylvester resultant, and `nodal.validate_config`'s
definiteness check.  Union-find serves `spin`'s connectivity check and
`nodal.validate_config`'s component labels.
"""

from __future__ import annotations


def determinant(matrix):
    """Determinant of an int matrix by fraction-free (Bareiss) elimination.

    Each step replaces the trailing block by its 2x2 minors with the pivot,
    divided exactly by the previous pivot.  Rows swap only on a zero pivot.
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
                return 0  # a zero column
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        top, pivot = m[k], m[k][k]
        for row in m[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n):
                entry = row[j] * pivot
                if lead:  # a zero below the pivot only rescales the row
                    entry = entry - lead * top[j]
                row[j] = entry // prev
        prev = pivot
    return m[-1][-1] * sign


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
