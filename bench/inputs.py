"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and returns plain data (ints,
tuples, strings), so the same seed gives byte-identical inputs and the
program under test only ever sees the generated values.  Each generator
draws from its own named random stream, so adding one never shifts another.

The op mix is stratified: a seed changes which roots, Weyl words,
coefficients and graph shapes appear, but not how many inputs of each size
a pass holds.  That keeps the work per pass, and so the timings, comparable
across seeds.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

# Root-subset sizes per pass: every size once per degree, plus a second A1 in
# degree 2 so that two configs run the intersection profile.
NODAL_SIZES = {2: (1, 1, 2, 3, 4, 5, 6, 7), 3: (1, 2, 3, 4, 5, 6)}
WEYL_WORD_LENGTH = 24
MATRICES_PER_PASS = 12
FORM_GENERA = (4, 5, 6, 7, 8)           # F2 dimensions 8, 10, 12, 14, 16
GRAPH_BETTI = (2, 4, 6, 8, 10)
COEFF_RANGE = 3                         # matrix entries in [-3, 3]
PLANE_VARS = ("x0", "x1", "x2")


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{stream}:{seed}")


# -- Picard lattice arithmetic, written out here so that the conjugated
# -- configs do not depend on the library under test.

def pair(a, b) -> int:
    """Intersection form diag(1, -1, ..., -1)."""
    return a[0] * b[0] - sum(x * y for x, y in zip(a[1:], b[1:]))


def reflect(root, x):
    k = pair(x, root)
    return tuple(xi + k * ri for xi, ri in zip(x, root))


def simple_roots(degree: int):
    """L - E1 - E2 - E3 and E_i - E_{i+1}: E7 for degree 2, E6 for degree 3."""
    n = 9 - degree
    roots = [(1, -1, -1, -1) + (0,) * (n - 3)]
    for i in range(1, n):
        v = [0] * (n + 1)
        v[i], v[i + 1] = 1, -1
        roots.append(tuple(v))
    return roots


def nodal_configs(seed: int):
    """Weyl-conjugated subsets of the simple roots, one per stratum.

    Returns (degree, subset, roots) triples: `subset` indexes the simple
    roots of the unconjugated config, `roots` is its image under a random
    Weyl word, so its multiplicity schemes must match the unconjugated ones.
    """
    rng = _rng(seed, "nodal")
    out = []
    for degree, sizes in NODAL_SIZES.items():
        simple = simple_roots(degree)
        for size in sizes:
            subset = tuple(sorted(rng.sample(range(len(simple)), size)))
            word = [rng.choice(simple) for _ in range(WEYL_WORD_LENGTH)]
            roots = []
            for i in subset:
                r = simple[i]
                for s in word:
                    r = reflect(s, r)
                roots.append(r)
            out.append((degree, subset, tuple(roots)))
    return out


def config_text(degree: int, roots) -> str:
    lines = [f"degree {degree}"]
    lines += ["root [" + ", ".join(str(c) for c in r) + "]" for r in roots]
    return "\n".join(lines) + "\n"


def malformed_config(seed: int) -> tuple[str, str]:
    """A config that must be rejected with exit code 2, and what is wrong."""
    rng = _rng(seed, "malformed")
    simple = simple_roots(2)
    r = rng.choice(simple)
    kind = rng.choice(("wrong-length", "not-a-root", "unknown-directive",
                       "bad-pairing"))
    if kind == "wrong-length":
        body = config_text(2, [r[:-1]])
    elif kind == "not-a-root":
        body = config_text(2, [(1, -1) + (0,) * 6])
    elif kind == "unknown-directive":
        body = config_text(2, [r]).replace("root", "rot", 1)
    else:
        body = config_text(2, [r, tuple(-c for c in r)])
    return kind, body


# -- polynomials as {exponent: int} dicts, rendered in the data-file syntax.

def monomials(degree: int):
    return [e for e in product(range(degree + 1), repeat=3) if sum(e) == degree]


def random_form(rng: random.Random, degree: int) -> dict:
    while True:
        form = {e: rng.randint(-COEFF_RANGE, COEFF_RANGE) for e in monomials(degree)}
        form = {e: c for e, c in form.items() if c}
        if form:
            return form


def form_text(form: dict) -> str:
    parts = []
    for exp in sorted(form, reverse=True):
        c = form[exp]
        factors = [v if e == 1 else f"{v}^{e}"
                   for v, e in zip(PLANE_VARS, exp) if e]
        body = "*".join(([str(abs(c))] if abs(c) != 1 else []) + factors)
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def evaluate(form: dict, point) -> int:
    total = 0
    for exp, c in form.items():
        term = c
        for x, e in zip(point, exp):
            term *= x ** e
        total += term
    return total


def matrix_det_at(entries: dict, point) -> int:
    """Determinant of the symmetric matrix of forms at an integer point."""
    v = {k: evaluate(f, point) for k, f in entries.items()}
    l11, l12, l22, q1, q2, h = (v[k] for k in ("L11", "L12", "L22", "Q1", "Q2", "H"))
    return (l11 * (l22 * h - q2 * q2) - l12 * (l12 * h - q1 * q2)
            + q1 * (l12 * q2 - l22 * q1))


def conic_at(entries: dict, point) -> int:
    v = {k: evaluate(entries[k], point) for k in ("L11", "L12", "L22")}
    return v["L11"] * v["L22"] - v["L12"] ** 2


def random_point(rng: random.Random):
    return tuple(rng.randint(-7, 7) for _ in range(3))


def matrices(seed: int, count: int = MATRICES_PER_PASS):
    """Symmetric-matrix data blocks, each with an independent random conic.

    Returns dicts with the data-file text, the entry forms, the random conic
    form and text, and integer check points.  Rejected draws: a determinant
    or contact conic that vanishes at the check points (so the quintic and
    the contact conic are nonzero), and a random conic proportional to the
    contact conic.
    """
    rng = _rng(seed, "matrices")
    out = []
    while len(out) < count:
        entries = {k: random_form(rng, d) for k, d in
                   (("L11", 1), ("L12", 1), ("L22", 1),
                    ("Q1", 2), ("Q2", 2), ("H", 3))}
        conic = random_form(rng, 2)
        points = [random_point(rng) for _ in range(3)]
        if any(matrix_det_at(entries, p) == 0 or conic_at(entries, p) == 0
               for p in points):
            continue
        ratios = {(evaluate(conic, p), conic_at(entries, p)) for p in points}
        if len({Fraction(a, b) for a, b in ratios}) == 1:
            continue
        block = "".join(f"{k}: {form_text(f)}\n" for k, f in entries.items())
        out.append({"block": block, "entries": entries, "conic": conic,
                    "conic_text": form_text(conic), "points": points})
    return out


def quadratic_forms(seed: int):
    """(g, arf of the standard form, shift vector eta), one per genus."""
    rng = _rng(seed, "forms")
    return [(g, rng.randint(0, 1), rng.randrange(1 << (2 * g)))
            for g in FORM_GENERA]


def dual_graphs(seed: int):
    """Connected stable dual graphs, one per first Betti number.

    A random spanning tree plus b1 extra edges (loops allowed) fixes b1;
    genus-0 vertices with fewer than three edge incidences get genus 1.
    """
    rng = _rng(seed, "graphs")
    out = []
    for b1 in GRAPH_BETTI:
        nv = rng.randint(1, 4)
        edges = [(rng.randrange(v), v) for v in range(1, nv)]
        edges += [tuple(sorted((rng.randrange(nv), rng.randrange(nv))))
                  for _ in range(b1)]
        genera = [rng.randint(0, 2) for _ in range(nv)]
        for v in range(nv):
            incidences = sum((i == v) + (j == v) for i, j in edges)
            if genera[v] == 0 and incidences < 3:
                genera[v] = 1
        out.append((tuple(genera), tuple(edges)))
    return out


def graph_text(genera, edges) -> str:
    return "".join([f"v {g}\n" for g in genera] + [f"e {i} {j}\n" for i, j in edges])


def aronhold_order(seed: int, count: int = 288):
    """A shuffled visiting order of the Aronhold sets and of their members."""
    rng = _rng(seed, "aronhold")
    order = list(range(count))
    rng.shuffle(order)
    members = [tuple(rng.sample(range(7), 7)) for _ in range(count)]
    return order, members

