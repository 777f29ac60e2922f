"""ADE degenerations of Del Pezzo surfaces and their multiplicity schemes.

A configuration of effective (-2)-classes spans a negative definite root
sublattice N of the Picard lattice.  K.K = d > 0 and the form has
signature (1, 9 - d), so K-perp is negative definite (Hodge index): roots
in it span a definite lattice exactly when they are independent, that is,
when their Gram determinant is nonzero.

Exceptional and blow-down classes that become congruent modulo N coalesce;
the multiplicity of a point of the resulting scheme is the size of its
congruence class.  Labelling classes by their pair {c, s(c)} under the
Geiser involution (degree 2) or the double-six pairing (degree 3) gives the
schemes of bitangents, Aronhold sets and double sixes: s is affine with
linear part -1, so it maps each coset K of N onto a coset s(K), and fixes
no class, so a point is the pairs of one coset pair {K, s(K)}.  Labelling
blow-downs by their even theta characteristic, and merging the labels that
one congruence class meets, gives the even theta characteristics of the
branch curve: a point is the even classes of one coset theta + V, V the F2
span of the roots' labels.  The labels are additive, so no merge crosses
cosets; and each coset's even classes merge into one, on every one of the
107,911 root sublattices of E7 = K-perp, as an exhaustive check found.

Congruence is keyed by linear invariants read off a diagonal form of the
root matrix, evaluated over a whole class table at once on packed columns.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter, namedtuple
from functools import lru_cache, partial
from itertools import chain, repeat
from operator import add, lshift, mod, mul

from . import lattice as lt
from .kernels import components, determinant
from .lattice import ClassKind, DivisorClass, PicardLattice
from .text import data_lines, echo, parse_int

PROFILE_COLUMNS = (2, 1, 0, -1, -2)


class NodalConfig(namedtuple("NodalConfig", "lattice roots")):
    """Distinct roots, kept sorted.  An immutable named tuple, valid by
    construction: its constructor, also under _make and _replace, raises
    ValueError unless every root has the lattice's rank and validate_config passes."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, lattice: PicardLattice, roots):
        roots = tuple(roots)
        for r in roots:
            if len(r) != lattice.rank:
                raise ValueError(f"root {echo(r)} has wrong length for degree {lattice.degree}")
        self = super().__new__(cls, lattice, tuple(sorted(set(roots))))
        validate_config(self)
        return self


class MultiplicityScheme(namedtuple("MultiplicityScheme", "points")):
    """Zero-dimensional scheme: (canonical representative, multiplicity) points."""

    __slots__ = ()

    @property
    def total(self) -> int:
        return sum(m for _, m in self.points)

    def multiplicity_profile(self) -> dict[int, int]:
        """Map multiplicity -> number of points with that multiplicity."""
        prof: dict[int, int] = {}
        for _, m in self.points:
            prof[m] = prof.get(m, 0) + 1
        return prof


def validate_config(cfg: NodalConfig) -> str:
    """Check the root invariants and return the Dynkin type, e.g. "A1+A2".

    Requirements: every member is a K-orthogonal (-2)-class, distinct members
    pair to 0 or 1, and the Gram determinant is nonzero, so the span is
    negative definite.  Then each component of the pairing graph is an A, D
    or E diagram: A has no branch vertex, D's has two or more leaf
    neighbours (arms 1, 1, k) and E's one (arms 1, 2, k).
    """
    lat, roots = cfg.lattice, cfg.roots
    if not roots:
        return "trivial"
    n = len(roots)
    for r in roots:
        if lt.pair(lat, r, r) != -2:
            raise ValueError(f"{echo(r)} has self-intersection != -2")
        if lt.pair(lat, r, lat.canonical) != 0:
            raise ValueError(f"{echo(r)} is not orthogonal to K")
    gram = [[-2 if i == j else 0 for j in range(n)] for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            p = lt.pair(lat, roots[i], roots[j])
            if p not in (0, 1):
                raise ValueError(f"pairing {p} of {echo(roots[i])} and "
                                 f"{echo(roots[j])} not in {{0, 1}}")
            if p:
                gram[i][j] = gram[j][i] = 1
                edges.append((i, j))
    if not determinant(gram):  # K-perp is negative definite: definite = independent
        raise ValueError("root span is not negative definite")
    degree = [sum(row) + 2 for row in gram]
    comps: dict[int, list[int]] = {}
    for i, label in enumerate(components(n, edges)):
        comps.setdefault(label, []).append(i)
    names = []
    for verts in comps.values():
        branch = [i for i in verts if degree[i] > 2]  # at most one, of degree 3
        leaves = [j for b in branch for j in verts if gram[b][j] == 1 and degree[j] == 1]
        family = "A" if not branch else "D" if len(leaves) > 1 else "E"
        names.append(f"{family}{len(verts)}")
    return "+".join(sorted(names, key=lambda s: (s[0], int(s[1:]))))


@lru_cache(maxsize=1)
def _invariants(cfg: NodalConfig):
    """Linear congruence invariants of the root span N, from a diagonal form.

    Unimodular row and column operations bring the root matrix R to
    P.R.Q = [diag(d_1, ..., d_r) | 0], Smith's normal form without its
    divisibility chain (Cohen, A Course in Computational Algebraic Number
    Theory, 2.4.4): each step moves the smallest entry of the pivot row to
    the pivot, reduces that row by column operations and the pivot column
    by row operations, and keeps the pivot once both are clear; a remainder
    left below it brings its row up.  Dependent roots end as zero rows.
    Then v = w mod N exactly when (vQ)_i = (wQ)_i for i > r and
    (vQ)_i = (wQ)_i mod d_i where d_i > 1.  Returns the free columns of Q,
    the (column, d_i) pairs with d_i > 1 and the largest |q|_1 of those
    columns; cached for one configuration, whose class tables share it.
    """
    n = cfg.lattice.rank
    rows = [list(r) for r in cfg.roots]
    cols = [[0] * n for _ in range(n)]  # the columns of Q
    for j in range(n):
        cols[j][j] = 1
    moduli = []
    while len(moduli) < len(rows):
        k, top = len(moduli), rows[len(moduli)]
        if not any(top[k:]):  # a dependent root
            rows.pop(k)
            continue
        _, j = min((abs(x), j) for j, x in enumerate(top[k:], k) if x)
        if j != k:
            for row in rows:
                row[k], row[j] = row[j], row[k]
            cols[k], cols[j] = cols[j], cols[k]
        p = top[k]
        for j in range(k + 1, n):
            if q := top[j] // p:
                for row in rows:
                    row[j] -= q * row[k]
                cols[j] = [x - q * y for x, y in zip(cols[j], cols[k])]
        if any(top[k + 1:]):
            continue  # a remainder in the pivot row becomes the next pivot
        for row in rows[k + 1:]:
            row[k] %= p  # the row operation, as the pivot row is clear
        below = [i for i in range(k + 1, len(rows)) if rows[i][k]]
        if below:
            rows[k], rows[below[0]] = rows[below[0]], top
        else:
            moduli.append(abs(p))
    free = tuple(map(tuple, cols[len(moduli):]))
    torsion = tuple((tuple(c), d) for c, d in zip(cols, moduli) if d > 1)
    return free, torsion, max(map(sum, map(map, repeat(abs), free + tuple(c for c, _ in torsion))))


_Packing = namedtuple("_Packing", "width count bound columns half")
_WORDS = {array(code).itemsize * 8: code for code in "QLIHB"}  # bits -> typecode
_WIDTHS = sorted(_WORDS)


def _width(bits: int) -> int:
    """The narrowest digit width of at least `bits` bits: one array word, or
    a multiple of 64 bits."""
    return next((w for w in _WIDTHS if w >= bits), -(-bits // 64) * 64)


def _pack(classes, width: int) -> _Packing:
    """Each coordinate column of classes as one int: class j's entry plus
    2^(width-1) at bit width*j, built through `array`.  The width grows past
    the one asked for when an entry needs it; `half` is 2^(width-1) in every
    digit and `bound` the largest |entry|."""
    bound = max(map(abs, chain.from_iterable(classes)), default=0)
    width = max(width, _width(bound.bit_length() + 1))
    code, half = _WORDS[min(width, 64)], 1 << (width - 1)

    def column(entries):
        words = map(add, entries, repeat(half))
        if width > 64:  # 64-bit words, low word first
            words = [x >> s & 0xFFFFFFFFFFFFFFFF for x in words for s in range(0, width, 64)]
        words = array(code, words)
        if sys.byteorder == "big":
            words.byteswap()
        return int.from_bytes(words.tobytes(), "little")

    ones = ((1 << width * len(classes)) - 1) // ((1 << width) - 1)
    return _Packing(width, len(classes), bound, tuple(map(column, zip(*classes))), half * ones)


@lru_cache(maxsize=None)
def _table_packing(lat: PicardLattice, kind: ClassKind, width: int) -> _Packing:
    return _pack(lt.enumerate_classes(lat, kind), width)


def _fit(pack, norm: int, count: int):
    """pack(width) at the narrowest width whose digit holds `count` balanced
    k-bit sub-digits, each a value q.v of a class v with |q|_1 <= norm, so
    2^k > 2|q.v|: k comes from the bound of the classes.  Returns
    (packing, k)."""
    packing = pack(8)
    k = (2 * packing.bound * norm + 1).bit_length()
    width = _width(k * max(count, 1))
    return (packing if width == packing.width else pack(width)), k


def _values(q, packing: _Packing):
    """Each class's value of the functional q, plus 2^(width-1), in order:
    the digits of one big-int expression over the packed columns."""
    value = sum(map(mul, q, packing.columns)) + (1 - sum(q)) * packing.half
    raw = value.to_bytes(packing.width // 8 * packing.count, "little")
    if packing.width > 64:
        step = packing.width // 8
        return [int.from_bytes(raw[i:i + step], "little") for i in range(0, len(raw), step)]
    digits = array(_WORDS[packing.width], raw)
    if sys.byteorder == "big":
        digits.byteswap()
    return digits


def _keys(cfg: NodalConfig, classes, pack) -> tuple[int, ...]:
    """The congruence key of each class modulo the root span, in order.

    The free invariants combine into one functional with k-bit digits, which
    the diagonal form's torsion coordinates refine, each reduced mod d_i per
    class; pack(width) packs the classes."""
    free, torsion, norm = _invariants(cfg)
    packing, k = _fit(pack, norm, len(free))
    shifts = range(0, k * len(free), k)
    combined = [sum(map(lshift, c, shifts)) for c in zip(*free)]
    keys = _values(combined, packing)
    for q, d in torsion:
        keys = map(add, map(mul, keys, repeat(d)), map(mod, _values(q, packing), repeat(d)))
    return tuple(keys)


@lru_cache(maxsize=len(ClassKind))
def _table_parts(cfg: NodalConfig, kind: ClassKind) -> tuple[int, ...]:
    """The congruence keys of a kind's class table, in table order: the
    schemes of one configuration share them.  Keyed by the config's value,
    and bounded to hold one configuration's tables."""
    return _keys(cfg, lt.enumerate_classes(cfg.lattice, kind),
                 partial(_table_packing, cfg.lattice, kind))


def congruence_classes(
    cfg: NodalConfig, classes: list[DivisorClass]
) -> tuple[tuple[DivisorClass, ...], ...]:
    """Partition classes by congruence modulo the integral span of the roots.

    Takes any iterable of classes and checks, on every call, that they are
    all of a single kind.  Parts are sorted internally and by their
    lexicographically minimal representative.
    """
    classes = sorted(classes)
    if len({lt.kind_of(cfg.lattice, c) for c in classes}) > 1:
        raise ValueError("classes of mixed kinds")
    parts: dict[int, list[DivisorClass]] = {}
    for key, c in zip(_keys(cfg, classes, partial(_pack, classes)), classes):
        parts.setdefault(key, []).append(c)
    return tuple(map(tuple, parts.values()))


# Scheme name -> (class kind, required degree, involution).  The scheme is
# the kind's classes modulo N.  With an involution s, the Geiser involution
# (degree 2) or the double-six pairing (degree 3), a point is the pairs
# {c, s(c)} of one coset pair {K, s(K)}.  A point of the even thetas, the
# blow-downs' labels, is the even classes of one coset of the F2 span of the
# roots' labels: no part's labels leave a coset, and the parts join each
# coset's even classes into one; it keys no class table.  The other schemes
# of one configuration share one key list per class table: _table_parts
# caches them, and holds one configuration's tables.  Totals in degree 2 / 3:
# lines 56 / 27, blow-downs 576 / 72, bitangents 28, double sixes 36,
# Aronhold sets 288, even thetas 36.
SCHEMES = {
    "lines": (ClassKind.EXCEPTIONAL, None, None),
    "bitangents": (ClassKind.EXCEPTIONAL, 2, lt.geiser),
    "blowdowns": (ClassKind.BLOWDOWN, None, None),
    "doublesix": (ClassKind.BLOWDOWN, 3, lt.double_six_partner),
    "aronhold": (ClassKind.BLOWDOWN, 2, lt.geiser),
    "eventheta": (ClassKind.BLOWDOWN, 2, None),
}


@lru_cache(maxsize=None)
def _pairs(lat: PicardLattice, name: str) -> tuple[tuple, tuple[int, ...], tuple[int, ...]]:
    """The pairs {c, s(c)} of a pair scheme's class table, in one pass: the
    least class table[i] of each pair and its table indices i < j, as three
    tuples; the table is sorted, so i ascends with the least class."""
    kind, _, involution = SCHEMES[name]
    table = lt.enumerate_classes(lat, kind)
    index = {c: i for i, c in enumerate(table)}
    pairs = [(c, i, j) for i, c in enumerate(table) if i < (j := index[involution(lat, c)])]
    return tuple(map(tuple, zip(*pairs)))


def _theta_cosets(cfg: NodalConfig) -> tuple:
    """(least class, count) of the even classes in each coset of the F2 span
    of the roots' mod2_label masks.  Reduced against pivots of distinct top
    bits, min(v, v ^ p) clearing each, a mask keys its coset.  theta_f2
    loads on first use, so the other schemes never pay for it."""
    from . import theta_f2

    def reduced(v, pivots):
        for p in pivots:
            v = min(v, v ^ p)
        return v

    pivots = []
    for r in cfg.roots:
        if v := reduced(theta_f2.mod2_label(r).mask, pivots):
            pivots.append(v)
    evens = theta_f2.even_classes()
    return _points([reduced(t.mask, pivots) for t in evens], evens)


def _points(keys, members) -> tuple:
    """A point per distinct key, in order of first occurrence: the key's first
    member and the number of its occurrences."""
    first = dict(zip(reversed(keys), reversed(members)))
    counts = Counter(keys)
    return tuple(zip(map(first.__getitem__, counts), counts.values()))


def scheme(cfg: NodalConfig, name: str) -> MultiplicityScheme:
    """The multiplicity scheme `name` of SCHEMES for a configuration.

    Without an involution a point is a congruence class of the table; with
    one, a set of pairs, given by its least class and its size.  A pair
    {c, s(c)} meets just the parts K of c and s(K) of s(c), as
    s(c + n) = s(c) - n, so a point is the pairs of a part pair {K, s(K)},
    keyed by the smaller key.  An even-theta point is the even classes of a
    coset theta + V: the labels of a part c + N lie in mod2_label(c) + V,
    and the parts merge each coset's even classes into one."""
    kind, degree, involution = SCHEMES[name]
    if degree is not None and cfg.lattice.degree != degree:
        raise ValueError(f"{name} scheme requires degree {degree}")
    if name == "eventheta":
        return MultiplicityScheme(_theta_cosets(cfg))
    keys = _table_parts(cfg, kind)
    if involution is None:
        return MultiplicityScheme(_points(keys, lt.enumerate_classes(cfg.lattice, kind)))
    least, left, right = _pairs(cfg.lattice, name)
    pair_keys = map(min, map(keys.__getitem__, left), map(keys.__getitem__, right))
    return MultiplicityScheme(_points(list(pair_keys), least))


# Aliases for bench/workloads.py alone (other code calls scheme); ROADMAP item 2 drops them.
def line_scheme(cfg: NodalConfig) -> MultiplicityScheme:
    return scheme(cfg, "lines")


def blowdown_scheme(cfg: NodalConfig) -> MultiplicityScheme:
    return scheme(cfg, "blowdowns")


def bitangent_scheme(cfg: NodalConfig) -> MultiplicityScheme:
    return scheme(cfg, "bitangents")


def double_six_scheme(cfg: NodalConfig) -> MultiplicityScheme:
    return scheme(cfg, "doublesix")


def aronhold_scheme(cfg: NodalConfig) -> MultiplicityScheme:
    return scheme(cfg, "aronhold")


def even_theta_scheme(cfg: NodalConfig) -> MultiplicityScheme:
    return scheme(cfg, "eventheta")


# The ten coefficient families of degree-2 blow-down classes, in the
# conventional order: upper half (L, 2L, 3L, 4L+, 5L+), then the Geiser
# images (8L, 7L, 6L, 5L-, 4L-).  Signature: (L-degree, sorted E-coefficients).
_PROFILE_FAMILIES = (
    ("L", (1, (0, 0, 0, 0, 0, 0, 0))),
    ("2L-Em-En-Ep", (2, (-1, -1, -1, 0, 0, 0, 0))),
    ("3L-sumE+Ei+Ej-Ek", (3, (-2, -1, -1, -1, -1, 0, 0))),
    ("4L-sumE+Ei-Em-En-Ep", (4, (-2, -2, -2, -1, -1, -1, 0))),
    ("5L-2sumE+2Ei", (5, (-2, -2, -2, -2, -2, -2, 0))),
    ("8L-3sumE", (8, (-3, -3, -3, -3, -3, -3, -3))),
    # Geiser image of the 2L family: -3 on the four complementary indices
    ("7L-2sumE-Ei-Ej-Ek-El", (7, (-3, -3, -3, -3, -2, -2, -2))),
    ("6L-2sumE-Ei-Ej+Ek", (6, (-3, -3, -2, -2, -2, -2, -1))),
    ("5L-sumE-2Ei-Ej-Ek-El", (5, (-3, -2, -2, -2, -1, -1, -1))),
    ("4L-sumE-2Ei", (4, (-3, -1, -1, -1, -1, -1, -1))),
)


@lru_cache(maxsize=None)
def _profile_families(lat: PicardLattice) -> tuple[int, ...]:
    """Each blow-down's row of _PROFILE_FAMILIES, in table order."""
    row = {sig: i for i, (_, sig) in enumerate(_PROFILE_FAMILIES)}
    return tuple(row[(d[0], tuple(sorted(d[1:])))]
                 for d in lt.enumerate_classes(lat, ClassKind.BLOWDOWN))


def intersection_profile(cfg: NodalConfig) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """Frequency table of D.F over the 576 blow-down classes D.

    Requires a single-root (A1) configuration F in degree 2.  Rows are the
    ten coefficient families, columns the intersection numbers 2, 1, 0,
    -1, -2; D.F of every D is read off one packed dot product.
    """
    if cfg.lattice.degree != 2:
        raise ValueError("profile requires degree 2")
    if len(cfg.roots) != 1:
        raise ValueError("profile requires a single A1 root")
    f = cfg.roots[0]
    jf = (f[0],) + tuple(-x for x in f[1:])  # D.F = sum(d_i * jf_i)
    packing, _ = _fit(partial(_table_packing, cfg.lattice, ClassKind.BLOWDOWN),
                      sum(map(abs, jf)), 1)
    half = 1 << (packing.width - 1)
    column = {half + c: j for j, c in enumerate(PROFILE_COLUMNS)}
    table = [[0] * len(PROFILE_COLUMNS) for _ in _PROFILE_FAMILIES]
    counts = Counter(zip(_profile_families(cfg.lattice), _values(jf, packing)))
    for (row, value), count in counts.items():
        table[row][column[value]] += count
    return tuple((name, tuple(row)) for (name, _), row in zip(_PROFILE_FAMILIES, table))


def profile_column_totals(profile) -> tuple[int, ...]:
    return tuple(sum(row[j] for _, row in profile)
                 for j in range(len(PROFILE_COLUMNS)))


def parse_config(text: str) -> NodalConfig:
    """Parse a config file: a `degree <d>` line and one `root <ints>` per root."""
    degree = None
    roots = []
    for lineno, line in data_lines(text):
        head, _, rest = " ".join(line.split()).partition(" ")
        if head == "degree":
            if degree is not None:
                raise ValueError(f"line {lineno}: duplicate degree")
            degree = parse_int(rest)
        elif head == "root":
            roots.append(lt.parse_class(rest))
        else:
            raise ValueError(f"line {lineno}: unknown directive {echo(head)}")
    if degree is None:
        raise ValueError("config file missing degree")
    return NodalConfig(lt.make_lattice(degree), roots)
