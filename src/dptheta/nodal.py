"""ADE degenerations of Del Pezzo surfaces and their multiplicity schemes.

A configuration of effective (-2)-classes spans a negative definite root
sublattice N of the Picard lattice.  By Smith's theorem that holds exactly
when each component of the pairing graph is an ADE diagram: a path (A_n),
or a tree whose one branch vertex has arms of (1, 1, k) vertices (D_{k+3})
or of (1, 2, 2), (1, 2, 3), (1, 2, 4) vertices (E6, E7, E8).

Exceptional and blow-down classes that become congruent modulo N coalesce;
the multiplicity of a point of the resulting scheme is the size of its
congruence class.  Labelling classes by their pair under the Geiser
involution (degree 2) or the double-six pairing (degree 3), or by their
even theta characteristic, and merging the labels that one congruence
class meets gives the schemes of bitangents, Aronhold sets, double sixes
and even theta characteristics of the branch curve.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from operator import mul

from . import lattice as lt
from .kernels import components
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
    pair to 0 or 1, and the integral span is negative definite.  The Gram
    matrix is A - 2I for the adjacency matrix A of the pairing graph, so by
    Smith's theorem that holds exactly when each component is a path (A_n)
    or a tree whose one branch vertex has arms of (1, 1, k) vertices
    (D_{k+3}) or of (1, 2, 2), (1, 2, 3), (1, 2, 4) vertices (E6, E7, E8).
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
    pairing = {(i, j): lt.pair(lat, roots[i], roots[j])
               for i in range(n) for j in range(i + 1, n)}
    for (i, j), p in pairing.items():
        if p not in (0, 1):
            raise ValueError(f"pairing {p} of {echo(roots[i])} and "
                             f"{echo(roots[j])} not in {{0, 1}}")
    edges = [e for e, p in pairing.items() if p]
    nbrs = [[j for e in edges if i in e for j in e if j != i] for i in range(n)]
    comps: dict[int, list[int]] = {}
    for i, label in enumerate(components(n, edges)):
        comps.setdefault(label, []).append(i)
    names = []
    for verts in comps.values():
        branch = [i for i in verts if len(nbrs[i]) > 2]
        tree = sum(len(nbrs[i]) for i in verts) == 2 * len(verts) - 2
        arms = ()
        if tree and len(branch) == 1:  # arm sizes: the paths left without the branch vertex
            cut = components(n, [e for e in edges if branch[0] not in e])
            arms = tuple(sorted(cut.count(cut[j]) for j in nbrs[branch[0]]))
        if tree and not branch:
            family = "A"
        elif len(arms) == 3 and arms[1] == 1:
            family = "D"
        elif arms in ((1, 2, 2), (1, 2, 3), (1, 2, 4)):
            family = "E"
        else:
            raise ValueError("root span is not negative definite")
        names.append(f"{family}{len(verts)}")
    return "+".join(sorted(names, key=lambda s: (s[0], int(s[1:]))))


def _echelon(roots) -> list[tuple[int, int, list[tuple[int, int]]]]:
    """Integer echelon basis of the span of the roots.

    Column by column, Euclid's algorithm on the rows not yet used leaves one
    row with a positive pivot and clears the column in all the others
    (Cohen, A Course in Computational Algebraic Number Theory, 2.4).  Each
    row is returned sparse, as (pivot column, pivot, its nonzero
    (column, entry) pairs); the row is zero left of its pivot.
    """
    rows = [list(r) for r in roots]
    basis = []
    for col in range(len(rows[0]) if rows else 0):
        live = [r for r in rows if r[col]]
        while len(live) > 1:
            piv = min(live, key=lambda r: abs(r[col]))
            for r in live:
                if r is not piv:
                    q = r[col] // piv[col]
                    for k in range(col, len(r)):
                        r[k] -= q * piv[k]
            live = [r for r in live if r[col]]
        if live:
            piv = live[0]
            if piv[col] < 0:
                piv[:] = [-x for x in piv]
            basis.append((col, piv[col], [(k, x) for k, x in enumerate(piv) if x]))
            rows = [r for r in rows if r is not piv]
    return basis


def _coset_key(basis, v: DivisorClass) -> DivisorClass:
    """Canonical representative of v modulo the span of an echelon basis.

    Each pivot coordinate is reduced into [0, p); two classes are congruent
    exactly when their reductions agree.
    """
    v = list(v)
    for col, p, row in basis:
        q = v[col] // p
        if q:
            for k, x in row:
                v[k] -= q * x
    return tuple(v)


def _parts(cfg: NodalConfig, classes) -> tuple[tuple[DivisorClass, ...], ...]:
    """Partition classes modulo the root span, trusting them sorted and of one
    kind, as a class table is: each part fills in order, parts by first member."""
    basis = _echelon(cfg.roots)
    parts: dict[DivisorClass, list[DivisorClass]] = {}
    for c in classes:
        parts.setdefault(_coset_key(basis, c), []).append(c)
    return tuple(map(tuple, parts.values()))


@lru_cache(maxsize=len(ClassKind))
def _table_parts(cfg: NodalConfig, kind: ClassKind) -> tuple[tuple[DivisorClass, ...], ...]:
    """The class table of a kind partitioned modulo the root span: the schemes
    of one configuration share it.  Keyed by the config's value, and bounded
    to hold one configuration's tables."""
    return _parts(cfg, lt.enumerate_classes(cfg.lattice, kind))


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
    return _parts(cfg, classes)


def _pair(involution):
    """Label a class by the smaller member of its pair {c, s(c)}."""
    return lambda lat, c: min(c, involution(lat, c))


def _even_theta(lat: PicardLattice, c: DivisorClass):
    """Label a blow-down by its even theta characteristic.  scheme() has
    checked the degree and labels the blow-down table itself, so the
    per-class checks of even_theta_of_blowdown would prove nothing.
    theta_f2 loads on first use, so the other schemes never pay for it."""
    from . import theta_f2

    return theta_f2.mod2_label(c)


# Scheme name -> (class kind, required degree, label).  The scheme is the
# kind's classes modulo N; with a label, the labels met by one congruence
# part merge, and a point counts the labels it absorbs.  The schemes of one
# configuration share one partition per class table: _table_parts caches
# them, and holds one configuration's tables.  A pair {c, s(c)}
# under the Geiser involution (degree 2) or the double-six pairing
# (degree 3) is a label, as is a blow-down's even theta characteristic.
# Totals in degree 2 / 3: lines 56 / 27, blow-downs 576 / 72, bitangents 28,
# double sixes 36, Aronhold sets 288, even thetas 36.
SCHEMES = {
    "lines": (ClassKind.EXCEPTIONAL, None, None),
    "bitangents": (ClassKind.EXCEPTIONAL, 2, _pair(lt.geiser)),
    "blowdowns": (ClassKind.BLOWDOWN, None, None),
    "doublesix": (ClassKind.BLOWDOWN, 3, _pair(lt.double_six_partner)),
    "aronhold": (ClassKind.BLOWDOWN, 2, _pair(lt.geiser)),
    "eventheta": (ClassKind.BLOWDOWN, 2, _even_theta),
}


@lru_cache(maxsize=None)
def _labels(lat: PicardLattice, name: str):
    """The distinct labels of a scheme, and each class's index among them."""
    kind, _, label = SCHEMES[name]
    of_class = {c: label(lat, c) for c in lt.enumerate_classes(lat, kind)}
    distinct = sorted(set(of_class.values()))
    index = {x: i for i, x in enumerate(distinct)}
    return tuple(distinct), {c: index[x] for c, x in of_class.items()}


def scheme(cfg: NodalConfig, name: str) -> MultiplicityScheme:
    """The multiplicity scheme `name` of SCHEMES for a configuration."""
    kind, degree, label = SCHEMES[name]
    if degree is not None and cfg.lattice.degree != degree:
        raise ValueError(f"{name} scheme requires degree {degree}")
    parts = _table_parts(cfg, kind)
    if label is None:
        return MultiplicityScheme(tuple((p[0], len(p)) for p in parts))
    distinct, index = _labels(cfg.lattice, name)
    joins = [(index[p[0]], index[c]) for p in parts for c in p[1:]]
    groups: dict[int, list] = {}
    for x, comp in zip(distinct, components(len(distinct), joins)):
        groups.setdefault(comp, []).append(x)
    return MultiplicityScheme(tuple(sorted((min(g), len(g)) for g in groups.values())))


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


def intersection_profile(cfg: NodalConfig) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """Frequency table of D.F over the 576 blow-down classes D.

    Requires a single-root (A1) configuration F in degree 2.  Rows are the
    ten coefficient families, columns the intersection numbers 2, 1, 0,
    -1, -2.
    """
    if cfg.lattice.degree != 2:
        raise ValueError("profile requires degree 2")
    if len(cfg.roots) != 1:
        raise ValueError("profile requires a single A1 root")
    f = cfg.roots[0]
    jf = (f[0],) + tuple(-x for x in f[1:])  # D.F = sum(d_i * jf_i)
    column = {c: j for j, c in enumerate(PROFILE_COLUMNS)}
    table = {name: [0] * len(PROFILE_COLUMNS) for name, _ in _PROFILE_FAMILIES}
    sig_to_name = {sig: name for name, sig in _PROFILE_FAMILIES}
    for d in lt.enumerate_classes(cfg.lattice, ClassKind.BLOWDOWN):
        name = sig_to_name[(d[0], tuple(sorted(d[1:])))]
        table[name][column[sum(map(mul, d, jf))]] += 1
    return tuple((name, tuple(table[name])) for name, _ in _PROFILE_FAMILIES)


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
