"""The F2 algebra of theta characteristics.

Genus-3 model: even-cardinality subsets of {1..8} modulo complement form a
group of order 64 under symmetric difference, here the XOR of 8-bit masks.
The 28 classes with a 2-element representative are the odd theta
characteristics, the other 36 the even ones.  The module provides the syzygy
test, the 288 Aronhold sets built as two S8-orbits, the labeling of degree-2
Picard classes by reduction mod 2 (lines to odd classes, blow-downs to even
ones), and a generic quadratic-form engine over F2 symplectic spaces (Arf
invariant, zero counts, the genus-6 conic-pair count).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, total_ordering
from itertools import combinations

from . import lattice as lt
from .lattice import ClassKind, DivisorClass, PicardLattice
from .text import echo


def _odd(mask: int) -> int:
    """Parity of a class mask: 1 for popcount 2 or 6, 0 for 0 or 4."""
    return (mask.bit_count() >> 1) & 1


@total_ordering
class EvenSubsetClass:
    """An even subset of {1..8} modulo complement, as an 8-bit mask.

    Bit i-1 stands for element i; a subset containing 8 is stored as its
    complement, so bit 7 is never set and the sum of two classes is the XOR
    of their masks.  The 64 classes are built once, at import, with their
    sorted representative `elems` of size <= 4 (a size-4 one contains 1),
    which comparison and sorting use; equal classes are the same object, so
    equality is identity, and hashing reads the mask.  Immutable, and not a
    tuple, which would pass for a Picard class.
    """

    __slots__ = ("mask", "elems")

    def __new__(cls, elems):
        s = set(elems)
        if len(s) % 2 != 0 or not all(isinstance(e, int) and 0 < e < 9 for e in s):
            shown = sorted(s, key=lambda e: (0, e) if isinstance(e, int) else (1, repr(e)))
            raise ValueError(f"not an even subset of 1..8: {echo(shown)}")  # ints, then by repr
        return EvenSubsetClass._from_mask(sum(1 << (e - 1) for e in s))

    @staticmethod
    def _from_mask(mask: int) -> "EvenSubsetClass":
        """The class of an even 8-bit mask: its complement's entry when it holds 8."""
        return _TABLE[mask ^ 0xFF if mask & 0x80 else mask]

    def __setattr__(self, name, value=None):
        raise AttributeError("EvenSubsetClass is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return EvenSubsetClass._from_mask, (self.mask,)

    def __hash__(self) -> int:
        return hash(self.mask)

    def __add__(self, other: "EvenSubsetClass") -> "EvenSubsetClass":
        return _TABLE[self.mask ^ other.mask]

    def __lt__(self, other: "EvenSubsetClass") -> bool:
        return self.elems < other.elems

    @property
    def parity(self) -> int:
        """1 for the 28 odd theta characteristics, 0 for the 36 even ones."""
        return _odd(self.mask)

    def __str__(self) -> str:
        return "{" + ",".join(str(e) for e in self.elems) + "}"


def _entry(mask: int) -> EvenSubsetClass:
    c = object.__new__(EvenSubsetClass)
    rep = min(mask, mask ^ 0xFF, key=lambda m: (m.bit_count(), not m & 1))
    object.__setattr__(c, "mask", mask)
    object.__setattr__(c, "elems", tuple(i + 1 for i in range(8) if (rep >> i) & 1))
    return c


_TABLE = {m: _entry(m) for m in range(128) if m.bit_count() % 2 == 0}
IDENTITY = _TABLE[0]


@lru_cache(maxsize=1)
def all_classes() -> tuple[EvenSubsetClass, ...]:
    return tuple(sorted(_TABLE.values()))


def odd_classes() -> tuple[EvenSubsetClass, ...]:
    return tuple(c for c in all_classes() if c.parity == 1)


def even_classes() -> tuple[EvenSubsetClass, ...]:
    return tuple(c for c in all_classes() if c.parity == 0)


def weil_pair(a: EvenSubsetClass, b: EvenSubsetClass) -> int:
    """Symplectic pairing |A n B| mod 2 (complement-invariant since |A| is even)."""
    return (a.mask & b.mask).bit_count() & 1


def q_theta(theta: EvenSubsetClass, eta: EvenSubsetClass) -> int:
    """Quadratic form attached to theta: parity(theta + eta) + parity(theta)."""
    return _odd(theta.mask ^ eta.mask) ^ _odd(theta.mask)


def syzygetic(t1: EvenSubsetClass, t2: EvenSubsetClass, t3: EvenSubsetClass) -> bool:
    """Whether three distinct odd classes form a syzygetic triple."""
    if len({t1, t2, t3}) != 3:
        raise ValueError("syzygy test needs three distinct classes")
    if any(t.parity != 1 for t in (t1, t2, t3)):
        raise ValueError("syzygy test needs odd classes")
    # q_t1(t2 + t3) = parity(t1 + t2 + t3) + 1 vanishes iff the sum is odd
    return _odd(t1.mask ^ t2.mask ^ t3.mask) == 1


@lru_cache(maxsize=1)
def enumerate_aronhold() -> tuple[tuple[EvenSubsetClass, ...], ...]:
    """All 7-sets of odd classes whose triples are all asyzygetic (288 sets).

    With hx the odd class {h, x}, they are two S8-orbits (Dolgachev,
    Classical Algebraic Geometry, ch. 6): the 8 stars {hx : x != h}, and for
    each h and each triangle t of the other seven elements the 280 sets
    {hx : x not in t} plus the three pairs inside t.  Sorted, sets and members.
    """
    sets = []
    for h in range(1, 9):
        spokes = {x: (min(h, x), max(h, x)) for x in range(1, 9) if x != h}
        sets.append(list(spokes.values()))
        for t in combinations(spokes, 3):
            sets.append([p for x, p in spokes.items() if x not in t]
                        + list(combinations(t, 2)))
    # a pair's sorted tuple is its class's elems, so sorting pairs sorts classes
    odd = lambda pair: EvenSubsetClass._from_mask(1 << pair[0] - 1 | 1 << pair[1] - 1)
    return tuple(tuple(map(odd, s)) for s in sorted(map(sorted, sets)))


@lru_cache(maxsize=1)
def _aronhold_index() -> dict[int, EvenSubsetClass]:
    """The even class of each set of enumerate_aronhold, keyed by the OR of
    1 << mask over its members (their sum, as they are distinct)."""
    return {sum(1 << t.mask for t in s): sum(s, IDENTITY) for s in enumerate_aronhold()}


def even_theta_of_aronhold(aronhold: tuple[EvenSubsetClass, ...]) -> EvenSubsetClass:
    """Even class attached to an Aronhold set, in any order: the sum of its
    seven members, looked up among the sets of enumerate_aronhold."""
    if len(aronhold) != 7:  # eight members repeating one of a set have its key
        raise ValueError("expected seven distinct odd classes")
    key = 0
    for t in aronhold:
        key |= 1 << t.mask
    if (even := _aronhold_index().get(key)) is None:
        raise ValueError("not an Aronhold set")
    return even


def mod2_label(d: DivisorClass) -> EvenSubsetClass:
    """Theta class of a degree-2 class (a; b_1..b_7): {i : b_i odd}, plus 8
    when that set is odd.  Lines go to odd classes (E_i, D_i to {i, 8};
    L_ij, C_ij to {i, j}), blow-downs to the sum over their seven contracted
    lines.  Geiser partners agree: K = (-3; 1..1) has every b_i odd."""
    m = sum(1 << i for i, b in enumerate(d[1:]) if b & 1)
    return EvenSubsetClass._from_mask(m | (m.bit_count() & 1) << 7)


def even_theta_of_blowdown(lat: PicardLattice, blowdown: DivisorClass) -> EvenSubsetClass:
    """Even theta characteristic of a degree-2 blow-down class: its mod2_label,
    the even class of the Aronhold set of its seven contracted lines."""
    if lat.degree != 2:
        raise ValueError("blow-down labeling requires degree 2")
    if lt.kind_of(lat, blowdown) is not ClassKind.BLOWDOWN:
        raise ValueError("not a blow-down class")
    return mod2_label(blowdown)


# ---------------------------------------------------------------------------
# Generic quadratic forms on F2 symplectic spaces.

class QuadraticSpace(namedtuple("QuadraticSpace", "dim rows")):
    """Quadratic form q(v) = sum over i, j < dim of B[i][j] v_i v_j on F2^dim.

    Vectors are int bitmasks, row i of any bit matrix B is rows[i], and the
    constructor (also under _make and _replace) checks 0 <= dim <= len(rows);
    rows and bits past dim are ignored.  `make_space` builds upper-triangular
    B refining `bilinear`, the standard pairing of (e_0, e_1), (e_2, e_3), ...
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, dim, rows):
        rows = tuple(rows)
        if dim < 0 or len(rows) < dim:
            raise ValueError(f"dimension {dim} needs 0 <= dim <= len(rows) = {len(rows)}")
        return super().__new__(cls, dim, rows)

    def evaluate(self, v: int) -> int:
        r = 0
        for i in range(self.dim):
            if (v >> i) & 1:
                r ^= (self.rows[i] & v).bit_count() & 1
        return r

    def bilinear(self, u: int, v: int) -> int:
        """Standard symplectic pairing sum(u_2i v_2i+1 + u_2i+1 v_2i)."""
        r = 0
        for i in range(0, self.dim, 2):
            r ^= ((u >> i) & (v >> (i + 1)) & 1) ^ ((u >> (i + 1)) & (v >> i) & 1)
        return r

    def shift(self, eta: int) -> "QuadraticSpace":
        """The form q + <., eta>, adding the linear part on the diagonal.

        Under the standard pairing <e_j, eta> is bit j ^ 1 of eta.
        """
        rows = list(self.rows)
        for j in range(self.dim):
            rows[j] ^= ((eta >> (j ^ 1)) & 1) << j
        return QuadraticSpace(self.dim, rows)


MAX_COUNT_DIM = 1000  # at 1000 the zero count has 301 digits


def make_space(g: int, arf_invariant: int = 0) -> QuadraticSpace:
    """Standard form of dimension 2g: sum(x_2i x_2i+1), plus x_0 + x_1 if odd.

    The 2g rows hold about g^2 bits, so 2g above MAX_COUNT_DIM raises
    ValueError before any row is built.
    """
    if g < 1:
        raise ValueError("g must be >= 1")
    if 2 * g > MAX_COUNT_DIM:
        raise ValueError(f"dimension {2 * g} exceeds {MAX_COUNT_DIM}")
    if arf_invariant not in (0, 1):
        raise ValueError("Arf invariant must be 0 or 1")
    dim = 2 * g
    rows = [0] * dim
    for i in range(0, dim, 2):
        rows[i] |= 1 << (i + 1)
    if arf_invariant:
        rows[0] |= 1
        rows[1] |= 1 << 1
    return QuadraticSpace(dim, rows)


def _witt(space: QuadraticSpace) -> tuple[int, int, int, int]:
    """Witt decomposition of q: (h, r, q on the radical, Arf of the pairs).

    The polar form of q(v) = sum over i, j < dim of B[i][j] v_i v_j is
    <e_i, e_j> = B[i][j] + B[j][i] for i != j, and q(e_i) = B[i][i].  Pop
    e, pair it with the first f such that <e, f> = 1, add q(e)q(f) to the
    invariant and project every other v to v + <v, f>e + <v, e>f, which has
    q(v) + <v, f>q(e) + <v, e>q(f) + <v, f><v, e>.  Each vector is kept as
    its row of pairings, a bitmask.  A vector that pairs with nothing left
    spans the radical with the others like it; the third entry is 1 when
    q is nonzero there.
    """
    n, rows = space.dim, space.rows
    if n > MAX_COUNT_DIM:
        raise ValueError(f"count limited to dimension {MAX_COUNT_DIM}")
    q = [(rows[i] >> i) & 1 for i in range(n)]
    full = (1 << n) - 1
    gram = [rows[i] & full & ~(1 << i) for i in range(n)]
    for i, m in enumerate(gram[:]):  # add the transpose, bit by bit
        while m:
            low = m & -m
            gram[low.bit_length() - 1] ^= 1 << i
            m ^= low
    h = r = odd = invariant = 0
    for e, pe in enumerate(gram):
        if pe is None:  # paired already
            continue
        if not pe:
            r += 1
            odd |= q[e]
            continue
        low = pe & -pe
        f = low.bit_length() - 1
        pf, qe, qf = gram[f], q[e], q[f]
        gram[f] = None
        h += 1
        invariant ^= qe & qf
        m = (pe | pf) ^ low ^ (1 << e)
        while m:
            bit = m & -m
            m ^= bit
            v = bit.bit_length() - 1
            with_f, with_e = pf & bit, pe & bit
            if with_f:
                gram[v] ^= pe
                q[v] ^= qe
            if with_e:
                gram[v] ^= pf
                q[v] ^= qf
            if with_f and with_e:
                q[v] ^= 1
    return h, r, odd, invariant


def count_zeros(space: QuadraticSpace) -> int:
    """Number of vectors with q(v) = 0, from the Witt decomposition.

    Half of F2^dim if q is nonzero on the radical, else 2^r times the
    count 2^{2h-1} + (-1)^arf 2^{h-1} on the h hyperbolic pairs.
    """
    h, r, odd, invariant = _witt(space)
    if odd:
        return 1 << (space.dim - 1)
    if not h:
        return 1 << r
    sign = -1 if invariant else 1
    return ((1 << (2 * h - 1)) + sign * (1 << (h - 1))) << r


def arf(space: QuadraticSpace) -> int:
    """Arf invariant: 0 if q has 2^{2g-1} + 2^{g-1} zeros, 1 if it has
    2^{2g-1} - 2^{g-1}; a degenerate form (r > 0) raises."""
    _, r, _, invariant = _witt(space)
    if r:
        raise ValueError("form is not nondegenerate")
    return invariant


def count_conic_pairs(rng=None) -> tuple[int, int, int]:
    """Genus-6 count of totally tangent conic pairs.

    Returns (intermediate, |Z|, |Z|/2) where Z is the common zero set of
    two odd forms q1 and q2 = q1 + <., eta> (eta a nonzero q1-zero), minus
    {0, eta}, and intermediate counts the zero classes of the form induced
    on the quotient eta-perp / eta.  The result (496, 990, 495) is
    independent of the admissible choice; a random.Random rng randomizes it.

    q2 vanishes exactly where q1 = <., eta>: on A, the zeros of q1 inside
    eta-perp, and off eta-perp where q1 is 1.  Off eta-perp lies half of
    F2^dim, so the zero counts of q1 and q2 sum to 2|A| + 2^(dim-1).  A
    pairs off as {v, v + eta}.
    """
    q1 = make_space(6, arf_invariant=1)
    if rng is None:
        eta = next(v for v in range(1, 1 << q1.dim) if q1.evaluate(v) == 0)
    else:
        # a random odd form: shift by a zero vector (preserves the Arf class);
        # about half of all vectors are zeros, so each loop takes about two draws
        while q1.evaluate(shift := rng.randrange(1 << q1.dim)):
            pass
        q1 = q1.shift(shift)
        while q1.evaluate(eta := rng.randrange(1, 1 << q1.dim)):
            pass
    q2 = q1.shift(eta)
    common = (count_zeros(q1) + count_zeros(q2) - (1 << (q1.dim - 1))) // 2
    return common // 2, common - 2, common // 2 - 1
