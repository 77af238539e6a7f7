"""Cartan matrices, finite Weyl groups and the right weak order.

Groups are realized through the integer reflection representation on
simple-root coordinates: the generator s_i sends alpha_j to
alpha_j - c_{ji} alpha_i.  The right weak order is generated by
breadth-first search from the identity along ascents, one length level at
a time, with each element w held as the integer vector v = w^{-1} rho in
fundamental-weight coordinates (rho = (1, ..., 1)).  Since l(w s_i) >
l(w) iff w(alpha_i) > 0, the ascents of w are the i with v_i > 0, and
w s_i has the vector v - v_i * (row i of the Cartan matrix), i.e. s_i v
with alpha_i in weight coordinates.  rho is regular, so distinct elements
have distinct vectors.  Each vector packs into one int64 key by mixed
radix, and a key moves along the same rule, so each level is deduplicated
by one sort of the keys of its products.  A product over an ascent is one
longer, so no element can repeat across levels.  The search keeps the tree
of first parents and generators and makes no per-element Python object.

The covers are kept once, as the table of right descents: x s_i for each
generator s_i and each x with descent i.  Every rank-2 interval of the weak
order is a coset x W_ij, a 2 m_ij-gon (Bjorner-Brenti, GTM 231, 3.2), and a
face certificate checks exactly that on the table.  The order and its
opposite are returned as a _WeylLattice, the FiniteLattice held by that
tree and table alone; matrices are built from the element names only when
an element is asked for.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BudgetError, ConsistencyError
from .lattice import FiniteLattice, _narrow
from .quiver import _integer

__all__ = [
    "CartanData",
    "WeylElement",
    "WeakOrder",
    "cartan_matrix",
    "coxeter_exponent",
    "weyl_order",
    "identity_element",
    "apply_generator",
    "multiply",
    "inverse",
    "is_ascent",
    "weak_order",
    "longest_element",
    "parabolic_longest",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 60000


def _degrees(family: str, rank: int) -> tuple[int, ...]:
    """The degrees of the basic invariants of the Weyl group of a Dynkin
    type (Humphreys, Reflection Groups and Coxeter Groups, 3.7): their
    product is the group order and their maximum the Coxeter number."""
    if family == "A":
        return tuple(range(2, rank + 2))
    if family in ("B", "C"):
        return tuple(range(2, 2 * rank + 1, 2))
    if family == "D":
        return (*range(2, 2 * rank - 1, 2), rank)
    return {("E", 6): (2, 5, 6, 8, 9, 12), ("E", 7): (2, 6, 8, 10, 12, 14, 18),
            ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30), ("F", 4): (2, 6, 8, 12),
            ("G", 2): (2, 6)}[family, rank]


def _coxeter_number(family: str, rank: int) -> int:
    """h, the order of a Coxeter element; the highest root has height h - 1."""
    return max(_degrees(family, rank))


def _check_type_rank(family: str, rank: int) -> int:
    """The rank as an int; ValueError unless family and rank name a Dynkin type."""
    rank = _integer(rank, "rank")
    ok = {
        "A": rank >= 1,
        "B": rank >= 2,
        "C": rank >= 2,
        "D": rank >= 4,
        "E": rank in (6, 7, 8),
        "F": rank == 4,
        "G": rank == 2,
    }.get(family)
    if not ok:
        raise ValueError(f"invalid Dynkin type {family}{rank}")
    return rank


_SYMMETRIZER_PATTERN = {
    "A": lambda n: [1] * n,
    "D": lambda n: [1] * n,
    "E": lambda n: [1] * n,
    "B": lambda n: [2] * (n - 1) + [1],
    "C": lambda n: [1] * (n - 1) + [2],
    "F": lambda n: [2, 2, 1, 1],
    "G": lambda n: [3, 1],
}


@dataclass(frozen=True, eq=False)
class CartanData:
    """Dynkin type, Cartan matrix and a symmetrizer D = c * pattern."""

    family: str
    rank: int
    cartan: np.ndarray
    symmetrizer_diag: tuple[int, ...]
    multiplier: int = 1

    @cached_property
    def _gens(self) -> tuple[np.ndarray, ...]:
        # reflection matrices of the generators, built on first use: column j
        # of S_i is the image alpha_j - c_{ji} alpha_i
        gens = []
        for i in range(self.rank):
            m = np.eye(self.rank, dtype=np.int64)
            m[i] -= self.cartan[:, i]
            m.flags.writeable = False
            gens.append(m)
        return tuple(gens)

    @property
    def minimal(self) -> bool:
        return self.multiplier == 1

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"

    def edges(self) -> list[tuple[int, int]]:
        """Dynkin diagram edges {i, j} as 1-based pairs with i < j."""
        c = self.cartan
        return [
            (i + 1, j + 1)
            for i in range(self.rank)
            for j in range(i + 1, self.rank)
            if c[i, j] != 0
        ]


def _diagram_edges(family: str, rank: int) -> list[tuple[int, int, int, int]]:
    """(i, j, c_ij, c_ji) per edge of the diagram, vertices 1-based."""
    n = rank
    single = lambda i, j: (i, j, -1, -1)
    if family == "A":
        return [single(i, i + 1) for i in range(1, n)]
    if family == "B":
        # double edge n-1 => n
        return [single(i, i + 1) for i in range(1, n - 1)] + [(n - 1, n, -1, -2)]
    if family == "C":
        # double edge n => n-1
        return [single(i, i + 1) for i in range(1, n - 1)] + [(n, n - 1, -1, -2)]
    if family == "D":
        return [single(i, i + 1) for i in range(1, n - 2)] + [
            single(n - 2, n - 1),
            single(n - 2, n),
        ]
    if family == "E":
        # 1-2-3-5-6(-7)(-8) with the branch 3-4
        chain = [1, 2, 3] + list(range(5, n + 1))
        return [single(a, b) for a, b in zip(chain, chain[1:])] + [single(3, 4)]
    if family == "F":
        return [single(1, 2), (2, 3, -1, -2), single(3, 4)]
    # G2: triple edge 1 => 2
    return [(1, 2, -1, -3)]


def cartan_matrix(family: str, rank: int, multiplier: int = 1) -> CartanData:
    """Cartan matrix of the Dynkin diagram with its symmetrizer.

    multiplier=1 gives the minimal symmetrizer.
    """
    rank = _check_type_rank(family, rank)
    multiplier = _integer(multiplier, "symmetrizer multiplier")
    if multiplier < 1:
        raise ValueError("symmetrizer multiplier must be >= 1")
    c = 2 * np.eye(rank, dtype=np.int64)
    for i, j, cij, cji in _diagram_edges(family, rank):
        c[i - 1, j - 1] = cij
        c[j - 1, i - 1] = cji
    diag = tuple(multiplier * d for d in _SYMMETRIZER_PATTERN[family](rank))
    c.flags.writeable = False
    return CartanData(family, rank, c, diag, multiplier)


# m_ij indexed by c_ij * c_ji: 0, 1, 2, 3 off the diagonal, 4 on it
_ORDER_OF_PRODUCT = np.array([2, 3, 4, 6, 1])


def _coxeter_matrix(cartan: CartanData) -> np.ndarray:
    """The orders m_ij of s_i s_j (0-based), read off the Cartan entries."""
    return _ORDER_OF_PRODUCT[cartan.cartan * cartan.cartan.T]


def coxeter_exponent(cartan: CartanData, i: int, j: int) -> int:
    """Order m_ij of s_i s_j, read off the Cartan entries."""
    i, j = _generator(cartan.rank, i), _generator(cartan.rank, j)
    return int(_coxeter_matrix(cartan)[i - 1, j - 1])


def weyl_order(family: str, rank: int) -> int:
    """Order of the Weyl group: the product of its degrees."""
    return math.prod(_degrees(family, _check_type_rank(family, rank)))


@dataclass(frozen=True, eq=False)
class WeylElement:
    """Group element as an integer matrix on simple-root coordinates.

    word is one reduced word (1-based generator indices); length equals
    both len(word) and the number of positive roots sent negative.
    """

    mat: np.ndarray
    word: tuple[int, ...] = ()

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=np.int64)
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)

    @property
    def length(self) -> int:
        return len(self.word)

    def key(self) -> bytes:
        return self.mat.tobytes()

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return np.array_equal(self.mat, other.mat)

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"WeylElement(word={''.join(map(str, self.word)) or 'e'})"


def identity_element(cartan: CartanData) -> WeylElement:
    return WeylElement(np.eye(cartan.rank, dtype=np.int64), ())


def is_ascent(w: WeylElement, i: int) -> bool:
    """True iff l(w s_i) = l(w) + 1, i.e. w(alpha_i) is a positive root."""
    col = w.mat[:, _generator(w.mat.shape[0], i) - 1]
    return bool((col >= 0).all())


def _generator(rank: int, i) -> int:
    i = _integer(i, "generator index")
    if not 1 <= i <= rank:
        raise ValueError(f"generator index {i} out of range")
    return i


def _read_word(cartan: CartanData, mat: np.ndarray) -> WeylElement:
    """mat as a WeylElement, with a reduced word read by stripping right
    descents (columns with a negative entry) down to the identity."""
    gens, m, word = cartan._gens, mat, []
    while (descents := np.flatnonzero((m < 0).any(axis=0))).size:
        word.append(int(descents[0]) + 1)
        m = m @ gens[descents[0]]
    return WeylElement(mat, tuple(reversed(word)))


def apply_generator(cartan: CartanData, w: WeylElement, i: int) -> WeylElement:
    """Right multiplication w * s_i; the length moves by exactly one."""
    i = _generator(cartan.rank, i)
    mat = w.mat @ cartan._gens[i - 1]
    if is_ascent(w, i):
        return WeylElement(mat, w.word + (i,))
    return _read_word(cartan, mat)


def multiply(cartan: CartanData, a: WeylElement, b: WeylElement) -> WeylElement:
    """Group product a * b with a valid reduced word on the result."""
    return _read_word(cartan, a.mat @ b.mat)


def inverse(cartan: CartanData, w: WeylElement) -> WeylElement:
    """Inverse; the reversed word is reduced since generators are involutions."""
    return _from_word(cartan, tuple(reversed(w.word)))


def _from_word(cartan: CartanData, word: tuple[int, ...]) -> WeylElement:
    """The product of the generators in a reduced word."""
    mat = np.eye(cartan.rank, dtype=np.int64)
    for i in word:
        mat = mat @ cartan._gens[i - 1]
    return WeylElement(mat, word)


@dataclass
class WeakOrder:
    """Right weak order of a Weyl group, as a lattice plus element lookup.

    Each element name is its lex-minimal reduced word, one digit per
    generator, so names are unambiguous up to rank 9, and weak_order
    refuses a higher rank.  The lattice names its elements on the first
    read of lattice.elements (or of elements here); its size, covers count,
    extremes, FP dimension and single-element queries build no name list.
    element(name) walks the name down the BFS tree and builds one matrix
    from it, with no dict of every element (0.1-0.2 ms on E6, where the
    dict took 0.24-0.31 s and 40 MB).
    """

    cartan: CartanData
    lattice: FiniteLattice

    @property
    def order(self) -> int:
        return len(self.lattice)

    @cached_property
    def elements(self) -> dict[str, WeylElement]:
        """WeylElements by name, in declaration order, built on first use:
        a name's matrix is its prefix's matrix times one generator."""
        gens = self.cartan._gens
        out = {"e": identity_element(self.cartan)}
        for name in self.lattice.elements[1:]:
            prefix, i = out[name[:-1] or "e"], int(name[-1])
            out[name] = WeylElement(prefix.mat @ gens[i - 1], prefix.word + (i,))
        return out

    def element(self, name: str) -> WeylElement:
        """The element named name, built from its word alone; the lattice
        checks the name (ValueError on an unknown one)."""
        self.lattice.index(name)
        word = str(name)
        return _from_word(self.cartan, () if word == "e" else tuple(map(int, word)))


def _first_occurrences(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For a nonempty array of non-negative integer keys: the positions of the
    first occurrences of the distinct keys, in increasing order, and for each
    position the index among them of its key's first occurrence.

    One stable sort finds the runs of equal keys.  While every key << b fits
    63 bits, b the bit width of a position, it sorts keys << b | position,
    which numpy does many times faster than it argsorts the keys; the packed
    keys take one int64 buffer, shifted, or'ed and sorted in place, which
    then holds the permutation."""
    size = len(keys)
    shift = (size - 1).bit_length()
    if int(keys.max()) >> (63 - shift) == 0:
        perm = keys.astype(np.int64)
        perm <<= shift
        perm |= np.arange(size)
        perm.sort()
        sorted_keys = perm >> shift
        perm &= (1 << shift) - 1
    else:
        perm = np.argsort(keys, kind="stable")
        sorted_keys = keys[perm]
    new = np.ones(size, dtype=bool)  # the first of each run of equal sorted keys
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new[1:])
    del sorted_keys
    is_first = np.zeros(size, dtype=bool)
    is_first[perm[new]] = True
    index = np.empty(size, dtype=np.int64)
    index[perm] = (np.cumsum(is_first) - 1)[perm[new]][np.cumsum(new) - 1]
    return np.flatnonzero(is_first), index


def _weak_order_covers(cartan: CartanData, budget: int):
    """Level-batched BFS of (W, <=_R) from the identity along ascents.

    Elements are numbered in declaration order: BFS order, and within a
    level the order in which they are first reached, scanning the previous
    level in order and each element's ascents by generator, which is lex
    order of the words, so parent is sorted.  Returns the BFS tree, (parent,
    gen): element k > 0 is parent[k] s_i for the 0-based generator i = gen[k],
    parent[k] the element that first reached it, and parent[0] is -1;
    read back along the tree, the generators spell the lex-minimal reduced
    word that names k (_word).  Then the int32 descent table down,
    one row per generator: down[i, x] is x s_i where i is a right descent
    of x, else -1, and one more column of -1 follows the elements, so a walk
    that steps onto -1 stays there.  Each level is scattered straight into
    it, one entry per cover (x s_i, x); no other copy of the covers is kept.
    Indices are int32 (|E8| < 2^31) and generators int8.

    Each element is its vector v = w^{-1} rho (module docstring), and a
    level is deduplicated on one int64 key per vector.  v_i = <rho, b> for
    the coroot b = w alpha_i^vee, so |v_i| is at most the height h - 1 of
    the highest coroot (h the Coxeter number), and the digits v_i + h - 1 in
    radix 2h - 1 pack v into a key below (2h - 1)^rank, at most 59^8 < 2^48
    (E8) up to rank 9.  Names take one digit per generator, so a rank above
    9 raises BudgetError, as does a group order above the budget, both
    before any work; the element and cover counts, the entries of the table
    and the rank-2 faces (_check_faces) are certified before it is returned.
    """
    rank, total = cartan.rank, weyl_order(cartan.family, cartan.rank)
    if total > budget:
        raise BudgetError(
            f"weak order of {cartan.name} needs {total} elements, budget is {budget}"
        )
    if rank > 9:
        raise BudgetError(f"weak order of {cartan.name}: rank {rank} is above 9, the largest "
                          "rank whose element names take one digit per generator")
    h = _coxeter_number(cartan.family, rank)
    radix = (2 * h - 1) ** np.arange(rank, dtype=np.int64)
    # key(v - v_i C_i) = key(v) - v_i * step[i] for row C_i of the Cartan matrix
    step = cartan.cartan @ radix
    parent = np.full(total, -1, dtype=np.int32)
    gen = np.full(total, -1, dtype=np.int8)
    down = np.full((rank, total + 1), -1, dtype=np.int32)
    # w -> w w0 turns the ascents of w into descents, so half of all
    # (element, generator) pairs are covers
    n_covers = total * rank // 2
    vecs = np.ones((1, rank), dtype=np.int64)
    keys = vecs @ radix + (h - 1) * radix.sum()
    start, n, k = 0, 1, 0  # the last level holds elements start..n-1; k covers so far
    while True:
        src, g = np.nonzero(vecs > 0)
        if not len(src):
            break
        prods = keys[src] - vecs[src, g] * step[g]
        first, slot = _first_occurrences(prods)
        down[g, slot + n] = src + start
        src, g = src[first], g[first]
        parent[n:n + len(first)], gen[n:n + len(first)] = src + start, g
        vecs = vecs[src] - vecs[src, g][:, None] * cartan.cartan[g]
        keys = prods[first]
        start, n, k = n, n + len(first), k + len(prods)
    if (n, k) != (total, n_covers):
        raise AssertionError(f"BFS found {n} elements and {k} covers of {cartan.name}, "
                             f"expected {total} and {n_covers}")
    if np.count_nonzero(down >= 0) != n_covers:
        raise ConsistencyError(f"{cartan.name}: two covers below one element share a label")
    tree = (parent, gen)
    _check_faces(cartan, tree, down)
    return tree, down


def _check_faces(cartan: CartanData, tree, down: np.ndarray) -> None:
    """Face certificate of a weak order from its descent table: for every
    element x and descents i < j of x, the alternating words s_i s_j ... and
    s_j s_i ... of length m_ij step down at every letter and end at one
    element, so the rank-2 interval below x is the 2 m_ij-gon x W_ij.  All
    elements are walked at once per pair; a failure raises ConsistencyError
    naming the type, the element (its name read off the BFS tree) and the
    pair (1-based)."""
    m = _coxeter_matrix(cartan)
    for i, j in itertools.combinations(range(cartan.rank), 2):
        start = np.flatnonzero((down[i] >= 0) & (down[j] >= 0))
        a, b = start, start
        for step in range(m[i, j]):
            a = down[(i, j)[step % 2]][a]
            b = down[(j, i)[step % 2]][b]
        bad = np.flatnonzero((a < 0) | (a != b))
        if len(bad):
            raise ConsistencyError(
                f"{cartan.name}: the ({i + 1}, {j + 1}) face below "
                f"{_word(tree, start[bad[0]])!r} is not a {2 * m[i, j]}-gon"
            )


# one digit per generator of an element name (_word)
_DIGITS = "123456789"


class _WeylLattice(FiniteLattice):
    """The right weak order of a Weyl group (dual=False) or its opposite,
    held by the BFS tree and the certified descent table of
    _weak_order_covers alone.

    The covers are (x s_i, x) over the ascents i of x, reversed when dual.
    _moves is the table of upper covers: the ascent table up[i, x] = x s_i,
    one scatter of the descent table (_flip), or the descent table itself
    when dual.  So dp(x), column x of _moves, is the x s_i over one set of
    generators i, and Q(x, dp(x)) is the Coxeter graph induced on that set:
    an arrow i -> j exactly when m_ij >= 3 (_arrow; module docstring), with
    no join, no bitset and no per-element list.  The class of x is the set,
    as a rank-bit mask, so there are at most 2^rank classes; two of them can
    share a key, and one can hold one block in several vertex orders.  Their
    first elements come from one scatter of minima into a 2^rank table, and
    _classes maps the key of each, its block in its own sorted dp order
    (_key), to the first of them with that key, in element order.  Only the
    extremes are checked here.

    The elements are the indices of the tree, each named by its lex-minimal
    reduced word, the generators along its tree path, one digit each
    (_word).  _name always walks an index up the tree and index always
    walks a name down it; the name list is built only when elements is
    read, for export.  _dp_of reads column x of _moves, and _ds_of finds
    each lower cover x s_i as the one y with _moves[i, y] == x, one scan of
    a row per generator i with no upper cover of x.  So the extremes, the
    FP dimension, upper_covers, lower_covers and q_of build no name list,
    no cover array and no cover list: on E7, lower_covers of the maximum
    takes about 0.01 s after the FP dimension scan and leaves the peak RSS
    where it was (building every name for it took 1.3-1.7 s and raised the
    peak from about 175 to 620 MB).  Distinct elements have distinct
    (parent, gen), so by induction on the length they have distinct names.
    The cover arrays in BFS scan order (x ascending, then the generator)
    are derived on first read, through a temporary ascent table when dual,
    and so are the per-element cover lists of the sweep, which waits for
    the first order query (leq, join, meet, interval) or Covers[k]; those
    name their results off the tree too.
    """

    def __init__(self, cartan: CartanData, budget: int, dual: bool):
        self._tree, down = _weak_order_covers(cartan, budget)
        self._arrow, self._dual = _coxeter_matrix(cartan) >= 3, dual
        self._moves = down if dual else _flip(down)
        n, rank = down.shape[1] - 1, cartan.rank
        mask = np.zeros(n, dtype=np.int16)
        for i, row in enumerate(self._moves):
            mask |= (row[:n] >= 0) * np.int16(1 << i)
        self._n_dp = _narrow(np.array([k.bit_count() for k in range(1 << rank)]))[mask]
        # every generator is an ascent or a descent of x
        self._n_ds = _narrow(rank - self._n_dp)
        self._set_extremes()
        # the first element of each set: one scatter of the least index
        first = np.full(1 << rank, n, dtype=np.int32)
        np.minimum.at(first, mask, np.arange(n, dtype=np.int32))
        self._classes: dict[tuple[int, int], int] = {}
        for x in np.sort(first[first < n]).tolist():
            self._classes.setdefault(self._key(x), x)

    def __getattr__(self, name):
        # the names and the cover arrays; everything else as on any lattice
        if name == "elements":
            self.elements = _words(self._tree)
        elif name in ("_upper", "_lower"):
            # (x s_i, x) over the ascents i of x, x ascending, then i
            up = (_flip(self._moves) if self._dual else self._moves)[:, :len(self)].T
            shorter = np.repeat(np.arange(len(self), dtype=np.int32),
                                self._n_ds if self._dual else self._n_dp)
            longer = up[up >= 0]
            self._upper, self._lower = (shorter, longer) if self._dual else (longer, shorter)
        else:
            return super().__getattr__(name)
        return self.__dict__[name]

    def _key(self, x: int) -> tuple[int, int]:
        # the arrows over the generators i of the covers x s_i, sorted by x s_i
        col = self._moves[:, x]
        gens = np.flatnonzero(col >= 0)
        gens = gens[np.argsort(col[gens])]
        m = len(gens)
        a, b = np.nonzero(self._arrow[np.ix_(gens, gens)])
        return m, sum(1 << k for k in (a * m + b).tolist())

    def _dp_of(self, x: int) -> list[int]:
        col = self._moves[:, x]
        return sorted(col[col >= 0].tolist())

    def _ds_of(self, x: int) -> list[int]:
        # the lower covers x s_i over the generators i with no upper cover of
        # x, each the one y with _moves[i, y] == x: one scan of row i
        return [int(np.argmax(self._moves[i] == x)) for i in np.flatnonzero(self._moves[:, x] < 0)]

    def _name(self, k) -> str:
        return _word(self._tree, k)

    def index(self, name) -> int:
        # a name walks down the tree: parent is sorted (_weak_order_covers), so
        # the children of x are one run, at most rank long, that a binary search
        # finds, and digit i steps to the one by generator i; memoryviews read
        # plain ints
        word = str(name)
        if word == "e":
            return 0
        if not word:
            raise ValueError(f"unknown element {name!r}")
        parent, gen = map(memoryview, self._tree)
        x = 0
        for i in map(_DIGITS.find, word):
            y = bisect.bisect_left(parent, x)
            while y < len(parent) and parent[y] == x and gen[y] != i:
                y += 1
            if y == len(parent) or parent[y] != x:
                raise ValueError(f"unknown element {name!r}")
            x = y
        return x


def _flip(table: np.ndarray) -> np.ndarray:
    """The inverse of a table of moves, x -> table[i, x] where that is not -1,
    with a last column of -1: flip[i, table[i, x]] = x, one scatter per row.
    Two moves of one row onto one element would leave fewer entries, which
    raises ConsistencyError."""
    flip = np.full_like(table, -1)
    for i, row in enumerate(table):
        x = np.flatnonzero(row >= 0)
        flip[i, row[x]] = x
    if np.count_nonzero(flip >= 0) != np.count_nonzero(table >= 0):
        raise ConsistencyError("two covers above one element share a label")
    return flip


def _word(tree, k) -> str:
    """The name of element k of the BFS tree (parent, gen): its generators
    from the root, 1-based, one digit each; the root is 'e'."""
    parent, gen = tree
    letters = []
    while parent[k] >= 0:
        letters.append(_DIGITS[gen[k]])
        k = parent[k]
    return "".join(reversed(letters)) or "e"


def _words(tree) -> tuple[str, ...]:
    """Every name of the BFS tree, in index order: each extends its parent's
    by one digit."""
    words = [""]
    for p, g in zip(tree[0][1:].tolist(), tree[1][1:].tolist()):
        words.append(words[p] + _DIGITS[g])
    words[0] = "e"
    return tuple(words)


def weak_order(cartan: CartanData, budget: int = DEFAULT_BUDGET) -> WeakOrder:
    """BFS generation of (W, <=_R) as a FiniteLattice.

    Covers are (w s_i, w) for each ascent i, so upper means longer.  Raises
    BudgetError up front when the group order exceeds the budget.
    """
    return WeakOrder(cartan, _WeylLattice(cartan, budget, dual=False))


def longest_element(order: WeakOrder) -> WeylElement:
    """The maximum of the weak order, built from its name alone."""
    return order.element(order.lattice.maximum)


def parabolic_longest(order: WeakOrder, js) -> WeylElement:
    """w0(J), the join of the s_j, j in J: a walk up from e along the least
    ascent s_j, j in J, while there is one.  [e, w0(J)]_R is W_J, so the walk
    ends at w0(J) and spells its lex-minimal reduced word, its lattice name."""
    js = sorted(set(_generator(order.cartan.rank, j) for j in js))
    if not js:
        raise ValueError("J must be nonempty")
    w = identity_element(order.cartan)
    while (j := next((j for j in js if is_ascent(w, j)), None)) is not None:
        w = apply_generator(order.cartan, w, j)
    return w
