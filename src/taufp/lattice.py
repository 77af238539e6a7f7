"""Finite lattices from Hasse covers, and their Frobenius-Perron dimension.

A lattice is stored by its Hasse diagram: two index arrays over the
elements, upper[k] covering lower[k].  Names become indices only in
from_covers; the Nakayama pair order passes index arrays.  The upper- and
lower-cover counts, each in the narrowest integer dtype that holds it, give
the extremes and the FP dimension scan.  The sorted cover index holds the
upper covers dp(x) of every element x, sorted, in one array with
per-element offsets, for q_of and upper_covers.  The constructor builds it
by one stable sort of all covers, which also finds repeated covers.  The
order itself comes from one sweep from the maxima, which builds ancestor
bitsets (one Python int per element, which makes joins and meets cheap even
on weak orders with tens of thousands of elements) and rejects cycles and
covers implied by longer paths; it walks per-element cover lists, built
from the index when first needed, as are the name dict and the down-sets.

Every lattice is certified at construction, at any size, by one of two
certificates.  The constructor, and so from_covers, JSON input, opposite
and the Nakayama pair lattices, uses the generic one: a bounded finite
poset is a lattice as soon as any two upper covers of a common element
have a join (Bjorner-Edelman-Ziegler, DCG 5 (1990), Lemma 2.1), so it
computes exactly those joins and raises LatticeError on the first one
missing.  The same joins give the cover quivers: Q(x, dp(x)) has vertices
the upper covers y of x and an arrow y -> y' exactly when y is not a lower
cover of y v y'.  Weyl weak orders and their opposites are held by their
table of right descents instead (_from_descents), whose rank-2 faces
coxeter certifies (each is the 2 m_ij-gon x W_ij); their cover quivers are
the Coxeter graph induced on the generators of the covers, read off the
table with no join, no bitset and no per-element list.  Such a lattice
keeps the BFS tree, parent and generator per element, and the table; its
covers, sorted cover index and names are derived on their first read, and
its sweep waits for the first order query.  It reads a single name (the
extremes, the FP dimension witness, an error message) off the tree as a
word, so its length, extremes and FP dimension build no name list and no
cover array.

Either way the elements fall into classes with one cover quiver each:
_qclass holds the class of every element, the classes numbered in order of
their first elements, and _quivers one key (m, mask) per class, m the
number of upper covers and mask the arrows of Q(x, dp(x)) as one row-major
bitmask over the sorted dp(x) of the class's first element, which
fpdim_lattice reads through _arrows; q_of reads the key of x itself
(_key).  The generic certificate makes one class per distinct key; a
descent-built lattice one per set of generators of the upper covers, at
most 2^rank, so there two classes can share a key and one class can hold
one block in several vertex orders.  fpdim_lattice and the Nakayama scans
take the largest spectral radius over small integer blocks through one
kernel, _largest_rho: one radius per distinct key, at its first
occurrence, and a later block wins only by more than tol; a block whose
row- and column-sum bound cannot beat the best so far is skipped, and scans
that share their radii compute a block common to them once.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import ConsistencyError, LatticeError
from .quiver import Quiver, _check_names
from .spectral import _check_tol, spectral_radius

__all__ = [
    "FiniteLattice",
    "from_covers",
    "opposite",
    "q_of",
    "fpdim_lattice",
    "lattice_to_dict",
    "lattice_from_dict",
]


# one digit per label of a tree name (FiniteLattice._from_descents)
_DIGITS = "123456789"


class FiniteLattice:
    """Certified finite lattice; the covers are two index arrays into
    elements, upper[k] covering lower[k].  See :func:`from_covers`."""

    def __init__(self, elements, upper, lower):
        self.elements: tuple[str, ...] = tuple(str(e) for e in elements)
        if not self.elements:
            raise ValueError("a lattice needs at least one element")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate element names")
        self._set_covers(len(self.elements), np.array(upper, dtype=np.int64).reshape(-1),
                         np.array(lower, dtype=np.int64).reshape(-1))
        self._sort_covers()
        self._sweep()
        self._set_extremes()
        self._qclass, self._quivers = self._certify()

    @classmethod
    def _from_descents(cls, tree, down, arrow, dual: bool) -> FiniteLattice:
        """A right weak order (dual=False) or its opposite, from its table of
        right descents alone.

        down is an int32 (rank, n + 1) table: down[i, x] is x s_i where i is
        a descent of x, else -1, and the last column is -1.  The covers are
        (x s_i, x) over the ascents i of x, reversed when dual; the ascent
        table up, up[i, x] = x s_i, is one scatter of down (_flip), built
        here for the weak order and on first read for its opposite.  So
        dp(x) is the x s_i over one set of generators i, the ascents of x
        (its descents when dual), and Q(x, dp(x)) is the Coxeter graph
        induced on that set: an arrow over i -> j exactly when the boolean
        array arrow has arrow[i, j] (m_ij >= 3; Bjorner-Brenti, GTM 231,
        3.2).  The class of x is the set, as a rank-bit mask, so there are at
        most 2^rank classes; their first elements come from one scatter of
        minima into a 2^rank table, and a class's key is its block in the
        sorted dp order of its first element (_key).  The caller certifies
        the lattice and its faces (the Weyl face certificate in coxeter);
        here only the extremes are checked.  The sorted cover index, the
        covers in BFS scan order (x ascending, then the generator) and the
        lower-cover counts are derived on first read, and the sweep waits
        for the first order query (leq, join, meet, join_all, interval).

        tree = (parent, gen) names the elements, which are its indices: the
        root 0 has parent -1 and every other k a parent[k] < k, and k is
        named by the labels gen along its path from the root, one digit each
        (_word), so labels run from 0 to 8.  The names are built on the first
        read of elements; until then _name walks the tree.  They need no
        duplicate check when, as in the Weyl BFS (k = parent[k] s_gen[k],
        distinct vectors), distinct elements have distinct (parent, gen):
        two elements with one name have one length and one last label, so
        by induction on the length their parents are equal, and then so are
        they."""
        lat = cls.__new__(cls)
        lat._tree, lat._descent, lat._arrow, lat._dual = tree, down, arrow, dual
        n, rank = down.shape[1] - 1, len(down)
        mask = np.zeros(n, dtype=np.int16)
        for i, row in enumerate(lat._moves):
            mask |= (row[:n] >= 0) * np.int16(1 << i)
        lat._n_dp = _narrow(np.array([k.bit_count() for k in range(1 << rank)]))[mask]
        lat._set_extremes()
        # the first element of each set: one scatter of the least index
        first = np.full(1 << rank, n, dtype=np.int32)
        np.minimum.at(first, mask, np.arange(n, dtype=np.int32))
        first = np.sort(first[first < n])
        number = np.zeros(1 << rank, dtype=np.int16)
        number[mask[first]] = np.arange(len(first))
        lat._qclass = number[mask]
        lat._quivers = [lat._key(x) for x in first.tolist()]
        return lat

    def __getattr__(self, name):
        # only reached for missing attributes: the cover index offsets, the
        # per-element cover lists, the name index, the down-sets and (on a
        # descent-built lattice) the names, the ascent table, the covers,
        # their lower counts, the sorted cover index, the order, its
        # positions and its up-sets are built on their first read
        if name == "elements":
            self.elements = _words(self._tree)
        elif name == "_ascent":
            self._ascent = _flip(self._descent)
        elif name == "_n_ds":
            # every generator is an ascent or a descent of x
            self._n_ds = _narrow(len(self._arrow) - self._n_dp)
        elif name == "_dp":
            rows = self._moves[:, :len(self)].T.copy()
            rows.sort(axis=1)
            self._dp = rows[rows >= 0]
        elif name in ("_upper", "_lower"):
            # (x s_i, x) over the ascents i of x, x ascending, then i
            up = self._ascent[:, :len(self)].T
            shorter = np.repeat(np.arange(len(self), dtype=np.int32),
                                self._n_ds if self._dual else self._n_dp)
            longer = up[up >= 0]
            self._upper, self._lower = (shorter, longer) if self._dual else (longer, shorter)
        elif name == "_dp_at":
            self._dp_at = np.concatenate(([0], np.cumsum(self._n_dp, dtype=np.int64)))
        elif name in ("_parents", "_children"):
            self._cover_lists()
        elif name == "_index":
            self._index = {e: i for i, e in enumerate(self.elements)}
        elif name in ("_toporder", "_pos", "_up"):
            self._sweep()
        elif name == "_down":
            down = self._down = [0] * len(self)
            for v in reversed(self._toporder):
                mask = 1 << self._pos[v]
                for c in self._children[v]:
                    mask |= down[c]
                down[v] = mask
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return self.__dict__[name]

    # -- construction helpers -------------------------------------------------

    def _set_covers(self, n: int, up: np.ndarray, lo: np.ndarray) -> None:
        """The two cover index arrays over n elements, after checking index
        ranges and loops, and the counts _n_dp and _n_ds of upper and lower
        covers, each in the narrowest integer dtype that holds its maximum
        (_narrow), so arithmetic on them casts first."""
        self._upper, self._lower = up, lo
        if (len(up) != len(lo) or min(up.min(initial=0), lo.min(initial=0)) < 0
                or max(up.max(initial=0), lo.max(initial=0)) >= n):
            raise ValueError("covers must be two index arrays of one length into elements")
        loops = np.flatnonzero(up == lo)
        if len(loops):
            e = self._name(up[loops[0]])
            raise ValueError(f"cover ({e!r}, {e!r}) relates an element to itself")
        self._n_dp = _narrow(np.bincount(lo, minlength=n))
        self._n_ds = _narrow(np.bincount(up, minlength=n))

    def _sort_covers(self) -> None:
        """The sorted cover index, after checking repeated covers: one stable
        sort by (lower, upper) groups the upper covers of each element x,
        sorted (the vertex order of Q(x, dp(x))), into _dp[_dp_at[x]:
        _dp_at[x + 1]], and puts a repeat right after its first, so the
        earliest repeat in cover order is named.  The generic constructor
        builds the index this way; a descent-built lattice sorts the columns
        of its table instead."""
        up, lo = self._upper, self._lower
        key = lo.astype(np.int64, copy=False) * len(self) + up
        order = np.argsort(key, kind="stable")
        key = key[order]
        repeat = np.flatnonzero(key[1:] == key[:-1])
        if len(repeat):
            k = order[repeat + 1].min()  # the earliest repeat in cover order
            raise ValueError(f"duplicate cover ({self._name(up[k])!r}, {self._name(lo[k])!r})")
        del key
        self._dp = up[order]

    def _cover_lists(self) -> None:
        """The per-element lists that the sweep, the join certificate and the
        down-sets walk: _parents[x] the sorted upper covers of x, as in the
        index, and _children[x] the lower covers of x in cover order."""
        dp, at = self._dp.tolist(), self._dp_at.tolist()
        self._parents: list[list[int]] = [dp[at[x]:at[x + 1]] for x in range(len(self))]
        ds = self._lower[np.argsort(self._upper, kind="stable")].tolist()
        at = np.concatenate(([0], np.cumsum(self._n_ds, dtype=np.int64))).tolist()
        self._children: list[list[int]] = [ds[at[x]:at[x + 1]] for x in range(len(self))]

    @property
    def _moves(self) -> np.ndarray:
        """The table of upper covers of a descent-built lattice: dp(x) is
        column x of it, past its -1 entries."""
        return self._descent if self._dual else self._ascent

    def _key(self, x: int) -> tuple[int, int]:
        """Q(x, dp(x)) as a key (m, mask) on the sorted dp(x) = ys: bit
        a*m + b for the arrow ys[a] -> ys[b].  A descent-built lattice reads
        it off arrow on the generators i of the covers x s_i, in the order
        of the x s_i; so does the key of a class, at its first element."""
        if "_descent" not in self.__dict__:
            return self._quivers[self._qclass[x]]
        col = self._moves[:, x]
        gens = np.flatnonzero(col >= 0)
        gens = gens[np.argsort(col[gens])]
        m = len(gens)
        a, b = np.nonzero(self._arrow[np.ix_(gens, gens)])
        return m, sum(1 << k for k in (a * m + b).tolist())

    def _dp_of(self, x: int) -> np.ndarray:
        """The sorted upper covers of element x, a view into the index."""
        return self._dp[self._dp_at[x]:self._dp_at[x + 1]]

    def _name(self, k) -> str:
        """The name of element k; a descent-built lattice whose names are not
        built yet reads it off its tree."""
        names = self.__dict__.get("elements")
        return _word(self._tree, k) if names is None else names[k]

    def _set_extremes(self) -> None:
        maxima = np.flatnonzero(self._n_dp == 0).tolist()
        minima = np.flatnonzero(self._n_ds == 0).tolist()
        # acyclic and nonempty, so there is at least one of each
        if len(maxima) != 1:
            a, b = sorted(self._name(i) for i in maxima)[:2]
            raise LatticeError(f"no join for ({a}, {b})", (a, b))
        if len(minima) != 1:
            a, b = sorted(self._name(i) for i in minima)[:2]
            raise LatticeError(f"no meet for ({a}, {b})", (a, b))
        self._max = maxima[0]
        self._min = minima[0]

    def _sweep(self) -> None:
        """One Kahn sweep from the maxima: each element is reached after all
        its parents, so its position, up-set and depth are final then, and so
        is the test of its covers.  A cover (u, v) is implied exactly when u
        lies above another parent of v, which puts v two or more below u in
        depth; only covers that skip a depth are tested (on a weak order,
        none).  A cycle raises before any implied cover.  Bitsets are indexed
        by POSITION (maxima first), so the minimum of an intersection of
        up-sets is its highest set bit: joins cost O(|L|/64), no walk.
        """
        n = len(self)
        parents, children = self._parents, self._children
        indeg = [len(ps) for ps in parents]
        order = [i for i in range(n) if not indeg[i]]
        pos, up, depth = [0] * n, [0] * n, [0] * n
        implied = []  # (u, rank of v among u's lower covers, v); min() is the first
        for at, v in enumerate(order):  # order grows as elements are reached
            pos[v] = at
            ps = parents[v]
            mask, d = 1 << at, 0
            for p in ps:
                mask |= up[p]
                if depth[p] >= d:
                    d = depth[p] + 1
            up[v], depth[v] = mask, d
            for u in ps:
                if depth[u] + 1 < d and any(up[p] >> pos[u] & 1 for p in ps if p != u):
                    implied.append((u, children[u].index(v), v))
            for c in children[v]:
                indeg[c] -= 1
                if not indeg[c]:
                    order.append(c)
        if len(order) != n:
            raise ValueError("cycle in covers")
        if implied:
            u, _, l = min(implied)
            raise ValueError(f"cover ({self._name(u)!r}, {self._name(l)!r}) is implied "
                             "by other covers (not transitively reduced)")
        self._toporder, self._pos, self._up = order, pos, up

    def _certify(self) -> tuple[np.ndarray, list[tuple[int, int]]]:
        """Join every two upper covers of each element; return the cover
        quiver classes (module docstring): the class of each element, and
        per class its key (m, mask), mask the arrows of Q(x, dp(x)) with bit
        a*m + b for the arrow ys[a] -> ys[b] on the m sorted upper covers
        ys.  One dict numbers the distinct keys in element order.  With the
        unique extremes already checked, these joins prove the lattice
        axioms (module docstring)."""
        children = self._children
        classes: dict[tuple[int, int], int] = {}
        qclass = []
        for ys in self._parents:
            m = len(ys)
            mask = 0
            for a in range(m):
                for b in range(a + 1, m):
                    ds = children[self._join_idx(ys[a], ys[b])]
                    if ys[a] not in ds:
                        mask |= 1 << (a * m + b)
                    if ys[b] not in ds:
                        mask |= 1 << (b * m + a)
            qclass.append(classes.setdefault((m, mask), len(classes)))
        return np.array(qclass, dtype=np.int32), list(classes)

    def _join_idx(self, i: int, j: int) -> int:
        # Bits sit at topological positions, maxima first, so any element of
        # the intersection that is comparable to all others must be its
        # highest set bit; the final equality test certifies the minimum.
        ub = self._up[i] & self._up[j]
        if ub:
            m = self._toporder[ub.bit_length() - 1]
            if self._up[m] == ub:
                return m
        a, b = self._name(i), self._name(j)
        raise LatticeError(f"no join for ({a}, {b})", (a, b))

    def _meet_idx(self, i: int, j: int) -> int:
        down = self._down
        lb = down[i] & down[j]
        if lb:
            m = self._toporder[(lb & -lb).bit_length() - 1]
            if down[m] == lb:
                return m
        a, b = self._name(i), self._name(j)
        raise LatticeError(f"no meet for ({a}, {b})", (a, b))

    # -- public API ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._n_dp)


    def index(self, name: str) -> int:
        try:
            return self._index[str(name)]
        except KeyError:
            raise ValueError(f"unknown element {name!r}") from None

    @property
    def maximum(self) -> str:
        return self._name(self._max)

    @property
    def minimum(self) -> str:
        return self._name(self._min)

    def leq(self, x: str, y: str) -> bool:
        """x <= y in the lattice order."""
        return bool(self._up[self.index(x)] >> self._pos[self.index(y)] & 1)

    def join(self, x: str, y: str) -> str:
        return self.elements[self._join_idx(self.index(x), self.index(y))]

    def meet(self, x: str, y: str) -> str:
        return self.elements[self._meet_idx(self.index(x), self.index(y))]

    def join_all(self, names) -> str:
        names = list(names)
        if not names:
            raise ValueError("join of an empty set")
        acc = self.index(names[0])
        for nm in names[1:]:
            acc = self._join_idx(acc, self.index(nm))
        return self.elements[acc]

    def upper_covers(self, x: str) -> set[str]:
        """dp(x): the elements covering x."""
        return {self.elements[p] for p in self._dp_of(self.index(x)).tolist()}

    def lower_covers(self, x: str) -> set[str]:
        """ds(x): the elements covered by x."""
        ds = self._lower[self._upper == self.index(x)]
        return {self.elements[c] for c in ds.tolist()}

    def interval(self, x: str, y: str) -> list[str]:
        """Elements z with x <= z <= y, in declaration order."""
        mask = self._up[self.index(x)] & self._down[self.index(y)]
        return [self.elements[i] for i in sorted(self._toporder[b] for b in _bits(mask))]

    @property
    def covers(self) -> Covers:
        """The (upper, lower) name pairs in cover order."""
        return Covers(self)

    def __repr__(self):
        return f"FiniteLattice({len(self)} elements, {len(self.covers)} covers)"


class Covers(Sequence):
    """(upper, lower) name pairs in cover order, viewed through the index
    arrays of a lattice (len counts them off the cover counts, so it builds
    no name and no array); equal to any sequence of the same pairs."""

    def __init__(self, lat):
        self._lat = lat

    def __len__(self):
        return int(self._lat._n_dp.sum(dtype=np.int64))

    def __getitem__(self, k):
        lat = self._lat
        if isinstance(k, slice):
            return tuple(_named_pairs(lat, lat._upper[k], lat._lower[k]))
        return lat.elements[lat._upper[k]], lat.elements[lat._lower[k]]

    def __iter__(self):
        return _named_pairs(self._lat, self._lat._upper, self._lat._lower)

    def __eq__(self, other):
        return isinstance(other, Sequence) and tuple(self) == tuple(other)

    def __repr__(self):
        return repr(tuple(self))


def _named_pairs(lat, upper, lower):
    name = lat.elements.__getitem__
    return zip(map(name, upper.tolist()), map(name, lower.tolist()))


def _bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _narrow(counts: np.ndarray) -> np.ndarray:
    """Nonnegative counts in the narrowest signed integer dtype that holds
    their maximum (int8 on a Weyl lattice: at most rank covers each way)."""
    top = int(counts.max(initial=0))
    return counts.astype(next(t for t in (np.int8, np.int16, np.int32, np.int64)
                              if top <= np.iinfo(t).max))


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


def _word(tree, k) -> str:
    """The name of element k of a labelled tree (FiniteLattice._from_descents):
    its labels from the root, 1-based, one digit each; the root is 'e'."""
    parent, gen = tree
    letters = []
    while parent[k] >= 0:
        letters.append(_DIGITS[gen[k]])
        k = parent[k]
    return "".join(reversed(letters)) or "e"


def _words(tree) -> tuple[str, ...]:
    """Every name of a labelled tree, in index order: each extends its
    parent's by one digit."""
    words = [""]
    for p, g in zip(tree[0][1:].tolist(), tree[1][1:].tolist()):
        words.append(words[p] + _DIGITS[g])
    words[0] = "e"
    return tuple(words)


def _arrows(m: int, mask: int) -> np.ndarray:
    """The m x m adjacency matrix of one class key (m, mask): entry [a, b]
    is bit a*m + b, the arrow ys[a] -> ys[b] on the sorted upper covers ys."""
    return np.array([mask >> i & 1 for i in range(m * m)], dtype=np.int64).reshape(m, m)


def _largest_rho(keys, block_at, tol: float,
                 radii: dict | None = None) -> tuple[float, int | None]:
    """The largest spectral radius over nonnegative int64 square blocks, and
    the position in keys of the block attaining it, or (0.0, None) if none
    exceeds tol.

    Equal keys (any hashable values) stand for equal blocks: each distinct
    key is visited once, at its first position k, in position order; a
    block wins only by more than tol over the best so far, so ties go to
    the earliest position.  radii maps keys to the radii already computed
    and is filled in here, so scans that share it (with keys that stand for
    equal blocks across them) compute each block once.

    A key not in radii reads block_at(k) and first takes the integer bound
    b = min(max row sum, max column sum) >= rho.  If b <= best, rho is not
    computed (nor stored): the computed value is the midpoint of a
    Collatz-Wielandt bracket narrower than tol (or an exact loop count),
    so it is at most rho + tol/2 plus rounding <= best + tol/2 + rounding,
    while a win needs more than best + tol.  A skipped block could never
    have won, so the value and witness are those of the unpruned scan."""
    radii = {} if radii is None else radii
    best, witness, seen = 0.0, None, set()
    for k, key in enumerate(keys):
        if key in seen:
            continue
        seen.add(key)
        rho = radii.get(key)
        if rho is None:
            block = block_at(k)
            rows = block.tolist()
            if (max(map(sum, rows), default=0) <= best
                    or max(map(sum, zip(*rows)), default=0) <= best):
                continue
            rho = radii[key] = spectral_radius(Quiver(range(len(block)), block), tol=tol)
        if rho > best + tol:
            best, witness = rho, k
    return best, witness


def from_covers(elements, covers) -> FiniteLattice:
    """Build a lattice from (upper, lower) name pairs, certified at any size.

    Maps names to indices (an unknown one raises ValueError); the constructor
    checks that the covers are acyclic and transitively reduced, that there
    is one maximum and one minimum, and that any two upper covers of an
    element have a join, which proves the lattice axioms.  A missing join
    raises LatticeError naming the pair."""
    elements = [str(e) for e in elements]
    index = {e: i for i, e in enumerate(elements)}
    try:
        ends = [index[str(e)] for u, l in covers for e in (u, l)]
    except KeyError as exc:
        raise ValueError(f"cover references unknown element {exc.args[0]!r}") from None
    ends = np.array(ends, dtype=np.int64).reshape(-1, 2)
    return FiniteLattice(elements, ends[:, 0], ends[:, 1])


def opposite(lat: FiniteLattice) -> FiniteLattice:
    """Same elements, reversed covers (the order-dual lattice)."""
    return FiniteLattice(lat.elements, lat._lower, lat._upper)


def q_of(lat: FiniteLattice, x: str, ys=None) -> Quiver:
    """Quiver on a set of upper covers of x.

    Vertices are the chosen covers Y (all of dp(x) when ys is None), in
    declaration order; there is one arrow y -> y' exactly when y is not a
    lower cover of y v y'.  That depends on y and y' only, so Q(x, Y) is the
    full subquiver of Q(x, dp(x)) on Y.  Loops never occur and arrows are
    never multiple.
    """
    ix = lat.index(x)
    dp = [lat.elements[y] for y in lat._dp_of(ix).tolist()]
    ys = dp if ys is None else [str(y) for y in ys]
    if not ys:
        raise ValueError("Y must be nonempty")
    if len(set(ys)) != len(ys):
        raise ValueError("Y has repeated elements")
    stray = [y for y in ys if y not in dp]
    if stray:
        raise ValueError(f"{stray[0]!r} is not an upper cover of {x!r}")
    rows = [a for a, y in enumerate(dp) if y in ys]
    return Quiver([dp[a] for a in rows], _arrows(*lat._key(ix))[np.ix_(rows, rows)])


def fpdim_lattice(lat: FiniteLattice, tol: float = 1e-12) -> tuple[float, str | None]:
    """FP dimension of a finite lattice, with a witness element.

    Maximizes rho(Q(x, dp(x))) over all x below the maximum, reading the
    cover quiver classes stored by the constructor (no join here):
    _largest_rho takes the class keys (m, mask) in class order, so it
    computes one rho per distinct key, at its first class, which holds its
    first element in declaration order; a later one wins only by more than
    tol.  Elements with at most one upper cover contribute 0, as the bound
    of their block is 0.  The witness is the first element of the winning
    class; with no rho above tol it is the first element below the maximum,
    and a one-element lattice gives (0.0, None).
    """
    _check_tol(tol)
    if len(lat) == 1:
        return 0.0, None
    quivers = lat._quivers
    rho, c = _largest_rho(quivers, lambda c: _arrows(*quivers[c]), tol)
    witness = (1 if lat._max == 0 else 0) if c is None else int(np.argmax(lat._qclass == c))
    return rho, lat._name(witness)


def lattice_to_dict(lat: FiniteLattice) -> dict:
    """JSON-ready form: {"elements": [...], "covers": [["upper","lower"], ...]}."""
    return {
        "elements": list(lat.elements),
        "covers": [[u, l] for u, l in lat.covers],
    }


def lattice_from_dict(data: dict) -> FiniteLattice:
    """Inverse of lattice_to_dict; names are strings or JSON integers."""
    if not isinstance(data, dict) or "elements" not in data or "covers" not in data:
        raise ValueError('lattice JSON needs "elements" and "covers" keys')
    elements, covers = data["elements"], data["covers"]
    if not (isinstance(elements, list) and isinstance(covers, list)
            and all(isinstance(c, list) and len(c) == 2 for c in covers)):
        raise ValueError('lattice JSON needs an "elements" array and a "covers" array of '
                         '[upper, lower] arrays')
    _check_names(elements + [e for c in covers for e in c])
    return from_covers(elements, covers)
