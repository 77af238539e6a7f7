"""Finite lattices from Hasse covers, and their Frobenius-Perron dimension.

A lattice is given by its Hasse diagram: two index arrays over the
elements, upper[k] covering lower[k], kept for input and export.  Names
become indices only in from_covers; the Nakayama pair order passes index
arrays.  The upper- and lower-cover counts, each in the narrowest integer
dtype that holds it, give the extremes and the FP dimension scan.  The
covers are worked on as per-element lists, _parents[x] the sorted upper
covers dp(x) and _children[x] the lower covers of x, which the constructor
builds by one stable sort of all covers that also finds repeated covers.
The order itself comes from one sweep from the maxima along those lists,
which builds ancestor bitsets (one Python int per element, which makes
joins and meets cheap even on weak orders with tens of thousands of
elements) and rejects cycles and covers implied by longer paths; the name
dict and the down-sets are built when first needed.

Every single-element query reads one element interface: index (a name to
its index), _name (an index to its name), _dp_of and _ds_of (the upper and
lower covers of one element) and _key (its cover quiver).  join, meet,
join_all, interval, upper_covers, lower_covers, q_of, the extremes and
Covers[k] name their results through _name; only whole-lattice export
(iterating or slicing Covers, lattice_to_dict, opposite) reads elements.
A subclass that holds its order otherwise (the weak orders of coxeter)
overrides the interface, and then those queries build no name list and,
but for the order queries and Covers, no cover array.

Every lattice is certified at construction, at any size: a bounded finite
poset is a lattice as soon as any two upper covers of a common element have
a join (Bjorner-Edelman-Ziegler, DCG 5 (1990), Lemma 2.1), so the
constructor, and so from_covers, JSON input, opposite and the Nakayama pair
lattices, computes exactly those joins and raises LatticeError on the first
one missing.  The same joins give the cover quivers: Q(x, dp(x)) has
vertices the upper covers y of x and an arrow y -> y' exactly when y is not
a lower cover of y v y'.

The elements fall into classes with one cover quiver each.  _key(x) is
Q(x, dp(x)) as a key (m, mask), m the number of upper covers and mask the
arrows as one row-major bitmask over the sorted dp(x), and _classes maps
each distinct key to the first element that has it, in element order.  The
constructor builds _classes with one _key per element, and those joins are
the certificate above.  q_of computes the _key of its one element, and
fpdim_lattice reads _classes through _arrows, with no join.  A subclass
that stores its order otherwise (the weak orders of coxeter) builds
_classes over the first element of each of its own classes instead.
fpdim_lattice and the Nakayama scans take the largest spectral
radius over small integer blocks through one kernel, _largest_rho, and
hand it the same shape: a dict from each distinct key to what it stands
for, in order of first occurrence.  It computes one radius per key, a later
block wins only by more than tol, and it returns the winning key; a block
whose row- and column-sum bound cannot beat the best so far is skipped, and
scans that share their radii compute a block common to them once.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

import numpy as np

from .errors import LatticeError
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


class FiniteLattice:
    """Certified finite lattice; the covers are two index arrays into
    elements, upper[k] covering lower[k].  See :func:`from_covers`."""

    def __init__(self, elements, upper, lower):
        self.elements: tuple[str, ...] = tuple(str(e) for e in elements)
        if not self.elements:
            raise ValueError("a lattice needs at least one element")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate element names")
        self._set_covers(len(self.elements), upper, lower)
        self._cover_lists()
        self._sweep()
        self._set_extremes()
        # the cover quiver classes, whose joins certify the lattice (_key)
        self._classes: dict[tuple[int, int], int] = {}
        for x in range(len(self)):
            self._classes.setdefault(self._key(x), x)

    def __getattr__(self, name):
        # only reached for missing attributes: the cover lists of a subclass,
        # the name index, the down-sets, the order, its positions and its
        # up-sets are built on their first read
        if name in ("_parents", "_children"):
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

    def _set_covers(self, n: int, upper, lower) -> None:
        """The two cover index arrays over n elements (_index_array), after
        checking index ranges and loops, and the counts _n_dp and _n_ds of
        upper and lower covers, each in the narrowest integer dtype that holds
        its maximum (_narrow), so arithmetic on them casts first."""
        self._upper, self._lower = up, lo = _index_array(upper), _index_array(lower)
        if (up is None or lo is None or len(up) != len(lo)
                or min(up.min(initial=0), lo.min(initial=0)) < 0
                or max(up.max(initial=0), lo.max(initial=0)) >= n):
            raise ValueError("covers must be two index arrays of one length into elements")
        loops = np.flatnonzero(up == lo)
        if len(loops):
            e = self._name(up[loops[0]])
            raise ValueError(f"cover ({e!r}, {e!r}) relates an element to itself")
        self._n_dp = _narrow(np.bincount(lo, minlength=n))
        self._n_ds = _narrow(np.bincount(up, minlength=n))

    def _cover_lists(self) -> None:
        """The per-element cover lists, after checking repeated covers:
        _parents[x] the upper covers dp(x) of x, sorted (the vertex order of
        Q(x, dp(x))), and _children[x] the lower covers of x in cover order.
        One stable sort by (lower, upper) groups each dp(x) and puts a repeat
        right after its first, so the earliest repeat in cover order is named."""
        up, lo = self._upper, self._lower
        key = lo.astype(np.int64, copy=False) * len(self) + up
        order = np.argsort(key, kind="stable")
        key = key[order]
        repeat = np.flatnonzero(key[1:] == key[:-1])
        if len(repeat):
            k = order[repeat + 1].min()  # the earliest repeat in cover order
            raise ValueError(f"duplicate cover ({self._name(up[k])!r}, {self._name(lo[k])!r})")
        del key
        self._parents: list[list[int]] = _split(up[order], self._n_dp)
        self._children: list[list[int]] = _split(lo[np.argsort(up, kind="stable")], self._n_ds)

    def _key(self, x: int) -> tuple[int, int]:
        """Q(x, dp(x)) as a key (m, mask) on the m sorted upper covers
        dp(x) = ys: bit a*m + b for the arrow ys[a] -> ys[b], from the join
        of every two of them.  With the unique extremes already checked,
        these joins over all x prove the lattice axioms (module docstring)."""
        ys, children = self._parents[x], self._children
        m, mask = len(ys), 0
        for a in range(m):
            for b in range(a + 1, m):
                ds = children[self._join_idx(ys[a], ys[b])]
                if ys[a] not in ds:
                    mask |= 1 << (a * m + b)
                if ys[b] not in ds:
                    mask |= 1 << (b * m + a)
        return m, mask

    def _dp_of(self, x: int) -> list[int]:
        """The sorted upper covers of element x."""
        return self._parents[x]

    def _ds_of(self, x: int) -> list[int]:
        """The lower covers of element x."""
        return self._children[x]

    def _name(self, k) -> str:
        return self.elements[k]

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
        return self._name(self._join_idx(self.index(x), self.index(y)))

    def meet(self, x: str, y: str) -> str:
        return self._name(self._meet_idx(self.index(x), self.index(y)))

    def join_all(self, names) -> str:
        names = list(names)
        if not names:
            raise ValueError("join of an empty set")
        acc = self.index(names[0])
        for nm in names[1:]:
            acc = self._join_idx(acc, self.index(nm))
        return self._name(acc)

    def upper_covers(self, x: str) -> set[str]:
        """dp(x): the elements covering x."""
        return {self._name(p) for p in self._dp_of(self.index(x))}

    def lower_covers(self, x: str) -> set[str]:
        """ds(x): the elements covered by x."""
        return {self._name(c) for c in self._ds_of(self.index(x))}

    def interval(self, x: str, y: str) -> list[str]:
        """Elements z with x <= z <= y, in declaration order."""
        mask = self._up[self.index(x)] & self._down[self.index(y)]
        return [self._name(i) for i in sorted(self._toporder[b] for b in _bits(mask))]

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
        return lat._name(lat._upper[k]), lat._name(lat._lower[k])

    def __iter__(self):
        return _named_pairs(self._lat, self._lat._upper, self._lat._lower)

    def __eq__(self, other):
        return isinstance(other, Sequence) and tuple(self) == tuple(other)

    def __repr__(self):
        return repr(tuple(self))


def _named_pairs(lat, upper, lower):
    name = lat.elements.__getitem__
    return zip(map(name, upper.tolist()), map(name, lower.tolist()))


def _index_array(a) -> np.ndarray | None:
    """A new int64 copy of a 1-D integer (or empty) array a, else None."""
    try:
        a = np.asarray(a)
    except ValueError:  # ragged nesting
        return None
    return a.astype(np.int64) if a.ndim == 1 and (a.dtype.kind in "iu" or not len(a)) else None


def _split(values: np.ndarray, counts: np.ndarray) -> list[list[int]]:
    """values cut into consecutive lists of the given lengths."""
    flat, ends = values.tolist(), np.cumsum(counts, dtype=np.int64).tolist()
    return [flat[e - m:e] for e, m in zip(ends, counts.tolist())]


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


def _arrows(m: int, mask: int) -> np.ndarray:
    """The m x m adjacency matrix of one class key (m, mask): entry [a, b]
    is bit a*m + b, the arrow ys[a] -> ys[b] on the sorted upper covers ys."""
    return np.array([mask >> i & 1 for i in range(m * m)], dtype=np.int64).reshape(m, m)


def _largest_rho(keys, block_of, tol: float,
                 radii: dict | None = None) -> tuple[float, Hashable | None]:
    """The largest spectral radius over nonnegative int64 square blocks, and
    the key of the block attaining it, or (0.0, None) if none exceeds tol.

    keys are distinct hashable values in scan order (a dict's, in insertion
    order), each standing for the block block_of(key); the callers keep
    only the first occurrence of each key.  A block wins only by more than
    tol over the best so far, so ties go to the earliest key.  radii maps
    keys to the radii already computed and is filled in here, so scans that
    share it (with keys that stand for equal blocks across them) compute
    each block once.

    A key not in radii reads block_of(key) and first takes the integer bound
    b = min(max row sum, max column sum) >= rho.  If b <= best, rho is not
    computed (nor stored): the computed value is the midpoint of a
    Collatz-Wielandt bracket narrower than tol (or an exact loop count),
    so it is at most rho + tol/2 plus rounding <= best + tol/2 + rounding,
    while a win needs more than best + tol.  A skipped block could never
    have won, so the value and witness are those of the unpruned scan."""
    radii = {} if radii is None else radii
    best, witness = 0.0, None
    for key in keys:
        rho = radii.get(key)
        if rho is None:
            block = block_of(key)
            rows = block.tolist()
            if (max(map(sum, rows), default=0) <= best
                    or max(map(sum, zip(*rows)), default=0) <= best):
                continue
            rho = radii[key] = spectral_radius(Quiver(range(len(block)), block), tol=tol)
        if rho > best + tol:
            best, witness = rho, key
    return best, witness


def from_covers(elements, covers) -> FiniteLattice:
    """Build a lattice from (upper, lower) name pairs, certified at any size.

    Maps names to indices (an unknown one, or a cover that is not a pair,
    raises ValueError); the constructor checks that the covers are acyclic
    and transitively reduced, that there is one maximum and one minimum, and
    that any two upper covers of an element have a join, which proves the
    lattice axioms.  A missing join raises LatticeError naming the pair."""
    elements = [str(e) for e in elements]
    index = {e: i for i, e in enumerate(elements)}
    covers = list(covers)
    for c in covers:
        if isinstance(c, (str, bytes)) or not isinstance(c, Sequence) or len(c) != 2:
            raise ValueError(f"cover {c!r} is not an (upper, lower) pair")
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
    dp = [lat._name(y) for y in lat._dp_of(ix)]
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
    _largest_rho takes the distinct keys (m, mask) of lat._classes in order
    of their first elements, so it computes one rho per distinct key, and a
    later one wins only by more than tol.  Elements with at most one upper
    cover contribute 0, as the bound of their block is 0.  The witness is
    the first element of the winning key; with no rho above tol it is the
    first element below the maximum, and a one-element lattice gives
    (0.0, None).
    """
    _check_tol(tol)
    if len(lat) == 1:
        return 0.0, None
    rho, key = _largest_rho(lat._classes, lambda key: _arrows(*key), tol)
    witness = (1 if lat._max == 0 else 0) if key is None else lat._classes[key]
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
