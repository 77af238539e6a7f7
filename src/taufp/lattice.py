"""Finite lattices from Hasse covers, and their Frobenius-Perron dimension.

A lattice is stored by its Hasse diagram: two index arrays over the
elements, upper[k] covering lower[k].  Names become indices only in
from_covers; the Weyl BFS and the Nakayama pair order pass index arrays.
Reachability is kept as ancestor bitsets (one Python int per element),
which makes joins and meets cheap even on weak orders with tens of
thousands of elements.

Every lattice is certified at construction, at any size.  A bounded finite
poset is a lattice as soon as any two upper covers of a common element have
a join (Bjorner-Edelman-Ziegler, DCG 5 (1990), Lemma 2.1), so the
constructor computes exactly those joins and raises LatticeError on the
first one missing.  The same joins give the cover quivers: Q(x, dp(x)) has
vertices the upper covers y of x and an arrow y -> y' exactly when y is not
a lower cover of y v y'.  Each is kept as one row-major bitmask, which the
FP dimension scan reads without computing any join.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import LatticeError
from .quiver import Quiver, _check_names
from .spectral import spectral_radius

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
        self._index = {e: i for i, e in enumerate(self.elements)}
        n = len(self.elements)
        up = self._upper = np.array(upper, dtype=np.int64).reshape(-1)
        lo = self._lower = np.array(lower, dtype=np.int64).reshape(-1)
        if len(up) != len(lo) or not np.all((0 <= up) & (up < n) & (0 <= lo) & (lo < n)):
            raise ValueError("covers must be two index arrays of one length into elements")
        loops = np.flatnonzero(up == lo)
        if len(loops):
            e = self.elements[up[loops[0]]]
            raise ValueError(f"cover ({e!r}, {e!r}) relates an element to itself")
        _, first = np.unique(up * n + lo, return_index=True)
        if len(first) != len(up):
            k = np.setdiff1d(np.arange(len(up)), first)[0]  # earliest repeat
            u, l = self.elements[up[k]], self.elements[lo[k]]
            raise ValueError(f"duplicate cover ({u!r}, {l!r})")
        self._parents: list[list[int]] = [[] for _ in range(n)]  # upper covers
        self._children: list[list[int]] = [[] for _ in range(n)]  # lower covers
        for u, l in zip(up.tolist(), lo.tolist()):
            self._children[u].append(l)
            self._parents[l].append(u)
        for ps in self._parents:
            ps.sort()  # the vertex order of Q(x, dp(x))

        self._toporder = self._topological_order()
        # Bitsets are indexed by topological POSITION (maxima first), not by
        # declaration index: the minimum of an intersection of up-sets is
        # then simply its highest set bit, which makes joins O(|L|/64) with
        # no descent walk.
        self._pos = [0] * n
        for p, v in enumerate(self._toporder):
            self._pos[v] = p
        self._up = self._compute_upsets()
        self._check_reduced()
        self._down: list[int] | None = None

        maxima = [i for i in range(n) if not self._parents[i]]
        minima = [i for i in range(n) if not self._children[i]]
        # acyclic and nonempty, so there is at least one of each
        if len(maxima) != 1:
            a, b = sorted(self.elements[i] for i in maxima)[:2]
            raise LatticeError(f"no join for ({a}, {b})", (a, b))
        if len(minima) != 1:
            a, b = sorted(self.elements[i] for i in minima)[:2]
            raise LatticeError(f"no meet for ({a}, {b})", (a, b))
        self._max = maxima[0]
        self._min = minima[0]
        self._qmask = self._certify()

    # -- construction helpers -------------------------------------------------

    def _topological_order(self) -> list[int]:
        """Maxima first; raises on a cycle in the cover relation."""
        n = len(self.elements)
        indeg = [len(self._parents[i]) for i in range(n)]
        order = [i for i in range(n) if indeg[i] == 0]
        head = 0
        while head < len(order):
            v = order[head]
            head += 1
            for c in self._children[v]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    order.append(c)
        if len(order) != n:
            raise ValueError("cycle in covers")
        return order

    def _compute_upsets(self) -> list[int]:
        up = [0] * len(self.elements)
        for v in self._toporder:  # parents precede their children
            mask = 1 << self._pos[v]
            for p in self._parents[v]:
                mask |= up[p]
            up[v] = mask
        return up

    def _downsets(self) -> list[int]:
        if self._down is None:
            down = [0] * len(self.elements)
            for v in reversed(self._toporder):
                mask = 1 << self._pos[v]
                for c in self._children[v]:
                    mask |= down[c]
                down[v] = mask
            self._down = down
        return self._down

    def _leq_idx(self, i: int, j: int) -> bool:
        return bool((self._up[i] >> self._pos[j]) & 1)

    def _check_reduced(self) -> None:
        # A cover implied by a longer path u > c > ... >= l puts l at least
        # two below u in longest-path depth from the maxima, so only covers
        # that skip a depth need the bitset test (on a weak order, none).
        depth = [0] * len(self.elements)
        for v in self._toporder:
            for c in self._children[v]:
                depth[c] = max(depth[c], depth[v] + 1)
        for iu, cs in enumerate(self._children):
            for il in cs:
                if depth[il] > depth[iu] + 1 and any(self._leq_idx(il, c) for c in cs if c != il):
                    u, l = self.elements[iu], self.elements[il]
                    raise ValueError(
                        f"cover ({u!r}, {l!r}) is implied by other covers (not transitively reduced)"
                    )

    def _certify(self) -> list[int]:
        """Join every two upper covers of each element; return the arrows of
        each Q(x, dp(x)) as a bitmask, bit a*m + b for the arrow ys[a] -> ys[b]
        on the m sorted upper covers ys.  With the unique extremes already
        checked, these joins prove the lattice axioms (module docstring)."""
        children = self._children
        qmask = [0] * len(self.elements)
        for x, ys in enumerate(self._parents):
            m = len(ys)
            mask = 0
            for a in range(m):
                for b in range(a + 1, m):
                    ds = children[self._join_idx(ys[a], ys[b])]
                    if ys[a] not in ds:
                        mask |= 1 << (a * m + b)
                    if ys[b] not in ds:
                        mask |= 1 << (b * m + a)
            qmask[x] = mask
        return qmask

    def _join_idx(self, i: int, j: int) -> int:
        # Bits sit at topological positions, maxima first, so any element of
        # the intersection that is comparable to all others must be its
        # highest set bit; the final equality test certifies the minimum.
        ub = self._up[i] & self._up[j]
        if ub:
            m = self._toporder[ub.bit_length() - 1]
            if self._up[m] == ub:
                return m
        raise LatticeError(
            f"no join for ({self.elements[i]}, {self.elements[j]})",
            (self.elements[i], self.elements[j]),
        )

    def _meet_idx(self, i: int, j: int) -> int:
        down = self._downsets()
        lb = down[i] & down[j]
        if lb:
            m = self._toporder[(lb & -lb).bit_length() - 1]
            if down[m] == lb:
                return m
        raise LatticeError(
            f"no meet for ({self.elements[i]}, {self.elements[j]})",
            (self.elements[i], self.elements[j]),
        )

    # -- public API ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def index(self, name: str) -> int:
        try:
            return self._index[str(name)]
        except KeyError:
            raise ValueError(f"unknown element {name!r}") from None

    @property
    def maximum(self) -> str:
        return self.elements[self._max]

    @property
    def minimum(self) -> str:
        return self.elements[self._min]

    def leq(self, x: str, y: str) -> bool:
        """x <= y in the lattice order."""
        return self._leq_idx(self.index(x), self.index(y))

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
        return {self.elements[p] for p in self._parents[self.index(x)]}

    def lower_covers(self, x: str) -> set[str]:
        """ds(x): the elements covered by x."""
        return {self.elements[c] for c in self._children[self.index(x)]}

    def interval(self, x: str, y: str) -> list[str]:
        """Elements z with x <= z <= y, in declaration order."""
        mask = self._up[self.index(x)] & self._downsets()[self.index(y)]
        found = []
        while mask:
            low = mask & -mask
            found.append(self._toporder[low.bit_length() - 1])
            mask ^= low
        return [self.elements[i] for i in sorted(found)]

    @property
    def covers(self) -> Covers:
        """The (upper, lower) name pairs in cover order."""
        return Covers(self.elements, self._upper, self._lower)

    def __repr__(self):
        return f"FiniteLattice({len(self.elements)} elements, {len(self._upper)} covers)"


class Covers(Sequence):
    """(upper, lower) name pairs in cover order, viewed through the index
    arrays (len costs nothing); equal to any sequence of the same pairs."""

    def __init__(self, elements, upper, lower):
        self._names, self._upper, self._lower = elements, upper, lower

    def __len__(self):
        return len(self._upper)

    def __getitem__(self, k):
        return self._names[self._upper[k]], self._names[self._lower[k]]

    def __iter__(self):
        name = self._names.__getitem__
        return zip(map(name, self._upper.tolist()), map(name, self._lower.tolist()))

    def __eq__(self, other):
        return isinstance(other, Sequence) and tuple(self) == tuple(other)

    def __repr__(self):
        return repr(tuple(self))


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
    full subquiver of Q(x, dp(x)) on Y, read off the mask the constructor
    stored.  Loops never occur and arrows are never multiple.
    """
    dp = lat.upper_covers(x)
    ys = [str(y) for y in (dp if ys is None else ys)]
    if not ys:
        raise ValueError("Y must be nonempty")
    if len(set(ys)) != len(ys):
        raise ValueError("Y has repeated elements")
    stray = [y for y in ys if y not in dp]
    if stray:
        raise ValueError(f"{stray[0]!r} is not an upper cover of {x!r}")
    ix = lat.index(x)
    labels = [lat.elements[y] for y in lat._parents[ix]]
    m, mask = len(labels), lat._qmask[ix]
    rows = [a for a, y in enumerate(labels) if y in ys]
    adj = [[(mask >> (a * m + b)) & 1 for b in rows] for a in rows]
    return Quiver([labels[a] for a in rows], np.array(adj, dtype=np.int64))


def fpdim_lattice(lat: FiniteLattice, tol: float = 1e-12) -> tuple[float, str | None]:
    """FP dimension of a finite lattice, with a witness element.

    Maximizes rho(Q(x, dp(x))) over all x below the maximum; elements with a
    single upper cover contribute 0 and are skipped.  Ties go to the first
    element in declaration order; a one-element lattice gives (0.0, None).
    Each Q(x, dp(x)) is the arrow mask stored by the constructor, so no join
    is computed here, and within one call each distinct (size, mask) has its
    quiver built and its spectral radius computed once (the E6 weak order
    has 99 among 50,567).
    """
    best = 0.0
    witness = None
    rhos: dict[tuple[int, int], float] = {}
    for x, ys in enumerate(lat._parents):
        if x == lat._max:
            continue
        if witness is None:
            witness = x
        m = len(ys)
        if m <= 1:
            continue
        key = (m, lat._qmask[x])
        rho = rhos.get(key)
        if rho is None:
            rho = rhos[key] = spectral_radius(q_of(lat, lat.elements[x]), tol=tol)
        if rho > best + tol:
            best = rho
            witness = x
    return best, (None if witness is None else lat.elements[witness])


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
