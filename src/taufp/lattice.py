"""Finite lattices from Hasse covers, and their Frobenius-Perron dimension.

A lattice is stored by its Hasse diagram: cover pairs (upper, lower) with
upper covering lower.  Reachability is kept as ancestor bitsets (one Python
int per element), which makes joins and meets cheap even on weak orders
with tens of thousands of elements.  The FP dimension of a lattice scans,
for each non-maximal element x, the quiver on the upper covers of x whose
arrows y -> y' record that y is not a lower cover of y v y'.  The scan works
on element indices, and each distinct quiver has its spectral radius
computed once per call.
"""

from __future__ import annotations

import numpy as np

from .errors import LatticeError
from .quiver import Quiver
from .spectral import spectral_radius

__all__ = [
    "FiniteLattice",
    "from_covers",
    "opposite",
    "q_of",
    "fpdim_lattice",
    "lattice_to_dict",
    "lattice_from_dict",
    "FULL_VALIDATION_MAX",
]

# full pairwise join/meet validation is O(|L|^2); above this size we rely on
# structural checks plus on-demand join computation (which still detects a
# missing join whenever one is requested)
FULL_VALIDATION_MAX = 600


class FiniteLattice:
    """Validated finite lattice. Use :func:`from_covers` to build one."""

    def __init__(self, elements, covers, _validate_pairs=None):
        self.elements: tuple[str, ...] = tuple(str(e) for e in elements)
        if not self.elements:
            raise ValueError("a lattice needs at least one element")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate element names")
        self._index = {e: i for i, e in enumerate(self.elements)}
        n = len(self.elements)
        self.covers: tuple[tuple[str, str], ...] = tuple(
            (str(u), str(l)) for u, l in covers
        )
        self._parents: list[list[int]] = [[] for _ in range(n)]  # upper covers
        self._children: list[list[int]] = [[] for _ in range(n)]  # lower covers
        seen = set()
        for u, l in self.covers:
            if u not in self._index:
                raise ValueError(f"cover references unknown element {u!r}")
            if l not in self._index:
                raise ValueError(f"cover references unknown element {l!r}")
            if u == l:
                raise ValueError(f"cover ({u!r}, {l!r}) relates an element to itself")
            iu, il = self._index[u], self._index[l]
            if (iu, il) in seen:
                raise ValueError(f"duplicate cover ({u!r}, {l!r})")
            seen.add((iu, il))
            self._children[iu].append(il)
            self._parents[il].append(iu)

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
        if _validate_pairs:
            self._validate_joins_meets()
        if len(maxima) != 1:
            names = sorted(self.elements[i] for i in maxima)
            raise LatticeError(
                f"no join for ({names[0]}, {names[1]})" if len(names) > 1 else "no maximum",
                tuple(names[:2]) if len(names) > 1 else None,
            )
        if len(minima) != 1:
            names = sorted(self.elements[i] for i in minima)
            raise LatticeError(
                f"no meet for ({names[0]}, {names[1]})" if len(names) > 1 else "no minimum",
                tuple(names[:2]) if len(names) > 1 else None,
            )
        self._max = maxima[0]
        self._min = minima[0]

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
        for u, l in self.covers:
            iu, il = self._index[u], self._index[l]
            for c in self._children[iu]:
                if c != il and self._leq_idx(il, c):
                    raise ValueError(
                        f"cover ({u!r}, {l!r}) is implied by other covers (not transitively reduced)"
                    )

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

    def _validate_joins_meets(self) -> None:
        n = len(self.elements)
        for i in range(n):
            for j in range(i + 1, n):
                self._join_idx(i, j)
                self._meet_idx(i, j)

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

    def __repr__(self):
        return f"FiniteLattice({len(self.elements)} elements, {len(self.covers)} covers)"


def from_covers(elements, covers, validate: bool | None = None) -> FiniteLattice:
    """Build a validated lattice from (upper, lower) cover pairs.

    validate=None runs the full pairwise join/meet validation when the
    lattice has at most FULL_VALIDATION_MAX elements; True forces it, False
    keeps only the structural checks (acyclicity, transitive reduction,
    unique maximum and minimum).
    """
    elements = list(elements)
    if validate is None:
        validate = len(elements) <= FULL_VALIDATION_MAX
    return FiniteLattice(elements, covers, _validate_pairs=validate)


def opposite(lat: FiniteLattice) -> FiniteLattice:
    """Same elements, reversed covers (the order-dual lattice)."""
    return FiniteLattice(
        lat.elements, [(l, u) for u, l in lat.covers], _validate_pairs=False
    )


def _q_adj(lat: FiniteLattice, ys: list[int]) -> np.ndarray:
    """Adjacency matrix of Q on upper covers ys (indices, declaration order)."""
    m = len(ys)
    adj = np.zeros((m, m), dtype=np.int64)
    for a in range(m):
        for b in range(a + 1, m):
            ds = lat._children[lat._join_idx(ys[a], ys[b])]
            if ys[a] not in ds:
                adj[a, b] = 1
            if ys[b] not in ds:
                adj[b, a] = 1
    return adj


def q_of(lat: FiniteLattice, x: str, ys=None) -> Quiver:
    """Quiver on a set of upper covers of x.

    Vertices are the chosen covers Y (all of dp(x) when ys is None); there
    is one arrow y -> y' exactly when y is not a lower cover of y v y'.
    Loops never occur and arrows are never multiple.
    """
    dp = lat.upper_covers(x)
    if ys is None:
        ys = dp
    ys = [str(y) for y in ys]
    if not ys:
        raise ValueError("Y must be nonempty")
    if len(set(ys)) != len(ys):
        raise ValueError("Y has repeated elements")
    stray = [y for y in ys if y not in dp]
    if stray:
        raise ValueError(f"{stray[0]!r} is not an upper cover of {x!r}")
    idx = sorted(lat.index(y) for y in ys)
    return Quiver([lat.elements[i] for i in idx], _q_adj(lat, idx))


def fpdim_lattice(lat: FiniteLattice, tol: float = 1e-12) -> tuple[float, str | None]:
    """FP dimension of a finite lattice, with a witness element.

    Maximizes rho(Q(x, dp(x))) over all x below the maximum; elements with a
    single upper cover contribute 0 and are skipped.  Ties go to the first
    element in declaration order; a one-element lattice gives (0.0, None).
    Within one call each distinct adjacency matrix of Q(x, dp(x)) has its
    spectral radius computed once (the E6 weak order has 99 among 50,567).
    """
    best = 0.0
    witness = None
    rhos: dict[tuple[int, bytes], float] = {}
    for x in range(len(lat)):
        if x == lat._max:
            continue
        if witness is None:
            witness = x
        ys = sorted(lat._parents[x])
        if len(ys) <= 1:
            continue
        adj = _q_adj(lat, ys)
        key = (len(ys), adj.tobytes())
        rho = rhos.get(key)
        if rho is None:
            rho = spectral_radius(Quiver([lat.elements[y] for y in ys], adj), tol=tol)
            rhos[key] = rho
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


def lattice_from_dict(data: dict, validate: bool | None = None) -> FiniteLattice:
    if not isinstance(data, dict) or "elements" not in data or "covers" not in data:
        raise ValueError('lattice JSON needs "elements" and "covers" keys')
    covers = []
    for c in data["covers"]:
        if len(c) != 2:
            raise ValueError(f"cover {c!r} is not an [upper, lower] pair")
        covers.append((c[0], c[1]))
    return from_covers(data["elements"], covers, validate=validate)
