"""Combinatorial module calculus of connected Nakayama algebras.

A connected Nakayama algebra is determined by its shape (linear or cyclic
Gabriel quiver, arrows j+1 -> j) and its Kupisch series, the lengths of the
indecomposable projectives P(i) = the projective with top S(i).  Every
indecomposable module is uniserial and written M(i; l) by socle vertex i
and length l, with top i + l - 1 (mod n when cyclic).  The AR translate
acts by a socle shift: tau M(i; l) = M(i-1; l) for non-projective M.

Hom dimensions come from the uniserial image count

    dim Hom(M(a;k), M(b;l)) = #{ j in [1, min(k,l)] : j = a + k - b },

congruence mod n in the cyclic case; Ext^1 comes from the projective
presentation 0 -> K -> P(top M) -> M -> 0.  Both closed forms are gated by
an exact linear-algebra oracle in the test suite before anything else here
is trusted.

Each algebra is validated once.  On first use it builds integer tables over
its indecomposables (module index, P(k), tau, syzygy, brick and tau-rigid
flags), linear in their number, and cross-checks the flags against the Hom
formula.  Public functions check a module argument with one index lookup
and then read the tables or evaluate the closed forms, so single queries
stay cheap at any size.  The quadratic Hom and Ext tables, the pairs, their
order and lattice and the semibricks are built only by the budgeted
enumerations.  All of it lives on the instance and goes away with the
algebra.

The enumerations work on bitmasks.  A tau-tilting pair is a module mask over
the indecomposables and a vertex mask, and its name is read off the masks.
The pair order is kept transposed, as masks over the pairs: per module, the
pairs with a summand N such that Hom(N, tau M) != 0, and per vertex, the
pairs with that vertex in their projective part.  A down-set is then a few
ands of those masks, not a comparison with every other pair.  The Hasse
covers are the mutations (Adachi-Iyama-Reiten, Compos. Math. 150 (2014),
Thm 2.18): the pairs are grouped by their almost complete sub-pairs, every
group must hold exactly two pairs, and the order decides which of the two
lies above.  A closure certificate then checks that these covers generate
exactly the pair order.  The FP dimension reads the Ext blocks of the
maximal semibricks only, from one Ext table: the spectral radius is
monotone on principal submatrices, so smaller semibricks cannot exceed
them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BudgetError, ConsistencyError
from .lattice import FiniteLattice
from .quiver import Quiver, _integer
from .spectral import spectral_radius

__all__ = [
    "NakayamaAlgebra",
    "Uniserial",
    "TauPair",
    "make_algebra",
    "projective_module",
    "indecomposables",
    "tau",
    "hom_dim",
    "ext_dim",
    "is_brick",
    "bricks",
    "is_tau_rigid_module",
    "is_tau_rigid_pair",
    "tau_tilting_pairs",
    "tau_tiltp_lattice",
    "semibricks",
    "ext_quiver",
    "fpdim_nakayama",
    "bongartz_completion",
    "self_ext_bound",
    "DEFAULT_MAX_N",
]

DEFAULT_MAX_N = 7


@dataclass(frozen=True)
class Uniserial:
    """Uniserial module M(socle; len); existence depends on the algebra."""

    socle: int
    length: int

    def __str__(self):
        return f"M({self.socle};{self.length})"


@dataclass(frozen=True)
class NakayamaAlgebra:
    """Connected Nakayama algebra given by shape and Kupisch series."""

    shape: str  # "linear" or "cyclic"
    kupisch: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.kupisch)

    @property
    def cyclic(self) -> bool:
        return self.shape == "cyclic"

    def vertex(self, v: int) -> int:
        """Normalize a vertex index to 1..n (cyclic identification)."""
        if self.cyclic:
            return (v - 1) % self.n + 1
        return v

    @cached_property
    def _tables(self) -> _Tables:
        return _Tables(self)

    def __str__(self):
        return f"{self.shape}[{','.join(map(str, self.kupisch))}]"


def make_algebra(shape: str, kupisch) -> NakayamaAlgebra:
    """Validate a Kupisch series and build the algebra.

    linear: l_1 = 1 and 2 <= l_i <= min(l_{i-1} + 1, i) for i >= 2;
    cyclic: l_i >= 2 and l_i <= l_{i-1} + 1 for all i mod n.
    """
    if shape not in ("linear", "cyclic"):
        raise ValueError(f"shape must be 'linear' or 'cyclic', got {shape!r}")
    ls = tuple(_integer(x, "Kupisch entry") for x in kupisch)
    if not ls:
        raise ValueError("Kupisch series is empty")
    n = len(ls)
    if shape == "linear":
        if ls[0] != 1:
            raise ValueError("linear Kupisch series must start with l_1 = 1")
        for i in range(1, n):
            if not 2 <= ls[i] <= ls[i - 1] + 1:
                raise ValueError(f"Kupisch violation at index {i + 1}: l = {ls[i]}")
            if ls[i] > i + 1:
                raise ValueError(f"Kupisch violation at index {i + 1}: l = {ls[i]} > {i + 1}")
    else:
        for i in range(n):
            if ls[i] < 2:
                raise ValueError(f"Kupisch violation at index {i + 1}: cyclic needs l >= 2")
            if ls[i] > ls[i - 1] + 1:  # i - 1 wraps to the end for i = 0
                raise ValueError(f"Kupisch violation at index {i + 1}: l = {ls[i]}")
    return NakayamaAlgebra(shape, ls)


@dataclass(frozen=True)
class TauPair:
    """Basic pair (M, P): module summands plus projective vertices P(k)."""

    mods: frozenset[Uniserial]
    projs: frozenset[int]

    def name(self) -> str:
        ms = "+".join(str(m) for m in sorted(self.mods, key=lambda m: (m.socle, m.length)))
        ps = "+".join(f"P({k})" for k in sorted(self.projs))
        return f"{ms or '0'}|{ps or '0'}"

    def __str__(self):
        return self.name()


def _hom(a, m: Uniserial, n_: Uniserial) -> int:
    """Closed-form dim Hom(M, N): the number of admissible common image lengths.

    Only a.n and a.cyclic are read, so a's tables may stand in for a.
    """
    bound = min(m.length, n_.length)
    shift = m.socle + m.length - n_.socle
    if not a.cyclic:
        return 1 if 1 <= shift <= bound else 0
    first = shift % a.n or a.n
    if first > bound:
        return 0
    return (bound - first) // a.n + 1


def _bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _row_masks(matrix) -> list[int]:
    """Bitmask of the true entries of each row of a boolean matrix."""
    packed = np.packbits(np.asarray(matrix, dtype=bool), axis=1, bitorder="little")
    data, size = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(data[k:k + size], "little") for k in range(0, len(data), size)]


def _mask(flags) -> int:
    """Bitmask of the true entries of a boolean sequence."""
    return _row_masks([flags])[0]


def _union(masks: list[int], select: int) -> int:
    """Bitwise or of masks[i] over the set bits i of select."""
    out = 0
    for i in _bits(select):
        out |= masks[i]
    return out


def _transpose(masks: list[int], width: int) -> list[int]:
    """The bit matrix masks (row j = masks[j], bits below width) read by
    columns: entry b is the mask of the rows j with bit b set."""
    size = (width + 7) // 8
    rows = np.frombuffer(b"".join(m.to_bytes(size, "little") for m in masks), dtype=np.uint8)
    bits = np.unpackbits(rows.reshape(len(masks), size), axis=1, count=width, bitorder="little")
    return _row_masks(bits.T)


class _Tables:
    """Tables over the indecomposables of one algebra, sorted by (socle,
    length).  The linear ones (index, P(k), tau, syzygy, brick and tau-rigid
    flags) are built and cross-checked at once; the quadratic Hom and Ext
    tables, the pairs, their order and lattice and the semibricks only when
    an enumeration kernel first asks for them."""

    def __init__(self, a: NakayamaAlgebra):
        self.name = name = str(a)
        self.n = n = a.n
        self.cyclic = a.cyclic
        self.mods = mods = sorted(
            (Uniserial(a.vertex(t - l + 1), l)
             for t in range(1, n + 1) for l in range(1, a.kupisch[t - 1] + 1)),
            key=lambda m: (m.socle, m.length),
        )
        self.index = index = {m: i for i, m in enumerate(mods)}
        self.proj = [index[Uniserial(a.vertex(k - l + 1), l)] for k, l in enumerate(a.kupisch, 1)]
        # P(top M), and K in 0 -> K -> P(top M) -> M -> 0 (-1 on projectives)
        self.cover = [self.proj[a.vertex(m.socle + m.length - 1) - 1] for m in mods]
        self.syzygy = [
            -1 if p == i else index[Uniserial(mods[p].socle, mods[p].length - m.length)]
            for i, (m, p) in enumerate(zip(mods, self.cover))
        ]
        self.tau = [
            -1 if p == i else index[Uniserial(a.vertex(m.socle - 1), m.length)]
            for i, (m, p) in enumerate(zip(mods, self.cover))
        ]
        self.brick = [m.length <= n for m in mods]
        self.rigid = [t < 0 or m.length < n for m, t in zip(mods, self.tau)]
        for i, (m, t) in enumerate(zip(mods, self.tau)):
            if self.brick[i] != (self.h(i, i) == 1):
                raise ConsistencyError(f"{name}: brick criterion disagrees with End(M) on {m}")
            if self.rigid[i] != (t < 0 or self.h(i, t) == 0):
                raise ConsistencyError(
                    f"{name}: tau-rigidity criterion disagrees with Hom(M, tau M) on {m}"
                )

    def h(self, i: int, j: int) -> int:
        """dim Hom(M_i, M_j) from the closed form."""
        return _hom(self, self.mods[i], self.mods[j])

    def ext(self, i: int, j: int) -> int:
        """dim Ext^1(M_i, M_j) = hom(K, N) - hom(P0, N) + hom(M, N) for
        0 -> K -> P0 -> M -> 0; a negative value means the Hom formula is
        broken and raises."""
        k = self.syzygy[i]
        if k < 0:
            return 0
        val = self.h(k, j) - self.h(self.cover[i], j) + self.h(i, j)
        if val < 0:
            raise ConsistencyError(f"{self.name}: negative Ext: the Ext formula went "
                                   f"negative on ({self.mods[i]}, {self.mods[j]})")
        return val

    @cached_property
    def hom(self) -> np.ndarray:
        """hom[i, j] = dim Hom(M_i, M_j)."""
        mods = self.mods
        return np.array([[_hom(self, m, x) for x in mods] for m in mods], dtype=np.int64)

    @cached_property
    def ext_table(self) -> np.ndarray:
        """The Ext formula of :meth:`ext` over all modules at once: row i is
        hom[K] - hom[P0] + hom[M_i] for non-projective M_i, else zero."""
        hom = self.hom
        syz, cover = np.array(self.syzygy), np.array(self.cover)
        rows = np.flatnonzero(syz >= 0)
        table = np.zeros_like(hom)
        table[rows] = hom[syz[rows]] - hom[cover[rows]] + hom[rows]
        bad = np.argwhere(table < 0)
        if len(bad):
            i, j = bad[0]
            raise ConsistencyError(f"{self.name}: negative Ext: the Ext table went "
                                   f"negative on ({self.mods[i]}, {self.mods[j]})")
        return table

    @cached_property
    def tau_hom(self) -> list[int]:
        """Per module M: the modules N with Hom(N, tau M) != 0."""
        cols = _row_masks(self.hom.T)
        return [0 if t < 0 else cols[t] for t in self.tau]

    @cached_property
    def proj_hom(self) -> list[int]:
        """Per module M: the vertices k (bit k - 1) with Hom(P(k), M) != 0."""
        return _row_masks(self.hom[self.proj].T)

    def find(self, m: Uniserial) -> int:
        try:
            return self.index[m]
        except KeyError:
            raise ValueError(f"{m} does not exist over {self.name}") from None

    def tau_down(self, mmask: int) -> int:
        """Modules N with Hom(N, tau M) != 0 for some summand M in mmask."""
        return _union(self.tau_hom, mmask)

    @cached_property
    def pairs(self) -> tuple[list[str], list[int], list[int]]:
        """The tau-tilting pairs sorted by name: their names, module bitmasks
        (over indecomposables) and vertex bitmasks (bit k - 1 for P(k)).
        Index order is (socle, length) order, so each name is read straight
        off the masks."""
        n, tau_hom = self.n, self.tau_hom
        # bad[i]: modules that cannot sit next to M_i in a tau-rigid module
        bad = [row | col for row, col in zip(tau_hom, _transpose(tau_hom, len(tau_hom)))]
        labels = [str(m) for m in self.mods]
        found: list[tuple[str, int, int]] = []

        def dfs(chosen: int, head: str, count: int, allowed: int, vmask: int) -> None:
            if count + allowed.bit_count() + vmask.bit_count() < n:
                return  # too few modules and vertices left to complete a pair
            for ks in itertools.combinations(_bits(vmask), n - count):
                tail = "+".join(f"P({k + 1})" for k in ks) or "0"
                found.append((f"{head or '0'}|{tail}", chosen, sum(1 << k for k in ks)))
            if count == n:
                return
            for i in _bits(allowed):
                dfs(chosen | 1 << i, f"{head}+{labels[i]}" if head else labels[i], count + 1,
                    allowed & -(2 << i) & ~bad[i], vmask & ~self.proj_hom[i])

        dfs(0, "", 0, _mask(self.rigid), (1 << n) - 1)
        found.sort()
        names, mms, pms = zip(*found)
        return list(names), list(mms), list(pms)

    @cached_property
    def tau_pairs(self) -> list[TauPair]:
        """The pairs as TauPair values, in pair order."""
        mods = self.mods
        _, mms, pms = self.pairs
        return [TauPair(frozenset(mods[i] for i in _bits(mm)), frozenset(k + 1 for k in _bits(pm)))
                for mm, pm in zip(mms, pms)]

    @cached_property
    def pair_lower(self) -> list[int]:
        """Strict down-sets of the pair order as bitmasks over self.pairs:
        (M, P) >= (N, Q) iff Hom(N, tau M) = 0 and P is a subset of Q.

        Over the pairs, free[i] masks those with no summand N such that
        Hom(N, tau M_i) != 0, and vert[k] those with k + 1 in Q, so the
        down-set of (M, P) is the and of free over M and of vert over P."""
        _, mms, pms = self.pairs
        holds = _transpose(mms, len(self.mods))  # per module, the pairs holding it
        vert = _transpose(pms, self.n)
        full = (1 << len(mms)) - 1
        free = [full & ~_union(holds, self.tau_down(1 << i)) for i in range(len(self.mods))]
        lower = []
        for x, (mm, pm) in enumerate(zip(mms, pms)):
            down = full ^ 1 << x
            for i in _bits(mm):
                down &= free[i]
            for k in _bits(pm):
                down &= vert[k]
            lower.append(down)
        return lower

    def mutations(self) -> tuple[np.ndarray, np.ndarray]:
        """The Hasse covers of the pair order as two index arrays (upper,
        lower), sorted.  They are the mutations: the two completions of each
        almost complete pair, oriented by the order."""
        names, mms, pms = self.pairs
        lower = self.pair_lower
        completions: dict[int, list[int]] = {}
        for j, (mm, pm) in enumerate(zip(mms, pms)):
            whole = mm << self.n | pm
            for b in _bits(whole):
                completions.setdefault(whole ^ 1 << b, []).append(j)
        for js in completions.values():
            if len(js) != 2:
                raise ConsistencyError(
                    f"{self.name}: mutation: an almost complete pair has {len(js)} "
                    f"completions ({', '.join(names[j] for j in js)})")
        upper, covered = [], []
        for a, b in completions.values():
            if (lower[a] >> b & 1) == (lower[b] >> a & 1):
                raise ConsistencyError(f"{self.name}: tau-tilting order not antisymmetric "
                                       f"on the exchange pair ({names[a]}, {names[b]})")
            if lower[b] >> a & 1:
                a, b = b, a
            upper.append(a)
            covered.append(b)
        order = np.lexsort((covered, upper))
        return np.array(upper)[order], np.array(covered)[order]

    def certify(self, upper: np.ndarray, covered: np.ndarray) -> None:
        """Raise unless the closure of the covers is exactly the pair order.
        Down-sets grow strictly along the order, so in popcount order every
        lower cover is closed before the pairs above it; one still open (-1)
        spoils the closure and fails the check.  O(#covers) ors."""
        names, lower = self.pairs[0], self.pair_lower
        children: list[list[int]] = [[] for _ in names]
        for u, c in zip(upper.tolist(), covered.tolist()):
            children[u].append(c)
        closed = [-1] * len(names)
        for x in sorted(range(len(names)), key=lambda x: lower[x].bit_count()):
            down = 0
            for c in children[x]:
                down |= closed[c] | 1 << c
            if down != lower[x]:
                raise ConsistencyError(f"{self.name}: pair order certificate: the covers "
                                       f"below {names[x]} do not close to its down-set")
            closed[x] = lower[x]

    @cached_property
    def pair_lattice(self) -> FiniteLattice:
        """The pair lattice on the mutation covers.  Raises ConsistencyError
        unless every almost complete pair has two completions, every
        mutation is oriented one way, the extremes are (A, 0) and (0, A),
        and the covers close to exactly the pair order."""
        upper, covered = self.mutations()
        names, mms, pms = self.pairs
        lat = FiniteLattice(names, upper, covered)
        ends = (mms[lat._max], pms[lat._max], mms[lat._min], pms[lat._min])
        if ends != (sum(1 << p for p in self.proj), 0, 0, (1 << self.n) - 1):
            raise ConsistencyError(f"{self.name}: tau-tilting lattice extremes are wrong")
        self.certify(upper, covered)
        return lat

    @cached_property
    def semibrick_masks(self) -> tuple[list[int], list[int]]:
        """All semibricks in search order, and the maximal ones, as bitmasks
        over indecomposables."""
        hom = self.hom
        clash = _row_masks((hom != 0) | (hom.T != 0))
        every: list[int] = []
        maximal: list[int] = []

        # free: the bricks Hom-orthogonal to all of chosen (clash[i] holds i),
        # empty exactly when chosen is maximal
        def dfs(chosen: int, allowed: int, free: int) -> None:
            every.append(chosen)
            if not free:
                maximal.append(chosen)
            for i in _bits(allowed):
                dfs(chosen | 1 << i, allowed & -(2 << i) & ~clash[i], free & ~clash[i])

        bricks = _mask(self.brick)
        dfs(0, bricks, bricks)
        return every, maximal

    @cached_property
    def semibricks(self) -> list[frozenset[Uniserial]]:
        mods = self.mods
        return [frozenset(mods[i] for i in _bits(sb)) for sb in self.semibrick_masks[0]]


def module(a: NakayamaAlgebra, socle: int, length: int) -> Uniserial:
    """Normalized, existence-checked M(socle; length)."""
    m = Uniserial(a.vertex(socle), length)
    a._tables.find(m)
    return m


def projective_module(a: NakayamaAlgebra, k: int) -> Uniserial:
    """P(k): the projective with top S(k), via the Kupisch series."""
    k = a.vertex(k)
    if not 1 <= k <= a.n:
        raise ValueError(f"vertex {k} out of range")
    t = a._tables
    return t.mods[t.proj[k - 1]]


def indecomposables(a: NakayamaAlgebra) -> list[Uniserial]:
    """All uniserials, sorted by (socle, length); count is sum of the series."""
    return list(a._tables.mods)


def tau(a: NakayamaAlgebra, m: Uniserial) -> Uniserial | None:
    """AR translate: socle shift M(i;l) -> M(i-1;l); None on projectives."""
    t = a._tables
    j = t.tau[t.find(m)]
    return None if j < 0 else t.mods[j]


def hom_dim(a: NakayamaAlgebra, m: Uniserial, n_: Uniserial) -> int:
    """dim Hom(M, N): the number of admissible common image lengths."""
    a._tables.find(m), a._tables.find(n_)
    return _hom(a, m, n_)


def ext_dim(a: NakayamaAlgebra, m: Uniserial, n_: Uniserial) -> int:
    """dim Ext^1(M, N) via 0 -> K -> P(top M) -> M -> 0.

    Ext^1(M,N) = hom(K,N) - hom(P0,N) + hom(M,N); a negative value would
    mean the Hom formula is broken and raises.
    """
    t = a._tables
    return t.ext(t.find(m), t.find(n_))


def is_brick(a: NakayamaAlgebra, m: Uniserial) -> bool:
    """Length criterion l <= n, cross-checked against End = k."""
    t = a._tables
    return t.brick[t.find(m)]


def bricks(a: NakayamaAlgebra) -> list[Uniserial]:
    return [m for m, b in zip(a._tables.mods, a._tables.brick) if b]


def is_tau_rigid_module(a: NakayamaAlgebra, m: Uniserial) -> bool:
    """Projective or l < n, cross-checked against Hom(M, tau M) = 0."""
    t = a._tables
    return t.rigid[t.find(m)]


def is_tau_rigid_pair(a: NakayamaAlgebra, pair: TauPair) -> bool:
    """Hom(M, tau M) = 0 over all summand pairs and Hom(P(k), M) = 0."""
    t = a._tables
    idx = [t.find(m) for m in pair.mods]
    for k in pair.projs:
        if a.vertex(k) != k or not 1 <= k <= a.n:
            raise ValueError(f"projective vertex {k} out of range")
    taus = [t.tau[i] for i in idx if t.tau[i] >= 0]
    return not (any(t.h(i, j) for i in idx for j in taus)
                or any(t.h(t.proj[k - 1], i) for k in pair.projs for i in idx))


def _check_budget(a: NakayamaAlgebra, max_n: int) -> None:
    if a.n > max_n:
        raise BudgetError(f"{a} has n = {a.n} > enumeration bound {max_n}")
    len_cap = max(2 * a.n, 8)
    if max(a.kupisch) > len_cap:
        raise BudgetError(f"{a} has a projective longer than the length cap {len_cap}")


def tau_tilting_pairs(a: NakayamaAlgebra, max_n: int = DEFAULT_MAX_N) -> list[TauPair]:
    """All basic tau-tilting pairs: tau-rigid pairs with |M| + |P| = n."""
    _check_budget(a, max_n)
    return list(a._tables.tau_pairs)


def tau_tiltp_lattice(a: NakayamaAlgebra, max_n: int = DEFAULT_MAX_N) -> FiniteLattice:
    """The lattice of tau-tilting pairs; maximum (A,0), minimum (0,A)."""
    _check_budget(a, max_n)
    return a._tables.pair_lattice


def semibricks(a: NakayamaAlgebra, max_n: int = DEFAULT_MAX_N) -> list[frozenset[Uniserial]]:
    """All semibricks: Hom-orthogonal sets of bricks, the empty set included."""
    _check_budget(a, max_n)
    return list(a._tables.semibricks)


def ext_quiver(a: NakayamaAlgebra, mods) -> Quiver:
    """Quiver on a module set with dim Ext^1(S, S') arrows S -> S'."""
    t = a._tables
    idx = sorted({t.find(m) for m in mods})
    return Quiver([str(t.mods[i]) for i in idx], [[t.ext(i, j) for j in idx] for i in idx])


def fpdim_nakayama(
    a: NakayamaAlgebra, tol: float = 1e-12, max_n: int = DEFAULT_MAX_N
) -> float:
    """FP dimension: sup of rho over all semibrick Ext-quivers.

    rho is monotone on principal submatrices (Perron-Frobenius), so the
    maximal semibricks attain it; their Ext blocks are read from one table,
    and rho is computed once per distinct block (its entries in row-major
    order, whose count fixes the size)."""
    _check_budget(a, max_n)
    t = a._tables
    table = t.ext_table.tolist()
    rhos: dict[tuple[int, ...], float] = {}
    for sb in t.semibrick_masks[1]:
        idx = list(_bits(sb))
        block = tuple(table[i][j] for i in idx for j in idx)
        if block not in rhos:
            adj = np.array(block, dtype=np.int64).reshape(len(idx), len(idx))
            rhos[block] = spectral_radius(Quiver([str(t.mods[i]) for i in idx], adj), tol=tol)
    return max(rhos.values(), default=0.0)


def self_ext_bound(a: NakayamaAlgebra) -> int:
    """Largest self-extension dimension over all bricks (the d_b bound)."""
    t = a._tables
    return max((t.ext(i, i) for i, b in enumerate(t.brick) if b), default=0)


def bongartz_completion(a: NakayamaAlgebra, m: Uniserial, max_n: int = DEFAULT_MAX_N) -> TauPair:
    """Maximum tau-tilting pair containing M as a summand.

    For a non-projective tau-rigid M over a cyclic algebra this is the
    explicit completion M + sum_{j<l} M(i;j) + sum_{l<=k<n} P(i-1+k) with
    no projective slot; the result is verified maximal against the full
    enumeration.  Projective or linear inputs fall back to the search.
    """
    t = a._tables
    i = t.find(m)
    if not t.rigid[i]:
        raise ValueError(f"{m} is not tau-rigid over {a}")
    _check_budget(a, max_n)
    containing = _mask([mm >> i & 1 for mm in t.pairs[1]])
    if not containing:
        raise ConsistencyError(f"{a}: no tau-tilting pair contains {m}")
    maxima = [x for x in _bits(containing) if not containing & ~t.pair_lower[x] & ~(1 << x)]
    if len(maxima) != 1:
        raise ConsistencyError(f"{a}: Bongartz completion of {m} is not unique")
    found = t.tau_pairs[maxima[0]]
    if a.cyclic and t.tau[i] >= 0:
        mods = {m}
        mods.update(module(a, m.socle, j) for j in range(1, m.length))
        mods.update(projective_module(a, m.socle - 1 + k) for k in range(m.length, a.n))
        formula = TauPair(frozenset(mods), frozenset())
        if formula != found:
            raise ConsistencyError(
                f"{a}: Bongartz completion formula {formula} disagrees with enumeration {found}"
            )
    return found
