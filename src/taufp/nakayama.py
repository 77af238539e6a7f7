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

The enumerations work on bitmasks.  The pair search adds summands in
increasing index order, and one table (_Tables.bad) cuts the modules and
vertices left below each branch.  Its listing, pair_masks, yields each
tau-tilting pair as a module mask over the indecomposables and a vertex
mask, and builds no name.  Its count, pair_count, lists nothing: the number
of pairs below a search node depends only on how many summands are still
to go and which modules and vertices are still free, so it is memoized on
that state, and the CLI's nakayama report reads it (cyclic [20]*10 has
C(20, 10) = 184,756 pairs).  A mask becomes a TauPair only where a public
function returns one, and TauPair.name is the one formatter of pair names:
the pair order and lattice index the pairs sorted by it.  The pair order is
kept transposed, as masks over the pairs: per module, the pairs with a
summand N such that Hom(N, tau M) != 0, and per vertex, the pairs with that
vertex in their projective part.  A down-set is then a few ands of those
masks, not a comparison with every other pair.  The Hasse covers are the
mutations (Adachi-Iyama-Reiten,
Compos. Math. 150 (2014), Thm 2.18): the pairs are grouped by their almost
complete sub-pairs, every group must hold exactly two pairs, and the order
decides which of the two lies above.  A closure certificate then checks that
these covers generate exactly the pair order.  The FP dimension reads the
Ext blocks of the maximal semibricks only, from one Ext table: the spectral
radius is monotone on principal submatrices, so smaller semibricks cannot
exceed them.  Each maximal semibrick is sliced once, and only the distinct
blocks are kept, in order of their first semibricks (_maximal_blocks).  The
lattice kernel _largest_rho takes their maximum, once per distinct block,
with the tol rule of fpdim_lattice, and skips a block whose row- and
column-sum bound cannot beat the best.  sandwich derives its loop-free
supports from those distinct blocks, with no module-by-module support table.

sandwich needs no pair lattice either.  Label each cover x < y of the pair
lattice by its brick: the one brick in the torsion class of y that no
module of the torsion class of x maps to (Demonet-Iyama-Reading-Reiten-
Thomas, "Lattice theory of torsion classes", Trans. AMS Ser. B 10 (2023)).
The labels at x form a semibrick, every semibrick arises once (Asai,
"Semibricks", IMRN 2020), and Q(x, dp(x)) is taken to have the arrow
y -> y' exactly when Ext^1(B_y, B_y') != 0.  That last rule is checked, not
proved: the test suite compares it arrow by arrow with the mutation lattice
on every algebra with n <= 5 and on cyclic [16]*8.  The scans take n <= 10
by default (DEFAULT_SCAN_MAX_N), the pair enumerations n <= 7 (DEFAULT_MAX_N).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BudgetError, ConsistencyError
from .lattice import FiniteLattice, _bits, _largest_rho
from .quiver import Quiver, _integer
from .spectral import _check_tol

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
    "sandwich",
    "bongartz_completion",
    "self_ext_bound",
    "DEFAULT_MAX_N",
    "DEFAULT_SCAN_MAX_N",
]

# the largest n enumerated by default: the pair enumerations and lattice, and
# the semibrick scans, which need no pair lattice
DEFAULT_MAX_N = 7
DEFAULT_SCAN_MAX_N = 10


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
            if not 2 <= ls[i] <= ls[i - 1] + 1:  # so l_i <= i, by induction from l_1 = 1
                raise ValueError(f"Kupisch violation at index {i + 1}: l = {ls[i]}")
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


def _hom(a, m: Uniserial, n_: Uniserial):
    """Closed-form dim Hom(M, N): the number of admissible common image lengths.

    Only a.n and a.cyclic are read, so a's tables may stand in for a.  The
    formula uses operators only, so m and n_ may also carry integer arrays
    as socle and length, broadcast against each other (the Hom table is one
    such call)."""
    bound = m.length - (m.length - n_.length) * (m.length > n_.length)  # min(k, l)
    shift = m.socle + m.length - n_.socle
    if not a.cyclic:
        return 1 * ((1 <= shift) & (shift <= bound))
    first = (shift - 1) % a.n + 1
    return ((bound - first) // a.n + 1) * (first <= bound)


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
    an enumeration kernel first asks for them.  The pair search has one
    branching rule (bad) and two uses: pair_masks lists the pairs, for the
    public pair functions, the lattice and Bongartz, and pair_count only
    counts them.  Pairs are kept as masks and names; tau_pair makes a
    TauPair on each call, and none is kept."""

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
        socle, length = np.array([(m.socle, m.length) for m in self.mods], dtype=np.int64).T
        rows = Uniserial(socle[:, None], length[:, None])
        return _hom(self, rows, Uniserial(socle, length)).astype(np.int64)

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

    @cached_property
    def bad(self) -> list[int]:
        """The branching rule of the pair search, which adds summands in
        increasing index order: below a node that adds M_i, the modules
        still allowed are those after i that are not in bad[i], the modules
        that cannot sit next to M_i in a tau-rigid module (Hom(M_i, tau N)
        != 0 or Hom(N, tau M_i) != 0), and the vertices still free are those
        k with Hom(P(k), M_i) = 0 (proj_hom[i] clear)."""
        tau_hom = self.tau_hom
        return [row | col for row, col in zip(tau_hom, _transpose(tau_hom, len(tau_hom)))]

    @cached_property
    def pair_masks(self) -> list[tuple[int, int]]:
        """The tau-tilting pairs in search order, each as its module bitmask
        (over indecomposables) and vertex bitmask (bit k - 1 for P(k))."""
        n, bad, proj_hom = self.n, self.bad, self.proj_hom
        found: list[tuple[int, int]] = []

        def dfs(chosen: int, count: int, allowed: int, vmask: int) -> None:
            if count + allowed.bit_count() + vmask.bit_count() < n:
                return  # too few modules and vertices left to complete a pair
            for ks in itertools.combinations(_bits(vmask), n - count):
                found.append((chosen, sum(1 << k for k in ks)))
            if count == n:
                return
            for i in _bits(allowed):
                dfs(chosen | 1 << i, count + 1, allowed & -(2 << i) & ~bad[i],
                    vmask & ~proj_hom[i])

        dfs(0, 0, _mask(self.rigid), (1 << n) - 1)
        return found

    @cached_property
    def pair_count(self) -> int:
        """len(pair_masks), by the same search without listing the pairs.
        A node's pairs are C(free vertices, summands to go) completed at
        once plus those below its children, and that count depends on the
        state (summands to go, modules still allowed, vertices still free)
        only, not on which summands were chosen, so it is memoized on it.
        With one summand to go, every free vertex and every allowed module
        completes exactly one pair, so that level is counted in place."""
        n, bad, proj_hom, comb = self.n, self.bad, self.proj_hom, math.comb
        memo: dict[tuple[int, int, int], int] = {}

        def below(need: int, allowed: int, vmask: int) -> int:
            if need == 1:
                return vmask.bit_count() + allowed.bit_count()
            state = (need, allowed, vmask)
            total = memo.get(state)
            if total is None:
                total = comb(vmask.bit_count(), need)
                after = allowed  # the bits of allowed above i, lowest i first
                while after:
                    low = after & -after
                    after ^= low
                    i = low.bit_length() - 1
                    rest, free = after & ~bad[i], vmask & ~proj_hom[i]
                    left = rest.bit_count() + free.bit_count()
                    if need == 2:
                        total += left
                    elif left >= need - 1:
                        total += below(need - 1, rest, free)
                memo[state] = total
            return total

        return below(n, _mask(self.rigid), (1 << n) - 1)

    def tau_pair(self, mm: int, pm: int) -> TauPair:
        """The pair with module bitmask mm and vertex bitmask pm."""
        return TauPair(frozenset(self.mods[i] for i in _bits(mm)),
                       frozenset(k + 1 for k in _bits(pm)))

    @cached_property
    def pairs(self) -> tuple[list[str], list[int], list[int]]:
        """The pairs of pair_masks sorted by name: their names (TauPair.name),
        module bitmasks and vertex bitmasks."""
        named = sorted((self.tau_pair(mm, pm).name(), mm, pm) for mm, pm in self.pair_masks)
        names, mms, pms = zip(*named)
        return list(names), list(mms), list(pms)

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
        free = [full & ~_union(holds, d) for d in self.tau_hom]
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

    def certify(self, children: list[list[int]]) -> None:
        """Raise unless the closure of the lower covers children[x] of each
        pair x is exactly the pair order.  Down-sets grow strictly along the
        order, so in popcount order every lower cover is closed before the
        pairs above it; one still open (-1) spoils the closure.  O(#covers)."""
        names, lower = self.pairs[0], self.pair_lower
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
        names, mms, pms = self.pairs
        lat = FiniteLattice(names, *self.mutations())
        ends = (mms[lat._max], pms[lat._max], mms[lat._min], pms[lat._min])
        if ends != (sum(1 << p for p in self.proj), 0, 0, (1 << self.n) - 1):
            raise ConsistencyError(f"{self.name}: tau-tilting lattice extremes are wrong")
        self.certify(lat._children)
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


def module(a: NakayamaAlgebra, socle: int, length: int) -> Uniserial:
    """Normalized, existence-checked M(socle; length), as the algebra holds it."""
    t = a._tables
    return t.mods[t.find(Uniserial(a.vertex(_integer(socle, "socle")), length))]


def projective_module(a: NakayamaAlgebra, k: int) -> Uniserial:
    """P(k): the projective with top S(k), via the Kupisch series."""
    k = a.vertex(_integer(k, "vertex"))
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
    t = a._tables
    return t.h(t.find(m), t.find(n_))


def ext_dim(a: NakayamaAlgebra, m: Uniserial, n_: Uniserial) -> int:
    """dim Ext^1(M, N) = hom(K,N) - hom(P0,N) + hom(M,N) for the projective
    cover 0 -> K -> P0 = P(top M) -> M -> 0; a negative value raises."""
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
    projs = [_integer(k, "projective vertex") for k in pair.projs]
    for k in projs:
        if a.vertex(k) != k or not 1 <= k <= a.n:
            raise ValueError(f"projective vertex {k} out of range")
    taus = [t.tau[i] for i in idx if t.tau[i] >= 0]
    return not (any(t.h(i, j) for i in idx for j in taus)
                or any(t.h(t.proj[k - 1], i) for k in projs for i in idx))


def _check_budget(a: NakayamaAlgebra, max_n: int) -> None:
    if a.n > max_n:
        raise BudgetError(f"{a} has n = {a.n} > enumeration bound {max_n}")
    len_cap = max(2 * a.n, 8)
    if max(a.kupisch) > len_cap:
        raise BudgetError(f"{a} has a projective longer than the length cap {len_cap}")


def tau_tilting_pairs(a: NakayamaAlgebra, max_n: int = DEFAULT_MAX_N) -> list[TauPair]:
    """All basic tau-tilting pairs: tau-rigid pairs with |M| + |P| = n."""
    _check_budget(a, max_n)
    t = a._tables
    return [t.tau_pair(mm, pm) for mm, pm in zip(*t.pairs[1:])]


def tau_tiltp_lattice(a: NakayamaAlgebra, max_n: int = DEFAULT_MAX_N) -> FiniteLattice:
    """The lattice of tau-tilting pairs; maximum (A,0), minimum (0,A)."""
    _check_budget(a, max_n)
    return a._tables.pair_lattice


def semibricks(a: NakayamaAlgebra, max_n: int = DEFAULT_MAX_N) -> list[frozenset[Uniserial]]:
    """All semibricks: Hom-orthogonal sets of bricks, the empty set included."""
    _check_budget(a, max_n)
    mods = a._tables.mods
    return [frozenset(mods[i] for i in _bits(sb)) for sb in a._tables.semibrick_masks[0]]


def ext_quiver(a: NakayamaAlgebra, mods) -> Quiver:
    """Quiver on a module set with dim Ext^1(S, S') arrows S -> S'."""
    t = a._tables
    idx = sorted({t.find(m) for m in mods})
    return Quiver([str(t.mods[i]) for i in idx], [[t.ext(i, j) for j in idx] for i in idx])


def _maximal_blocks(t: _Tables) -> dict[bytes, np.ndarray]:
    """The distinct Ext blocks of the maximal semibricks, keyed by the bytes
    of each int64 block (whose count fixes the size), in order of each
    block's first semibrick in search order."""
    blocks: dict[bytes, np.ndarray] = {}
    for sb in t.semibrick_masks[1]:
        i = np.fromiter(_bits(sb), dtype=np.int64)
        block = t.ext_table.take(i, 0).take(i, 1)
        blocks.setdefault(block.tobytes(), block)
    return blocks


def fpdim_nakayama(
    a: NakayamaAlgebra, tol: float = 1e-12, max_n: int = DEFAULT_SCAN_MAX_N
) -> float:
    """FP dimension: sup of rho over all semibrick Ext-quivers.

    rho is monotone on principal submatrices (Perron-Frobenius), so the
    maximal semibricks attain it.  Their distinct Ext blocks are read from
    one table (_maximal_blocks), in order of their first maximal semibricks
    in search order; _largest_rho computes rho once per block, and a later
    block wins only by more than tol."""
    _check_tol(tol)
    _check_budget(a, max_n)
    blocks = _maximal_blocks(a._tables)
    return _largest_rho(blocks, blocks.__getitem__, tol)[0]


def sandwich(
    a: NakayamaAlgebra, tol: float = 1e-12, max_n: int = DEFAULT_SCAN_MAX_N
) -> tuple[float, int, float]:
    """(FPdim of the tau-tilting pair lattice, d_b, FPdim(A)), for the sandwich
    max(FPdim(lattice), d_b) <= FPdim(A) <= FPdim(lattice) + d_b.

    No pair lattice is built.  By the brick-label rule of the module
    docstring (checked on every algebra with n <= 5 and on cyclic [16]*8,
    not proved), FPdim(lattice) is the largest rho over the maximal
    semibricks of the loop-free 0/1 support of their Ext blocks, which the
    Ext blocks dominate entrywise.  The supports are taken of the distinct
    Ext blocks (_maximal_blocks) in their order, and keep the first of each:
    a support's first semibrick is also the first of its own Ext block, so
    they come in the order of their first semibricks.  The two scans share
    their radii, so a block common to both is computed once; each keeps the
    tol rule of fpdim_lattice."""
    _check_tol(tol)
    _check_budget(a, max_n)
    blocks = _maximal_blocks(a._tables)
    supports: dict[bytes, np.ndarray] = {}
    for block in blocks.values():
        support = (block != 0).astype(np.int64)
        np.fill_diagonal(support, 0)
        supports.setdefault(support.tobytes(), support)
    radii: dict = {}
    flat = _largest_rho(supports, supports.__getitem__, tol, radii)[0]
    return flat, self_ext_bound(a), _largest_rho(blocks, blocks.__getitem__, tol, radii)[0]


def self_ext_bound(a: NakayamaAlgebra) -> int:
    """Largest self-extension dimension over all bricks (the d_b bound), one
    scalar Ext per brick: no Hom or Ext table is built."""
    t = a._tables
    return max((t.ext(i, i) for i, b in enumerate(t.brick) if b), default=0)


def bongartz_completion(a: NakayamaAlgebra, m: Uniserial, max_n: int = DEFAULT_MAX_N) -> TauPair:
    """Maximum tau-tilting pair containing M as a summand.

    For a non-projective tau-rigid M over a cyclic algebra this is the
    explicit completion M + sum_{j<l} M(i;j) + sum_{l<=k<n} P(i-1+k) with
    no projective slot.  The completion is always found by the full
    enumeration, as the one maximal pair containing M; for a non-projective
    M over a cyclic algebra the formula is cross-checked against it.
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
    found = t.tau_pair(t.pairs[1][maxima[0]], t.pairs[2][maxima[0]])
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
