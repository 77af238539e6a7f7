"""Shared test machinery: the exact quiver-representation oracle and corpora.

The oracle knows nothing about the closed-form Hom/Ext counts.  It builds
each uniserial as an explicit representation of the linear/cyclic quiver
(basis vector t of M(i;l) sits at vertex i+t, the arrow u -> u-1 sends t to
t-1), sets up the commutation linear system for Hom(M, N) over the
rationals and reads dimensions off exact Gaussian elimination.  Ext^1 is
the cokernel of restriction Hom(P0, N) -> Hom(Omega M, N) along the
inclusion of the syzygy.

Hom spaces over the bound quiver algebra equal those over the path algebra
of the same shape (the relations already act by zero on both modules), so
results are cached per (shape, n, module data) and shared across Kupisch
series.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

import numpy as np

from taufp.nakayama import NakayamaAlgebra, Uniserial, make_algebra


def _vertex(shape: str, n: int, v: int) -> int:
    return (v - 1) % n + 1 if shape == "cyclic" else v


def _basis_vertices(shape: str, n: int, socle: int, length: int) -> list[int]:
    return [_vertex(shape, n, socle + t) for t in range(length)]


def _arrows(shape: str, n: int) -> list[tuple[int, int]]:
    """Arrows (source, target) of the shape quiver: u -> u-1, wrapping if cyclic."""
    arrows = [(u, u - 1) for u in range(2, n + 1)]
    if shape == "cyclic":
        arrows.append((1, n) if n > 1 else (1, 1))
    return arrows


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    rows = [r[:] for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def _nullspace_basis(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    if not rows:
        rows = [[Fraction(0)] * ncols]
    red, pivots = _rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(v)
    return basis


@lru_cache(maxsize=None)
def _hom_solution_basis(shape, n, a, k, b, l):
    """Basis of Hom(M(a;k), M(b;l)) as coefficient vectors x[(s, t)]."""
    mverts = _basis_vertices(shape, n, a, k)
    nverts = _basis_vertices(shape, n, b, l)
    unknowns = [
        (s, t) for s in range(k) for t in range(l) if mverts[s] == nverts[t]
    ]
    col = {st: c for c, st in enumerate(unknowns)}
    eqs: list[list[Fraction]] = []
    for (u, v) in _arrows(shape, n):
        # commutation f_v(M_arrow(s)) = N_arrow(f_u(s)) for s at vertex u,
        # matched against each basis vector r of N at vertex v
        for s in range(k):
            if mverts[s] != u:
                continue
            for r in range(l):
                if nverts[r] != v:
                    continue
                row = [Fraction(0)] * len(unknowns)
                nonzero = False
                if s >= 1 and mverts[s - 1] == v and (s - 1, r) in col:
                    row[col[(s - 1, r)]] += 1
                    nonzero = True
                if r + 1 < l and nverts[r + 1] == u and (s, r + 1) in col:
                    row[col[(s, r + 1)]] -= 1
                    nonzero = True
                if nonzero:
                    eqs.append(row)
    basis = _nullspace_basis(eqs, len(unknowns))
    return tuple(tuple(v) for v in basis), tuple(unknowns)


def hom_oracle(a: NakayamaAlgebra, m: Uniserial, n_: Uniserial) -> int:
    basis, _ = _hom_solution_basis(a.shape, a.n, m.socle, m.length, n_.socle, n_.length)
    return len(basis)


def _matrix_rank(vectors: list[list[Fraction]]) -> int:
    if not vectors:
        return 0
    _, pivots = _rref([list(v) for v in vectors])
    return len(pivots)


@lru_cache(maxsize=None)
def _ext_oracle_cached(shape, n, a, k, p0_socle, p0_len, b, l):
    homs_p0, unknowns_p0 = _hom_solution_basis(shape, n, p0_socle, p0_len, b, l)
    omega_len = p0_len - k
    homs_omega, unknowns_omega = _hom_solution_basis(shape, n, p0_socle, omega_len, b, l)
    col_omega = {st: c for c, st in enumerate(unknowns_omega)}
    restricted = []
    for g in homs_p0:
        v = [Fraction(0)] * len(unknowns_omega)
        for (s, t), val in zip(unknowns_p0, g):
            if s < omega_len:
                v[col_omega[(s, t)]] = val
        restricted.append(v)
    return len(homs_omega) - _matrix_rank(restricted)


def ext_oracle(a: NakayamaAlgebra, m: Uniserial, n_: Uniserial) -> int:
    """dim Ext^1(M, N) = dim coker(Hom(P0, N) -> Hom(Omega M, N)).

    P0 = M(top - l_top + 1; l_top) is the projective cover, read off the
    Kupisch series; M is projective exactly when its length is l_top.
    """
    top = _vertex(a.shape, a.n, m.socle + m.length - 1)
    l_top = a.kupisch[top - 1]
    if m.length == l_top:
        return 0
    p0_socle = _vertex(a.shape, a.n, top - l_top + 1)
    return _ext_oracle_cached(
        a.shape, a.n, m.socle, m.length, p0_socle, l_top, n_.socle, n_.length
    )


def canonical_form(q) -> tuple:
    """Isomorphism-invariant form of a small quiver: the lexicographically
    least adjacency matrix over all vertex permutations (n <= 6 only)."""
    n = q.n
    if n > 6:
        raise ValueError("canonical_form is intended for quivers with at most 6 vertices")
    adj = q.adj
    best = None
    for perm in itertools.permutations(range(n)):
        cand = tuple(tuple(int(adj[perm[i], perm[j]]) for j in range(n)) for i in range(n))
        if best is None or cand < best:
            best = cand
    return best if best is not None else ()


# ---------------------------------------------------------------------------
# Component reference: Tarjan's algorithm as he wrote it, recursive and with
# an explicit on-stack set, over plain nested lists.


def tarjan_reference(adj) -> list[list[int]]:
    """Strongly connected components of the digraph with an arrow i -> j
    wherever adj[i][j] != 0: roots in index order, successors in increasing
    order, each component in the order its vertices leave the stack."""
    n = len(adj)
    index, low, on_stack = {}, {}, set()
    stack, comps = [], []

    def visit(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        for w in range(n):
            if not adj[v][w]:
                continue
            if w not in index:
                visit(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp = []
            while not comp or comp[-1] != v:
                comp.append(stack.pop())
                on_stack.discard(comp[-1])
            comps.append(comp)

    for v in range(n):
        if v not in index:
            visit(v)
    return comps


# ---------------------------------------------------------------------------
# Sturm reference: classical Sturm bisection over Fractions, kept as the
# reference the integer route in taufp.spectral must match float for float.


def _fr_derivative(p):
    return [p[i] * i for i in range(1, len(p))]


def _fr_divmod(a, b):
    a = a[:]
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(b):
            break
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        q[shift] = f
        for i, cb in enumerate(b):
            a[shift + i] -= f * cb
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return q, a


def _fr_gcd(a, b):
    while b and any(b):
        _, r = _fr_divmod(a, b)
        a, b = b, r
    if a and a[-1] != 1:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _fr_square_free(coeffs):
    fr = [Fraction(c) for c in coeffs]
    der = _fr_derivative(fr)
    if not der:
        return fr
    g = _fr_gcd(fr, der)
    if len(g) <= 1:
        return fr
    q, r = _fr_divmod(fr, g)
    if any(r):
        raise AssertionError("square-free division left a remainder")
    return q


def _fr_sturm_chain(p):
    chain = [p, _fr_derivative(p)]
    while chain[-1] and any(chain[-1]):
        _, r = _fr_divmod(chain[-2], chain[-1])
        if not any(r):
            break
        chain.append([-c for c in r])
    return chain


def _fr_sign_variations(chain, x):
    signs = []
    for p in chain:
        v = Fraction(0)
        for c in reversed(p):
            v = v * x + c
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_largest_root_reference(coeffs, tol=1e-12):
    """Largest real root of the integer polynomial with coefficients
    `coeffs` (lowest degree first, leading one nonzero) by Fraction Sturm
    bisection.  Raises ValueError for a constant polynomial or one with no
    real root.  Only for tol >= 1e-18: a smaller tol rounds to 0 below and
    the loop never ends."""
    coeffs = tuple(coeffs)
    if len(coeffs) <= 1:
        raise ValueError("constant polynomial has no roots")
    chain = _fr_sturm_chain(_fr_square_free(coeffs))
    bound = Fraction(1) + max(abs(Fraction(c, coeffs[-1])) for c in coeffs[:-1])
    lo, hi = -bound, bound
    if _fr_sign_variations(chain, lo) - _fr_sign_variations(chain, hi) < 1:
        raise ValueError("polynomial has no real roots")
    while hi - lo > Fraction(tol).limit_denominator(10**18) / 2:
        mid = (lo + hi) / 2
        if _fr_sign_variations(chain, mid) - _fr_sign_variations(chain, hi) >= 1:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


# ---------------------------------------------------------------------------
# Weak-order reference: the plain breadth-first search, one element at a
# time, with a dict from matrix bytes to name across all levels.


def weak_order_reference(cartan):
    """Right weak order of the Weyl group of an integer Cartan matrix.

    The generator s_i acts on simple-root coordinates by alpha_j ->
    alpha_j - c_ji alpha_i; i is an ascent of w iff column i of w is
    nonnegative.  Elements are named by their first-found reduced word
    ("e" for the identity), declared in the order they are found, and each
    ascent gives the cover (w s_i, w).  Returns (names, covers, words, mats).
    """
    c = np.asarray(cartan, dtype=np.int64)
    n = len(c)
    gens = []
    for i in range(n):
        g = np.eye(n, dtype=np.int64)
        g[i, :] -= c[:, i]
        gens.append(g)
    names, covers = ["e"], []
    words, mats = {"e": ()}, {"e": np.eye(n, dtype=np.int64)}
    by_key = {mats["e"].tobytes(): "e"}
    head = 0
    while head < len(names):
        wname = names[head]
        head += 1
        w = mats[wname]
        for i in range(n):
            if (w[:, i] < 0).any():
                continue
            prod = w @ gens[i]
            child = by_key.get(prod.tobytes())
            if child is None:
                child = ("" if wname == "e" else wname) + str(i + 1)
                by_key[prod.tobytes()] = child
                names.append(child)
                words[child] = words[wname] + (i + 1,)
                mats[child] = prod
            covers.append((child, wname))
    return names, covers, [words[x] for x in names], [mats[x] for x in names]


def fpdim_reference(names, covers, tol, radius=None):
    """FP dimension of a finite lattice by the defining scan, element by
    element.  The order is the reflexive-transitive closure of the (upper,
    lower) name pairs covers; Q(x, dp(x)) has an arrow y -> z exactly when y
    is not a lower cover of the least common upper bound of y and z, and its
    radius is radius(adjacency matrix), by default the largest eigenvalue
    modulus numpy finds.  Every x below the
    maximum is visited in declaration order, and x becomes the witness when
    its radius exceeds the best so far by more than tol; the first x below
    the maximum is the witness to begin with.  Returns (value, witness,
    kept): kept counts the elements whose radius beats the best so far by
    more than 1e-9 but not by more than tol, so the earlier witness stays.
    """
    n = len(names)
    at = {e: i for i, e in enumerate(names)}
    cover = {(at[u], at[l]) for u, l in covers}
    geq = np.eye(n, dtype=bool)
    for u, l in cover:
        geq[u, l] = True
    for k in range(n):  # Warshall
        geq |= np.outer(geq[:, k], geq[k, :])
    best, witness, kept = 0.0, None, 0
    for x in range(n):
        dp = [u for u in range(n) if (u, x) in cover]
        if not dp:  # the maximum
            continue
        if witness is None:
            witness = x
        if len(dp) == 1:
            continue
        adj = np.zeros((len(dp), len(dp)), dtype=np.int64)
        for a, y in enumerate(dp):
            for b, z in enumerate(dp):
                ubs = np.flatnonzero(geq[:, y] & geq[:, z])
                (join,) = [u for u in ubs if geq[ubs, u].all()]
                adj[a, b] = y != z and (join, y) not in cover
        if radius is None:
            rho = float(np.max(np.abs(np.linalg.eigvals(adj.astype(np.float64)))))
        else:
            rho = radius(adj)
        if rho > best + tol:
            best, witness = rho, x
        elif rho > best + 1e-9:
            kept += 1
    return best, (None if witness is None else names[witness]), kept


def first_occurrences(keys, xs):
    """[(keys[x], x)] for each x in xs whose key no earlier x has, in order:
    the items of a dict from each distinct key to its first x."""
    first = {}
    for x in xs:
        first.setdefault(keys[x], x)
    return list(first.items())


def largest_rho_scan(blocks, radius, tol):
    """The largest-rho scan over a sequence of square integer blocks, with no
    bound and no shared radii: each distinct block (by size and entries) is
    visited at its first position, in order, and radius(block) wins only by
    more than tol over the best so far.  Returns (value, witness position
    or None, visits): per distinct block its (size, bytes) key, the bound
    min(max row sum, max column sum) >= its radius, and the best before it.
    """
    best, witness, seen, visits = 0.0, None, set(), []
    for k, block in enumerate(blocks):
        block = np.asarray(block, dtype=np.int64)
        key = (len(block), block.tobytes())
        if key in seen:
            continue
        seen.add(key)
        visits.append((key, int(min(block.sum(axis=1).max(), block.sum(axis=0).max())), best))
        rho = radius(block)
        if rho > best + tol:
            best, witness = rho, k
    return best, witness, visits


# ---------------------------------------------------------------------------
# corpora


def linear_series(n_max: int = 4):
    """All valid linear Kupisch series with at most n_max vertices."""
    out = []

    def extend(series):
        out.append(tuple(series))
        if len(series) == n_max:
            return
        i = len(series) + 1
        for l in range(2, min(series[-1] + 1, i) + 1):
            extend(series + [l])

    extend([1])
    return out


def cyclic_series(n_max: int = 4, l_max: int = 8):
    """All valid cyclic Kupisch series: l_i >= 2, l_i <= l_{i-1} + 1 cyclically."""
    out = []
    for n in range(1, n_max + 1):
        for ls in itertools.product(range(2, l_max + 1), repeat=n):
            if all(ls[i] <= ls[i - 1] + 1 for i in range(n)):
                out.append(ls)
    return out


def nakayama_corpus(n_max: int = 4, l_max: int = 8):
    """Every connected Nakayama algebra with n <= n_max and l_i <= l_max."""
    algebras = [make_algebra("linear", s) for s in linear_series(n_max)]
    algebras += [make_algebra("cyclic", s) for s in cyclic_series(n_max, l_max)]
    return algebras


def random_quiver(rng, max_vertices=6, max_mult=2, loops=True):
    """Random small quiver for the spectral property suites."""
    import numpy as np
    from taufp.quiver import Quiver

    n = rng.integers(0, max_vertices + 1)
    density = rng.uniform(0.1, 0.6)
    adj = (rng.random((n, n)) < density) * rng.integers(1, max_mult + 1, size=(n, n))
    if not loops and n:
        np.fill_diagonal(adj, 0)
    return Quiver([f"v{i}" for i in range(n)], adj.astype(np.int64))
