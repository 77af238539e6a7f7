"""Spectral radii of quivers and exact integer linear algebra around them.

Everything here is deterministic: spectral radii come from shifted power
iteration with Collatz-Wielandt bracketing on strongly connected blocks,
characteristic polynomials are computed exactly over Python integers and
their largest real root is isolated by Sturm bisection in integer
arithmetic (primitive pseudo-remainder chains, homogeneous evaluation at
each rational midpoint), and definiteness of integer Gram matrices is
decided by one fraction-free symmetric (Bareiss) elimination in integers,
which also yields the kernel (the positive-semidefinite-but-singular cases
are knife edges that floating point gets wrong).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConsistencyError
from .quiver import Quiver

__all__ = [
    "IntPolynomial",
    "SymIntMatrix",
    "Definiteness",
    "char_poly",
    "largest_real_root",
    "spectral_radius",
    "gram_matrix",
    "definiteness",
]


@dataclass(frozen=True)
class IntPolynomial:
    """Exact integer polynomial, coefficients lowest degree first."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        m = max(len(a), len(b))
        return IntPolynomial(
            tuple((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(m))
        )

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial(tuple(out))

    def __str__(self):
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c:
                x = "" if i == 0 else "x" if i == 1 else f"x^{i}"
                body = x if abs(c) == 1 and x else f"{abs(c)}{x}"
                sign = "-" if c < 0 else "+" if terms else ""
                terms.append(f"{sign} {body}" if terms else sign + body)
        return " ".join(terms) or "0"


ONE = IntPolynomial((1,))


def char_poly(q: Quiver) -> IntPolynomial:
    """det(xI - M(Q)) over exact integers via Faddeev-LeVerrier.

    The empty quiver gives the constant polynomial 1.
    """
    n = q.n
    if n == 0:
        return ONE
    a = [[int(x) for x in row] for row in q.adj.tolist()]
    m = [row[:] for row in a]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    c = 1
    for k in range(1, n + 1):
        if k > 1:
            # m <- a @ (m + c I)
            for i in range(n):
                m[i][i] += c
            m = [
                [sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)
            ]
        tr = sum(m[i][i] for i in range(n))
        c, rem = divmod(-tr, k)
        if rem:
            raise ConsistencyError("Faddeev-LeVerrier trace not divisible, nonintegral input?")
        coeffs[n - k] = c
    return IntPolynomial(tuple(coeffs))


def _derivative(p: list[int]) -> list[int]:
    return [i * p[i] for i in range(1, len(p))]


def _primitive(p: list[int]) -> list[int]:
    """p divided by the gcd of its coefficients, a positive integer."""
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Remainder of a modulo b times a positive integer (a power of |lc(b)|).

    Each step scales the running remainder by |lc(b)| before cancelling its
    leading term, so the result stays an integer polynomial with the sign
    pattern of the rational remainder.  Trailing zeros are stripped.
    """
    r = a[:]
    lb = b[-1]
    scale, sign = abs(lb), (1 if lb > 0 else -1)
    shift = len(r) - len(b)
    while shift >= 0:
        lead = r[-1] * sign
        if scale != 1:
            r = [c * scale for c in r]
        for i, cb in enumerate(b):
            r[shift + i] -= lead * cb
        r.pop()
        while r and r[-1] == 0:
            r.pop()
        shift = len(r) - len(b)
    return r


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b over the integers; b is primitive, so by Gauss's lemma an exact
    rational division has an integer quotient."""
    r = a[:]
    lb = b[-1]
    q = [0] * (len(a) - len(b) + 1)
    for shift in range(len(q) - 1, -1, -1):
        f, rem = divmod(r[-1], lb)
        if rem:
            raise ConsistencyError("square-free division left a remainder")
        q[shift] = f
        for i, cb in enumerate(b):
            r[shift + i] -= f * cb
        r.pop()
    if any(r):
        raise ConsistencyError("square-free division left a remainder")
    return q


def _square_free(p: IntPolynomial) -> list[int]:
    """p / gcd(p, p') as a primitive integer polynomial whose leading
    coefficient has the sign of p's."""
    coeffs = list(p.coeffs)
    a, b = coeffs, _primitive(_derivative(coeffs))
    while b:  # primitive Euclid: a ends as the primitive gcd
        a, b = b, _primitive(_pseudo_rem(a, b))
    g = a if a[-1] > 0 else [-c for c in a]
    return _primitive(_exact_quotient(coeffs, g))


def _sturm_chain(p: list[int]) -> list[list[int]]:
    """Primitive pseudo-remainder Sturm chain: each member is a positive
    multiple of the classical member, so every sign count is the same."""
    chain = [p, _primitive(_derivative(p))]
    while True:
        r = _pseudo_rem(chain[-2], chain[-1])
        if not r:
            return chain
        chain.append(_primitive([-c for c in r]))


def _sign_variations(chain: list[list[int]], num: int, den: int) -> int:
    """Sign changes of the chain at num/den (den > 0), zeros skipped.

    Each member of degree d is evaluated as sum c_i num^i den^(d-i), which
    has the sign of its value at num/den.
    """
    powers = [1]
    for _ in range(len(chain[0]) - 1):
        powers.append(powers[-1] * den)
    changes = prev = 0
    for p in chain:
        d = len(p) - 1
        acc = p[d]
        for i in range(1, d + 1):
            acc = acc * num + p[d - i] * powers[i]
        if acc:
            sign = 1 if acc > 0 else -1
            changes += sign == -prev
            prev = sign
    return changes


def _check_tol(tol: float) -> None:
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


def largest_real_root(p: IntPolynomial, tol: float = 1e-12) -> float:
    """Largest real root of an integer polynomial, isolated by Sturm bisection.

    Exact integer arithmetic throughout; requires at least one real root and
    a positive, finite tol.  The bracket is bisected until it is at most
    tol/2 wide, with tol rounded to a denominator of at most 10**18 when
    that leaves it positive.
    """
    _check_tol(tol)
    if p.degree <= 0:
        raise ValueError("constant polynomial has no roots")
    chain = _sturm_chain(_square_free(p))
    # Cauchy bound b/d = 1 + max |c_i / c_n|: every root lies in (-b/d, b/d)
    lead = abs(p.coeffs[-1])
    b = lead + max(abs(c) for c in p.coeffs[:-1])
    g = math.gcd(b, lead)
    b, den = b // g, lead // g
    lo, hi = -b, b  # numerators over den
    v_hi = _sign_variations(chain, hi, den)
    if _sign_variations(chain, lo, den) - v_hi < 1:
        raise ValueError("polynomial has no real roots")
    width = Fraction(tol).limit_denominator(10**18) or Fraction(tol)
    w_num, w_den = width.numerator, 2 * width.denominator
    # Fujiwara: every root has |z| <= 2 max_k |c_(n-k) / c_n|^(1/k).  Each
    # term rounded up to a power of two gives the bound cap; a midpoint at
    # or above it has no root above it, so its sign count is not needed.
    top, n = lead.bit_length(), p.degree
    e = max((-((top - 1 - abs(c).bit_length()) // (n - i))
             for i, c in enumerate(p.coeffs[:-1]) if c), default=0)
    cap = 1 << max(0, e + 1)
    # shrink to the largest root: keep at least one root in (lo, hi].  hi
    # moves only when (mid, hi] holds no root, so V(hi) never changes.
    while (hi - lo) * w_den > w_num * den:
        mid = lo + hi
        lo, hi, den = 2 * lo, 2 * hi, 2 * den
        if mid < cap * den and _sign_variations(chain, mid, den) - v_hi >= 1:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / (2 * den)


def _tarjan_scc(adj: np.ndarray) -> list[list[int]]:
    """Strongly connected components, iterative Tarjan."""
    n = adj.shape[0]
    succ = [np.nonzero(adj[i])[0].tolist() for i in range(n)]
    index = [-1] * n
    low = [0] * n
    onstack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                onstack[v] = True
            advanced = False
            for k in range(pi, len(succ[v])):
                w = succ[v][k]
                if index[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if onstack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


def _power_radius(block: np.ndarray, tol: float, max_iter: int = 200000) -> float:
    """rho of a strongly connected nonnegative integer block.

    Iterates B = block + I (primitive: positive diagonal) from the all-ones
    vector; min_i (Bx)_i/x_i and max_i (Bx)_i/x_i bracket rho(B), and the
    bracket tightens to below tol for primitive B.
    """
    b = block.astype(np.float64) + np.eye(block.shape[0])
    x = np.ones(block.shape[0], dtype=np.float64)
    for _ in range(max_iter):
        y = b @ x
        ratios = y / x
        lo, hi = float(ratios.min()), float(ratios.max())
        if hi - lo < tol:
            return (lo + hi) / 2.0 - 1.0
        x = y / y.max()
    raise ConsistencyError("power iteration failed to converge")


def spectral_radius(q: Quiver, tol: float = 1e-12, verify: bool = False) -> float:
    """Largest absolute eigenvalue of the adjacency matrix, within tol.

    The matrix is split into strongly connected components; acyclic parts
    contribute 0 and each nontrivial component is handled by shifted power
    iteration.  With verify=True the result is recomputed independently via
    exact characteristic-polynomial root isolation and the two must agree
    within 10*tol.
    """
    _check_tol(tol)
    if q.n == 0:
        return 0.0
    rho = 0.0
    for comp in _tarjan_scc(q.adj):
        if len(comp) == 1:
            v = comp[0]
            rho = max(rho, float(q.adj[v, v]))
            continue
        block = q.adj[np.ix_(comp, comp)]
        rho = max(rho, _power_radius(block, tol))
    if verify:
        exact = largest_real_root(char_poly(q), tol=min(tol, 1e-13))
        exact = max(exact, 0.0)  # Perron root of a nonnegative matrix
        if abs(exact - rho) > 10 * tol:
            raise ConsistencyError(
                f"spectral radius mismatch: power iteration {rho!r} vs root isolation {exact!r}"
            )
    return rho


@dataclass(frozen=True)
class SymIntMatrix:
    """Symmetric matrix of exact integers (tuple of row tuples)."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in r) for r in self.rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix is not square")
        if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
            raise ValueError("matrix is not symmetric")
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    def apply(self, vec) -> list:
        """Exact matrix-vector product (accepts ints or Fractions)."""
        if len(vec) != self.n:
            raise ValueError("dimension mismatch")
        return [sum(self.rows[i][j] * vec[j] for j in range(self.n)) for i in range(self.n)]


@dataclass(frozen=True)
class Definiteness:
    """Outcome of exact definiteness classification.

    tag is one of "positive_definite", "psd_singular", "indefinite";
    kernel_basis is nonempty exactly in the psd_singular case and its
    vectors satisfy G v = 0 exactly.
    """

    tag: str
    kernel_basis: tuple[tuple[Fraction, ...], ...] = ()

    @property
    def is_positive_definite(self) -> bool:
        return self.tag == "positive_definite"

    @property
    def is_psd_singular(self) -> bool:
        return self.tag == "psd_singular"

    @property
    def is_indefinite(self) -> bool:
        return self.tag == "indefinite"


def gram_matrix(delta: Quiver) -> SymIntMatrix:
    """Gram matrix on sink coordinates of the bipartite form of a quiver.

    For a bipartite quiver (every vertex a pure source or a pure sink) the
    quadratic form 4 sum_j x_j^2 - sum_i (sum_j a_ij x_j)^2 on the sinks has
    Gram matrix 4I - A^T A, where A is the sources-by-sinks arrow count
    matrix.  Vertices with no outgoing arrows count as sinks, so an isolated
    vertex contributes a diagonal 4.
    """
    n = delta.n
    indeg = delta.adj.sum(axis=0)
    outdeg = delta.adj.sum(axis=1)
    bad = [delta.labels[i] for i in range(n) if indeg[i] > 0 and outdeg[i] > 0]
    if bad:
        raise ValueError(f"quiver is not bipartite, mixed vertices: {bad}")
    sinks = [i for i in range(n) if outdeg[i] == 0]
    sources = [i for i in range(n) if outdeg[i] > 0]
    a = delta.adj[np.ix_(sources, sinks)].astype(object)
    g = 4 * np.eye(len(sinks), dtype=object) - a.T @ a
    return SymIntMatrix(tuple(tuple(int(x) for x in row) for row in g))


def definiteness(g: SymIntMatrix) -> Definiteness:
    """Exact classification by one fraction-free symmetric (Bareiss)
    elimination in integers, pivoting on the diagonal in index order.

    Each entry is a minor of G, so every division is exact (and checked) and
    each pivot has the sign of its Schur complement entry (Sylvester).  A
    negative pivot, or a zero one with a nonzero row (a 2x2 minor -b^2),
    means indefinite; a zero row marks a kernel index, one whose column
    lies in the span of the earlier ones.  Each kernel vector is 1 there and
    0 at the other kernel indices, read off the pivot rows by
    back-substitution and checked to satisfy G v = 0 exactly."""
    n = g.n
    m = [list(row) for row in g.rows]  # upper triangle m[i][j], j >= i, is live
    prev = 1
    pivots, free = [], []
    for c in range(n):
        d, row = m[c][c], m[c]
        if d < 0 or (d == 0 and any(row[c + 1 :])):
            return Definiteness("indefinite")
        if d == 0:
            free.append(c)
            continue
        pivots.append(c)
        for i in range(c + 1, n):
            a, mi = row[i], m[i]
            qr = [divmod(d * x - a * y, prev) for x, y in zip(mi[i:], row[i:])]
            if any(r for _, r in qr):
                raise ConsistencyError(f"Bareiss division by {prev} is not exact")
            mi[i:] = [q for q, _ in qr]
        prev = d
    if not free:
        return Definiteness("positive_definite")
    kernel = []
    for f in free:
        w = [0] * n  # the kernel vector is w / w[f], kept integral
        w[f] = 1
        for p in reversed([p for p in pivots if p < f]):
            row = m[p]
            s = sum(row[j] * w[j] for j in range(p + 1, f + 1) if w[j])
            k = math.gcd(s, row[p])
            if k != row[p]:
                w = [x * (row[p] // k) for x in w]
            w[p] = -s // k
        if any(g.apply(w)):
            raise ConsistencyError("kernel vector fails G v = 0")
        kernel.append(tuple(Fraction(x, w[f]) for x in w))
    return Definiteness("psd_singular", tuple(kernel))
