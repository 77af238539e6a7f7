"""Finite quivers as labelled nonnegative-integer adjacency matrices.

A quiver is a finite directed multigraph; ``adj[i][j]`` counts the arrows
from vertex ``i`` to vertex ``j``, so loops sit on the diagonal.  The empty
quiver (no vertices) is a legal value.  Instances are immutable after
construction and safe to share between threads.  Graph components are
found in one place, ``_components`` (iterative Tarjan): strongly connected
blocks for ``spectral.spectral_radius``, and weak components, the strong
ones of ``adj + adj.T``, for ``connected_components`` and
``classify_underlying_graph``.  That classifier decides Dynkin and extended
Dynkin graphs by the exact sign of their Tits form 2I - A, positive definite
or positive semidefinite and singular (Assem-Simson-Skowronski, Elements of
the Representation Theory of Associative Algebras 1, Ch. VII).
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "Quiver",
    "DynkinClass",
    "build_quiver",
    "loop_removed",
    "separated_quiver",
    "connected_components",
    "classify_underlying_graph",
    "to_dot",
    "quiver_to_dict",
    "quiver_from_dict",
]


class Quiver:
    """Immutable quiver with vertex labels and an integer adjacency matrix."""

    __slots__ = ("labels", "adj")

    def __init__(self, labels, adj):
        labels = tuple(str(x) for x in labels)
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate vertex labels")
        raw = np.asarray(adj)
        with np.errstate(invalid="ignore"):  # nan and inf fail the comparison
            mat = raw.astype(np.int64) if raw.dtype.kind in "biuf" else None
        if mat is None or (raw.dtype.kind == "f" and not np.array_equal(mat, raw)):
            raise ValueError("arrow multiplicities must be integers within int64")
        if mat.size == 0:
            mat = mat.reshape((len(labels), len(labels)))
        if mat.shape != (len(labels), len(labels)):
            raise ValueError(
                f"adjacency matrix shape {mat.shape} does not match {len(labels)} labels"
            )
        if mat.size and mat.min() < 0:
            raise ValueError("arrow multiplicities must be nonnegative")
        mat.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "adj", mat)

    def __setattr__(self, name, value):
        raise AttributeError("Quiver is immutable")

    @property
    def n(self) -> int:
        return len(self.labels)

    def arrow_count(self) -> int:
        return int(self.adj.sum())

    def arrows(self):
        """All arrows as (src_label, dst_label, multiplicity), multiplicity >= 1."""
        return [(self.labels[i], self.labels[j], int(self.adj[i, j]))
                for i, j in zip(*np.nonzero(self.adj))]

    def __eq__(self, other):
        if not isinstance(other, Quiver):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.adj, other.adj)

    def __hash__(self):
        return hash((self.labels, self.adj.tobytes()))

    def __repr__(self):
        return f"Quiver(labels={list(self.labels)!r}, adj={self.adj.tolist()!r})"


def _integer(x, what: str) -> int:
    """x as an int: integers and integral floats pass, anything else raises."""
    if isinstance(x, (float, np.floating)) and x.is_integer():
        return int(x)
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {x!r}") from None


def build_quiver(labels, arrows) -> Quiver:
    """Assemble a quiver from vertex labels and (src, dst, mult) triples.

    Repeated (src, dst) entries accumulate.  Raises ValueError on unknown
    labels, duplicate labels, nonpositive multiplicities or an arrow count
    beyond int64.
    """
    labels = [str(x) for x in labels]
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate vertex labels")
    idx = {lab: i for i, lab in enumerate(labels)}
    adj = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for entry in arrows:
        try:
            src, dst, mult = entry
        except ValueError:
            raise ValueError(f"arrow {entry!r} is not a (src, dst, mult) triple") from None
        src, dst = str(src), str(dst)
        if src not in idx:
            raise ValueError(f"unknown vertex label {src!r}")
        if dst not in idx:
            raise ValueError(f"unknown vertex label {dst!r}")
        mult = _integer(mult, "arrow multiplicity")
        if mult < 1:
            raise ValueError(f"arrow multiplicity must be >= 1, got {mult}")
        if mult > np.iinfo(np.int64).max - int(adj[idx[src], idx[dst]]):
            raise ValueError(f"arrow multiplicity {mult} from {src!r} to {dst!r} exceeds int64")
        adj[idx[src], idx[dst]] += mult
    return Quiver(labels, adj)


def loop_removed(q: Quiver) -> Quiver:
    """The same quiver with every loop deleted (diagonal zeroed)."""
    adj = np.array(q.adj)
    np.fill_diagonal(adj, 0)
    return Quiver(q.labels, adj)


def separated_quiver(q: Quiver) -> Quiver:
    """Split each vertex i into a source copy i+ and a sink copy i-.

    Every arrow i -> j becomes i+ -> j-, so the result is bipartite: each
    vertex has in-degree 0 or out-degree 0.  The total number of arrows is
    preserved.
    """
    n = q.n
    labels = [lab + "+" for lab in q.labels] + [lab + "-" for lab in q.labels]
    adj = np.zeros((2 * n, 2 * n), dtype=np.int64)
    adj[:n, n:] = q.adj
    return Quiver(labels, adj)


def _components(adj: np.ndarray) -> list[list[int]]:
    """Strongly connected components of the digraph with an arrow i -> j
    wherever adj[i, j] != 0, by iterative Tarjan.

    Roots are taken in index order and successors in increasing order; each
    component lists its vertices in the order they leave the stack.  For a
    symmetric adj these are the weak components.  A vertex whose component
    has left the stack gets index n, above every low-link, so one comparison
    updates a low-link without an on-stack test.
    """
    n = adj.shape[0]
    flat = np.flatnonzero(adj != 0)  # row-major: v * n + w, increasing
    at = np.searchsorted(flat, np.arange(n + 1) * n).tolist()  # row starts
    cols = (flat % n).tolist()
    succ = [iter(cols[at[v]:at[v + 1]]) for v in range(n)]
    index, low = [-1] * n, [0] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [root]
        while work:
            v = work[-1]
            for w in succ[v]:  # resumes where v's last descent left off
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append(w)
                    break
                if index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    comp, w = [], -1
                    while w != v:
                        w = stack.pop()
                        index[w] = n
                        comp.append(w)
                    comps.append(comp)
                elif low[v] < low[work[-1]]:  # not a root, so v has a parent
                    low[work[-1]] = low[v]
    return comps


def connected_components(q: Quiver) -> list[Quiver]:
    """Weak (underlying-graph) components, each as an induced subquiver.

    Components are ordered by their first vertex in declaration order and
    inherit the original relative label order.  Isolated vertices count.
    """
    comps = sorted(sorted(c) for c in _components(q.adj + q.adj.T))
    return [Quiver([q.labels[i] for i in c], q.adj[np.ix_(c, c)]) for c in comps]


@dataclass(frozen=True)
class DynkinClass:
    """Classification tag for the underlying graph of a connected quiver.

    kind is "dynkin" (simply-laced A/D/E), "extended" (affine versions) or
    "other".  Rank conventions: A_n has n vertices, an extended X~_n diagram
    has n+1 vertices.
    """

    kind: str
    family: str | None = None
    rank: int | None = None

    def __post_init__(self):
        if self.kind not in ("dynkin", "extended", "other"):
            raise ValueError(f"bad kind {self.kind!r}")
        if self.kind == "other":
            if self.family is not None or self.rank is not None:
                raise ValueError("'other' carries no family or rank")
            return
        if self.family not in ("A", "D", "E"):
            raise ValueError(f"bad family {self.family!r}")
        object.__setattr__(self, "rank", _integer(self.rank, "rank"))
        if self.family == "E" and self.rank not in (6, 7, 8):
            raise ValueError("E family needs rank in {6,7,8}")
        if self.family == "D" and self.rank < 4:
            raise ValueError("D family needs rank >= 4")
        if self.family == "A" and self.rank < 1:
            raise ValueError(f"A{'~' if self.is_extended else ''} family needs rank >= 1")

    @property
    def is_dynkin(self) -> bool:
        return self.kind == "dynkin"

    @property
    def is_extended(self) -> bool:
        return self.kind == "extended"

    def __str__(self):
        if self.kind == "other":
            return "Other"
        prefix = "~" if self.kind == "extended" else ""
        return f"{prefix}{self.family}{self.rank}"


OTHER = DynkinClass("other")


def classify_underlying_graph(q: Quiver) -> DynkinClass:
    """Recognize simply-laced Dynkin / extended Dynkin underlying graphs.

    Orientation is forgotten; an arrow pair i <-> j contributes a double
    edge of the underlying multigraph.  Loops classify as Other (they never
    occur in separated quivers).  Requires a connected, nonempty quiver.

    The rule is the Tits form, with Gram matrix 2I - A: positive definite
    for Dynkin graphs, positive semidefinite and singular for extended ones
    (Assem-Simson-Skowronski, Ch. VII).  More edges than vertices, counted
    with multiplicity, make neither; as many make ~A(n-1) when every degree
    is 2.  A tree is eliminated leaves first, in breadth-first order from
    vertex 0, with exact pivots 2 - sum(1/pivot(c)) over the children c: a
    pivot <= 0 below the root gives Other, and the root pivot gives Dynkin
    (> 0), extended (= 0) or Other (< 0).  The family is A without a branch
    vertex, D when the first one has two leaf neighbours, and E otherwise.
    """
    n = q.n
    if n == 0:
        raise ValueError("cannot classify the empty quiver")
    clipped = np.minimum(q.adj, 3)  # 3 arrows between two vertices already make Other
    mult = clipped + clipped.T  # undirected edge multiplicities, i != j
    if len(_components(mult)) != 1:
        raise ValueError("classify_underlying_graph requires a connected quiver")
    if np.diagonal(q.adj).any():
        return OTHER
    degree = mult.sum(axis=1).tolist()
    edges = sum(degree) // 2
    if edges > n:
        return OTHER
    if edges == n:
        return DynkinClass("extended", "A", n - 1) if set(degree) == {2} else OTHER

    # a tree with simple edges from here on
    neigh = [np.flatnonzero(row).tolist() for row in mult]
    parent, order = [-1] * n, [0]
    for v in order:
        for w in neigh[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    pivot = [Fraction(2)] * n
    for v in reversed(order[1:]):
        if pivot[v] <= 0:
            return OTHER
        pivot[parent[v]] -= 1 / pivot[v]
    if pivot[0] < 0:
        return OTHER
    kind, rank = ("dynkin", n) if pivot[0] > 0 else ("extended", n - 1)
    branch = next((v for v in range(n) if degree[v] >= 3), None)
    if branch is None:
        return DynkinClass(kind, "A", rank)
    leaves = sum(degree[w] == 1 for w in neigh[branch])
    return DynkinClass(kind, "D" if leaves >= 2 else "E", rank)


_BARE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+")


def _dot_id(label: str) -> str:
    if _BARE.fullmatch(label):
        return label
    return '"' + label.replace('"', '\\"') + '"'


def to_dot(q: Quiver) -> str:
    """Graphviz digraph text; multiplicities are emitted as repeated edges."""
    if q.n == 0:
        return "digraph { }"
    lines = ["digraph {"]
    for lab in q.labels:
        lines.append(f"  {_dot_id(lab)};")
    for src, dst, m in q.arrows():
        for _ in range(m):
            lines.append(f"  {_dot_id(src)} -> {_dot_id(dst)};")
    lines.append("}")
    return "\n".join(lines)


def quiver_to_dict(q: Quiver) -> dict:
    """JSON-ready form: {"vertices": [...], "arrows": [[src, dst, mult], ...]}."""
    return {
        "vertices": list(q.labels),
        "arrows": [[s, d, m] for s, d, m in q.arrows()],
    }


def quiver_from_dict(data: dict) -> Quiver:
    """Inverse of quiver_to_dict; labels are strings or JSON integers."""
    if not isinstance(data, dict) or "vertices" not in data or "arrows" not in data:
        raise ValueError('quiver JSON needs "vertices" and "arrows" keys')
    vertices, arrows = data["vertices"], data["arrows"]
    if not (isinstance(vertices, list) and isinstance(arrows, list) and all(
            isinstance(a, list) and len(a) == 3 and type(a[2]) is int for a in arrows)):
        raise ValueError('quiver JSON needs a "vertices" array and an "arrows" array of '
                         '[src, dst, integer multiplicity] arrays')
    _check_names(vertices + [e for a in arrows for e in a[:2]])
    return build_quiver(vertices, arrows)


def _check_names(names) -> None:
    """Raise ValueError unless every name read from JSON is a string or an
    integer (not a boolean); anything else would be silently stringified."""
    for e in names:
        if type(e) not in (str, int):
            raise ValueError(f"names must be strings or integers, got {e!r}")
