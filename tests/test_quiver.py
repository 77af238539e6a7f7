"""Quiver data type: construction, derived quivers, Dynkin recognition."""

import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taufp.quiver import (
    DynkinClass,
    Quiver,
    _components,
    build_quiver,
    classify_underlying_graph,
    connected_components,
    loop_removed,
    quiver_from_dict,
    quiver_to_dict,
    separated_quiver,
    to_dot,
)

from helpers import tarjan_reference


def path_quiver(n):
    return build_quiver([str(i) for i in range(1, n + 1)],
                        [(str(i), str(i + 1), 1) for i in range(1, n)])


def cycle_quiver(n):
    arrows = [(str(i), str(i % n + 1), 1) for i in range(1, n + 1)]
    return build_quiver([str(i) for i in range(1, n + 1)], arrows)


def tree_quiver(edges):
    """Arbitrarily oriented quiver on the undirected edge list."""
    labels = sorted({v for e in edges for v in e})
    return build_quiver(labels, [(a, b, 1) for a, b in edges])


# -- construction ------------------------------------------------------------

def test_build_empty():
    q = build_quiver([], [])
    assert q.n == 0 and q.arrow_count() == 0


def test_build_allones():
    q = build_quiver(["1", "2"], [("1", "2", 1), ("2", "1", 1), ("1", "1", 1), ("2", "2", 1)])
    assert q.adj.tolist() == [[1, 1], [1, 1]]


def test_build_accumulates_and_loops():
    q = build_quiver(["a"], [("a", "a", 1), ("a", "a", 2)])
    assert q.adj.tolist() == [[3]]


def test_build_errors():
    with pytest.raises(ValueError):
        build_quiver(["a", "a"], [])
    with pytest.raises(ValueError):
        build_quiver(["a"], [("a", "b", 1)])
    with pytest.raises(ValueError):
        build_quiver(["a"], [("a", "a", 0)])


@pytest.mark.parametrize("mult", [2.7, 1.5, np.float64(0.5), float("nan"), float("inf"), "2", None])
def test_non_integral_multiplicities_raise(mult):
    with pytest.raises(ValueError, match="integer"):
        build_quiver(["a"], [("a", "a", mult)])
    with pytest.raises(ValueError):
        Quiver(["a"], [[mult]])


@pytest.mark.parametrize("mult", [2, np.int64(2), 2.0, np.float64(2.0)])
def test_integral_multiplicities_are_accepted(mult):
    assert build_quiver(["a"], [("a", "a", mult)]).adj.tolist() == [[2]]
    assert Quiver(["a"], [[mult]]).adj.tolist() == [[2]]
    assert Quiver(["a", "b"], np.array([[0, mult], [1, 0]])).adj.tolist() == [[0, 2], [1, 0]]


def test_immutability():
    q = build_quiver(["a"], [])
    with pytest.raises(AttributeError):
        q.labels = ("b",)
    with pytest.raises(ValueError):
        q.adj[0, 0] = 5


# -- loop removal ------------------------------------------------------------

def test_loop_removed():
    q = build_quiver(["1", "2"], [("1", "2", 1), ("2", "1", 1), ("1", "1", 1), ("2", "2", 1)])
    assert loop_removed(q).adj.tolist() == [[0, 1], [1, 0]]
    assert loop_removed(build_quiver([], [])).n == 0
    # idempotent, and identity on loopless quivers
    c = cycle_quiver(3)
    assert loop_removed(c) == c
    assert loop_removed(loop_removed(q)) == loop_removed(q)


# -- separated quiver --------------------------------------------------------

def test_separated_loop():
    q = build_quiver(["1"], [("1", "1", 1)])
    s = separated_quiver(q)
    assert s.labels == ("1+", "1-")
    assert s.adj.tolist() == [[0, 1], [0, 0]]


def test_separated_two_cycle():
    s = separated_quiver(build_quiver(["1", "2"], [("1", "2", 1), ("2", "1", 1)]))
    assert s.n == 4
    assert s.arrows() == [("1+", "2-", 1), ("2+", "1-", 1)]


def test_separated_double_path_components():
    # double quiver of the path 1-2-3 separates into two 3-vertex paths
    q = build_quiver(["1", "2", "3"],
                     [("1", "2", 1), ("2", "1", 1), ("2", "3", 1), ("3", "2", 1)])
    comps = connected_components(separated_quiver(q))
    assert len(comps) == 2
    assert all(c.n == 3 for c in comps)
    assert all(str(classify_underlying_graph(c)) == "A3" for c in comps)


def test_separated_is_bipartite_and_preserves_arrows():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(0, 6))
        adj = rng.integers(0, 3, size=(n, n))
        q = Quiver([f"v{i}" for i in range(n)], adj)
        s = separated_quiver(q)
        assert s.arrow_count() == q.arrow_count()
        indeg = s.adj.sum(axis=0)
        outdeg = s.adj.sum(axis=1)
        assert all(indeg[i] == 0 or outdeg[i] == 0 for i in range(s.n))


# -- components --------------------------------------------------------------

def test_components_empty_and_isolated():
    assert connected_components(build_quiver([], [])) == []
    q = build_quiver(["a", "b", "c"], [("a", "b", 1), ("b", "a", 1)])
    comps = connected_components(q)
    assert [c.labels for c in comps] == [("a", "b"), ("c",)]


@st.composite
def block_digraphs(draw):
    """Up to 40 vertices in up to 6 groups, shuffled: arrows inside a group
    with one density, forward between groups with another, backward ones
    rarely (they merge groups), loops and multiplicities up to 2^62."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 40))
    group = rng.integers(0, draw(st.integers(1, 6)), n)
    p_in, p_fwd = draw(st.floats(0, 0.6)), draw(st.floats(0, 0.2))
    r = rng.random((n, n))
    before = group[:, None] < group[None, :]
    arrows = np.where(group[:, None] == group[None, :], r < p_in,
                      np.where(before, r < p_fwd, r < 0.01))
    mult = rng.integers(1, 4, (n, n))
    mult[rng.random((n, n)) < 0.05] = 2**62
    perm = rng.permutation(n)
    return (arrows * mult)[np.ix_(perm, perm)].astype(np.int64)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(block_digraphs())
def test_components_equal_recursive_tarjan(adj):
    # the list order and the order within each component, for the strong
    # components and for the weak ones (2^62 + 2^62 wraps in adj + adj.T,
    # to a nonzero entry, as connected_components relies on)
    assert _components(adj) == tarjan_reference(adj.tolist())
    sym = adj + adj.T
    assert _components(sym) == tarjan_reference(sym.tolist())


def test_components_of_a_long_path_need_no_recursion():
    # 1,200 nested descents: a recursive search would pass Python's limit
    n = 1200
    adj = np.zeros((n, n), dtype=np.int64)
    adj[np.arange(n - 1), np.arange(1, n)] = 1
    assert _components(adj) == [[v] for v in reversed(range(n))]


# -- Dynkin classification ---------------------------------------------------

def test_classify_paths_and_cycles():
    assert str(classify_underlying_graph(path_quiver(1))) == "A1"
    assert str(classify_underlying_graph(path_quiver(4))) == "A4"
    assert str(classify_underlying_graph(cycle_quiver(3))) == "~A2"
    assert str(classify_underlying_graph(cycle_quiver(8))) == "~A7"


def test_classify_d_and_e():
    d4 = tree_quiver([("c", "a"), ("c", "b"), ("c", "d")])
    assert str(classify_underlying_graph(d4)) == "D4"
    d6 = tree_quiver([("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("4", "6")])
    assert str(classify_underlying_graph(d6)) == "D6"
    e6 = tree_quiver([("1", "2"), ("2", "3"), ("3", "5"), ("5", "6"), ("3", "4")])
    assert str(classify_underlying_graph(e6)) == "E6"
    e7 = tree_quiver([("1", "2"), ("2", "3"), ("3", "5"), ("5", "6"), ("6", "7"), ("3", "4")])
    assert str(classify_underlying_graph(e7)) == "E7"
    e8 = tree_quiver([("1", "2"), ("2", "3"), ("3", "5"), ("5", "6"), ("6", "7"), ("7", "8"),
                      ("3", "4")])
    assert str(classify_underlying_graph(e8)) == "E8"


def test_classify_extended():
    # degree-4 star
    star = tree_quiver([("c", "1"), ("c", "2"), ("c", "3"), ("c", "4")])
    assert str(classify_underlying_graph(star)) == "~D4"
    # fork-path-fork
    d6t = tree_quiver([("a", "u"), ("b", "u"), ("u", "v"), ("v", "c"), ("v", "d")])
    assert str(classify_underlying_graph(d6t)) == "~D5"
    # arms (2,2,2), (1,3,3), (1,2,5)
    e6t = tree_quiver([("c", "a1"), ("a1", "a2"), ("c", "b1"), ("b1", "b2"),
                       ("c", "d1"), ("d1", "d2")])
    assert str(classify_underlying_graph(e6t)) == "~E6"
    e7t = tree_quiver([("c", "z"), ("c", "a1"), ("a1", "a2"), ("a2", "a3"),
                       ("c", "b1"), ("b1", "b2"), ("b2", "b3")])
    assert str(classify_underlying_graph(e7t)) == "~E7"
    e8t = tree_quiver([("c", "z"), ("c", "a1"), ("a1", "a2"),
                       ("c", "b1"), ("b1", "b2"), ("b2", "b3"), ("b3", "b4"), ("b4", "b5")])
    assert str(classify_underlying_graph(e8t)) == "~E8"
    # double edge on two vertices
    a1t = build_quiver(["1", "2"], [("1", "2", 2)])
    assert str(classify_underlying_graph(a1t)) == "~A1"
    two_cycle = build_quiver(["1", "2"], [("1", "2", 1), ("2", "1", 1)])
    assert str(classify_underlying_graph(two_cycle)) == "~A1"


def test_classify_other_shapes():
    # loop
    assert str(classify_underlying_graph(build_quiver(["a"], [("a", "a", 1)]))) == "Other"
    # triple edge (G2 diagram shape)
    assert str(classify_underlying_graph(build_quiver(["1", "2"], [("1", "2", 3)]))) == "Other"
    # double edge inside a longer diagram (B3 shape)
    b3 = build_quiver(["1", "2", "3"], [("1", "2", 1), ("2", "3", 2)])
    assert str(classify_underlying_graph(b3)) == "Other"
    # cycle with a chord
    theta = build_quiver(["1", "2", "3", "4"],
                         [("1", "2", 1), ("2", "3", 1), ("3", "4", 1), ("4", "1", 1),
                          ("1", "3", 1)])
    assert str(classify_underlying_graph(theta)) == "Other"
    # three branch vertices
    cat = tree_quiver([("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"),
                       ("2", "x"), ("3", "y"), ("4", "z")])
    assert str(classify_underlying_graph(cat)) == "Other"
    # star with five leaves
    k15 = tree_quiver([("c", str(i)) for i in range(5)])
    assert str(classify_underlying_graph(k15)) == "Other"
    # long arms (1,3,4): sum of 1/(a+1) < 1
    t = tree_quiver([("c", "z"), ("c", "a1"), ("a1", "a2"), ("a2", "a3"),
                     ("c", "b1"), ("b1", "b2"), ("b2", "b3"), ("b3", "b4")])
    assert str(classify_underlying_graph(t)) == "Other"


def test_classify_clips_huge_multiplicities():
    # adj + adj.T would wrap in int64 and read as a simple edge
    for adj in ([[0, 2**62], [2**62, 0]], [[0, 2**63 - 1], [1, 0]]):
        assert str(classify_underlying_graph(Quiver(["a", "b"], adj))) == "Other"


def _smith_kind(sym):
    """Kind by Smith (1970): the largest eigenvalue of the symmetric
    multiplicity matrix is < 2 for Dynkin graphs and = 2 for extended ones."""
    top = np.linalg.eigvalsh(np.asarray(sym, dtype=float))[..., -1]
    return np.where(top < 2 - 1e-9, "dynkin", np.where(top <= 2 + 1e-9, "extended", "other"))


def _kind(sym):
    return classify_underlying_graph(Quiver(range(len(sym)), np.triu(sym))).kind


def test_classify_kind_matches_smith_on_small_multigraphs():
    # every connected loop-free graph on <= 5 vertices with pair multiplicities
    # <= 2, one per isomorphism class: the class of the least base-3 code of
    # the upper triangle over all relabellings
    for n in range(1, 6):
        iu = np.triu_indices(n, 1)
        mults = np.array(list(itertools.product((0, 1, 2), repeat=len(iu[0]))), dtype=np.int64)
        sym = np.zeros((len(mults), n, n), dtype=np.int64)
        sym[:, iu[0], iu[1]] = mults
        sym += sym.transpose(0, 2, 1)
        weights = 3 ** np.arange(len(iu[0]))
        least = np.min([sym[:, p[iu[0]], p[iu[1]]] @ weights
                        for p in map(np.array, itertools.permutations(range(n)))], axis=0)
        sym = sym[np.unique(least, return_index=True)[1]]
        reach = np.linalg.matrix_power(np.eye(n, dtype=np.int64) + (sym > 0), n)
        sym = sym[(reach > 0).all(axis=(1, 2))]
        # the connected simple graphs on 1-5 vertices number 1, 1, 2, 6 and 21
        assert ((sym <= 1).all(axis=(1, 2))).sum() == [1, 1, 2, 6, 21][n - 1]
        assert [_kind(m) for m in sym] == _smith_kind(sym).tolist()


def test_classify_kind_matches_smith_on_random_trees_and_unicyclic_graphs():
    rng = np.random.default_rng(7)
    kinds = set()
    for k in range(400):
        n = int(rng.integers(2, 61))
        # mostly path-like, so that Dynkin and extended trees turn up too
        parents = [v - 1 if rng.random() < 0.9 else int(rng.integers(v)) for v in range(1, n)]
        sym = np.zeros((n, n), dtype=np.int64)
        sym[range(1, n), parents] = sym[parents, range(1, n)] = 1
        if k % 2:
            i, j = rng.choice(n, 2, replace=False)
            sym[i, j] = sym[j, i] = 1  # a chord, or a double edge on a tree edge
        perm = rng.permutation(n)
        sym = sym[np.ix_(perm, perm)]
        want = _smith_kind(sym).item()
        assert _kind(sym) == want, sym.tolist()
        kinds.add(want)
    assert kinds == {"dynkin", "extended", "other"}


def _arms(*lengths):
    """Undirected edges of a star with arms of the given vertex counts."""
    edges, nxt = [], 1
    for length in lengths:
        prev = 0
        for v in range(nxt, nxt + length):
            edges.append((prev, v))
            prev = v
        nxt += length
    return edges


def _diagrams():
    """(tag, vertex count, undirected edges) of the named diagrams."""
    for n in range(1, 13):
        yield f"A{n}", n, [(i, i + 1) for i in range(n - 1)]
        yield f"~A{n}", n + 1, [(i, (i + 1) % (n + 1)) for i in range(n + 1)]
    for n in range(4, 13):
        yield f"D{n}", n, _arms(1, 1, n - 3)
        yield f"~D{n}", n + 1, [(i, i + 1) for i in range(n - 2)] + [(1, n - 1), (n - 3, n)]
    for n in (6, 7, 8):
        yield f"E{n}", n, _arms(1, 2, n - 4)
    for tag, arms in (("~E6", (2, 2, 2)), ("~E7", (1, 3, 3)), ("~E8", (1, 2, 5))):
        yield tag, sum(arms) + 1, _arms(*arms)


def test_classify_family_and_rank_under_relabelling():
    # the family rule reads the first branch vertex in index order
    rng = np.random.default_rng(11)
    for tag, n, edges in _diagrams():
        for _ in range(5):
            perm = rng.permutation(n)
            adj = np.zeros((n, n), dtype=np.int64)
            for i, j in edges:
                i, j = (perm[i], perm[j]) if rng.random() < 0.5 else (perm[j], perm[i])
                adj[i, j] += 1
            assert str(classify_underlying_graph(Quiver(range(n), adj))) == tag, adj.tolist()


@pytest.mark.parametrize("name, edges", [
    ("D2000", _arms(1, 1, 1997)),
    ("~A1999", [(i, (i + 1) % 2000) for i in range(2000)]),
])
def test_classify_large_graphs_fast(name, edges):
    adj = np.zeros((2000, 2000), dtype=np.int64)
    adj[tuple(zip(*edges))] = 1
    q = Quiver(range(2000), adj)
    start = time.perf_counter()
    assert str(classify_underlying_graph(q)) == name
    assert time.perf_counter() - start < 1.0


def test_classify_requires_connected():
    with pytest.raises(ValueError):
        classify_underlying_graph(build_quiver(["a", "b"], []))
    with pytest.raises(ValueError):
        classify_underlying_graph(build_quiver([], []))


def test_dynkin_class_invariants():
    with pytest.raises(ValueError):
        DynkinClass("dynkin", "E", 5)
    with pytest.raises(ValueError):
        DynkinClass("dynkin", "D", 3)
    with pytest.raises(ValueError):
        DynkinClass("extended", "E", 9)
    # the rank is an integer: a missing or fractional one raises ValueError
    for family in ("A", "D", "E"):
        with pytest.raises(ValueError, match="rank must be an integer, got None"):
            DynkinClass("dynkin", family)
    with pytest.raises(ValueError, match="rank must be an integer, got 1.5"):
        DynkinClass("dynkin", "A", 1.5)
    assert str(DynkinClass("extended", "D", 4.0)) == "~D4"


@pytest.mark.parametrize("build, message", [
    (lambda: Quiver(["a", "a"], np.zeros((2, 2))), "duplicate vertex labels"),
    (lambda: Quiver(["a", "b"], [[0]]), "adjacency matrix shape (1, 1) does not match 2 labels"),
    (lambda: Quiver(["a"], [[-1]]), "arrow multiplicities must be nonnegative"),
    (lambda: build_quiver(["a"], [("a", "a")]),
     "arrow ('a', 'a') is not a (src, dst, mult) triple"),
    (lambda: build_quiver(["a"], [("b", "a", 1)]), "unknown vertex label 'b'"),
    (lambda: DynkinClass("affine", "A", 2), "bad kind 'affine'"),
    (lambda: DynkinClass("other", "A"), "'other' carries no family or rank"),
    (lambda: DynkinClass("other", None, 3), "'other' carries no family or rank"),
    (lambda: DynkinClass("dynkin", "B", 3), "bad family 'B'"),
    (lambda: DynkinClass("dynkin", "A", 0), "A family needs rank >= 1"),
    (lambda: DynkinClass("extended", "A", 0), "A~ family needs rank >= 1"),
])
def test_input_checks_name_the_fault(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


# -- DOT and JSON ------------------------------------------------------------

def test_to_dot():
    assert to_dot(build_quiver([], [])) == "digraph { }"
    dot = to_dot(build_quiver(["a"], [("a", "a", 1)]))
    assert "a -> a" in dot
    dot2 = to_dot(build_quiver(["1", "2"], [("1", "2", 1), ("2", "1", 1)]))
    assert "1 -> 2" in dot2 and "2 -> 1" in dot2
    # multiplicity as repeated edges
    dot3 = to_dot(build_quiver(["1", "2"], [("1", "2", 2)]))
    assert dot3.count("1 -> 2") == 2
    # labels needing quotes
    dot4 = to_dot(build_quiver(["1+"], [("1+", "1+", 1)]))
    assert '"1+" -> "1+"' in dot4


def test_json_roundtrip():
    q = build_quiver(["1", "2"], [("1", "2", 2), ("2", "2", 1)])
    assert quiver_from_dict(quiver_to_dict(q)) == q
    with pytest.raises(ValueError):
        quiver_from_dict({"vertices": ["a"]})
