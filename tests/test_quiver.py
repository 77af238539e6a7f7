"""Quiver data type: construction, derived quivers, Dynkin recognition."""

import numpy as np
import pytest

from taufp.quiver import (
    DynkinClass,
    Quiver,
    build_quiver,
    classify_underlying_graph,
    connected_components,
    loop_removed,
    quiver_from_dict,
    quiver_to_dict,
    separated_quiver,
    to_dot,
)


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
