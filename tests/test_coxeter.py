"""Cartan matrices, reflection representation, weak order lattices."""

import hashlib
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from taufp.coxeter import (
    _check_faces,
    _flip,
    _weak_order_covers,
    apply_generator,
    cartan_matrix,
    coxeter_exponent,
    identity_element,
    inverse,
    is_ascent,
    longest_element,
    multiply,
    parabolic_longest,
    weak_order,
    weyl_order,
)
from taufp.errors import BudgetError, ConsistencyError
from taufp.lattice import FiniteLattice, fpdim_lattice, q_of
from taufp.preproj import TABLE_TYPES, fpdim_preproj, tau_tiltp_model

from helpers import first_occurrences, weak_order_reference

ROOT = pathlib.Path(__file__).resolve().parent.parent

RANK2PLUS = [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("G", 2)]


def test_cartan_entries():
    assert cartan_matrix("A", 2).cartan.tolist() == [[2, -1], [-1, 2]]
    g2 = cartan_matrix("G", 2).cartan
    assert (g2[0, 1], g2[1, 0]) == (-1, -3)
    b3 = cartan_matrix("B", 3).cartan
    assert (b3[1, 2], b3[2, 1]) == (-1, -2)
    c3 = cartan_matrix("C", 3).cartan
    assert (c3[1, 2], c3[2, 1]) == (-2, -1)
    f4 = cartan_matrix("F", 4).cartan
    assert (f4[1, 2], f4[2, 1]) == (-1, -2)
    e6 = cartan_matrix("E", 6)
    assert sorted(e6.edges()) == [(1, 2), (2, 3), (3, 4), (3, 5), (5, 6)]
    with pytest.raises(ValueError):
        cartan_matrix("E", 9)
    with pytest.raises(ValueError):
        cartan_matrix("B", 1)


def test_symmetrizers():
    assert cartan_matrix("B", 3).symmetrizer_diag == (2, 2, 1)
    assert cartan_matrix("C", 3).symmetrizer_diag == (1, 1, 2)
    assert cartan_matrix("G", 2).symmetrizer_diag == (3, 1)
    assert cartan_matrix("F", 4).symmetrizer_diag == (2, 2, 1, 1)
    assert cartan_matrix("A", 4, multiplier=2).symmetrizer_diag == (2, 2, 2, 2)
    # D C symmetric for every type, any multiplier: cartan_matrix does not
    # check this itself, so this is the check of its two tables
    types = ([("A", r) for r in range(1, 13)] + [(f, r) for f in "BC" for r in range(2, 13)]
             + [("D", r) for r in range(4, 13)] + [("E", r) for r in (6, 7, 8)]
             + [("F", 4), ("G", 2)])
    for fam, rank in types:
        for c in (1, 2, 3):
            cd = cartan_matrix(fam, rank, multiplier=c)
            dc = np.diag(cd.symmetrizer_diag) @ cd.cartan
            assert np.array_equal(dc, dc.T), (fam, rank, c)
    with pytest.raises(ValueError):
        cartan_matrix("A", 2, multiplier=0)


def test_defining_relations():
    for fam, rank in RANK2PLUS:
        cd = cartan_matrix(fam, rank)
        eye = np.eye(rank, dtype=np.int64)
        for i in range(1, rank + 1):
            for j in range(1, rank + 1):
                m = coxeter_exponent(cd, i, j)
                prod = np.linalg.matrix_power(cd._gens[i - 1] @ cd._gens[j - 1], m)
                assert np.array_equal(prod, eye), (fam, rank, i, j)


def test_apply_generator_basics():
    cd = cartan_matrix("A", 2)
    e = identity_element(cd)
    s1 = apply_generator(cd, e, 1)
    assert s1.length == 1
    assert s1.mat[:, 0].tolist() == [-1, 0]  # alpha_1 -> -alpha_1
    # involution
    assert apply_generator(cd, s1, 1) == e
    # braid relation in A2
    s1s2s1 = apply_generator(cd, apply_generator(cd, s1, 2), 1)
    s2 = apply_generator(cd, e, 2)
    s2s1s2 = apply_generator(cd, apply_generator(cd, s2, 1), 2)
    assert s1s2s1 == s2s1s2
    assert s1s2s1.length == 3
    with pytest.raises(ValueError):
        apply_generator(cd, e, 3)


def _lengths(cd):
    # true length of each element, keyed by matrix
    return {e.key(): e.length for e in weak_order(cd).elements.values()}


@pytest.mark.parametrize("fam, rank", RANK2PLUS)
def test_descent_produces_reduced_word(fam, rank):
    cd = cartan_matrix(fam, rank)
    lengths = _lengths(cd)
    w = identity_element(cd)
    rng = np.random.default_rng(2)
    for _ in range(200):
        i = int(rng.integers(1, rank + 1))
        w2 = apply_generator(cd, w, i)
        assert abs(w2.length - w.length) == 1
        assert len(w2.word) == w2.length == lengths[w2.key()]
        # the stored word really multiplies out to the matrix
        acc = identity_element(cd)
        for k in w2.word:
            acc = apply_generator(cd, acc, k)
        assert acc == w2
        w = w2


def test_is_ascent():
    cd = cartan_matrix("A", 2)
    e = identity_element(cd)
    assert is_ascent(e, 1) and is_ascent(e, 2)
    s1 = apply_generator(cd, e, 1)
    assert not is_ascent(s1, 1)
    assert is_ascent(s1, 2)
    w = weak_order(cd)
    w0 = longest_element(w)
    assert not any(is_ascent(w0, i) for i in (1, 2))


def test_weak_order_a2_hexagon():
    w = weak_order(cartan_matrix("A", 2))
    assert w.order == 6
    lat = w.lattice
    assert lat.maximum == "121" and lat.minimum == "e"
    assert sorted(lat.covers) == [
        ("1", "e"), ("12", "1"), ("121", "12"), ("121", "21"), ("2", "e"), ("21", "2"),
    ]
    assert lat.join("1", "2") == "121"


def test_group_orders_match_formulas():
    for fam, rank, expect in [
        ("A", 2, 6), ("A", 3, 24), ("A", 4, 120),
        ("B", 2, 8), ("B", 3, 48), ("C", 3, 48),
        ("D", 4, 192), ("G", 2, 12),
    ]:
        assert weyl_order(fam, rank) == expect
        assert weak_order(cartan_matrix(fam, rank)).order == expect


def test_budget():
    with pytest.raises(BudgetError, match="2903040"):
        weak_order(cartan_matrix("E", 7))
    with pytest.raises(BudgetError):
        weak_order(cartan_matrix("A", 3), budget=10)


def test_weak_order_refuses_rank_above_nine():
    # names take one digit per generator; A10 (39,916,800 elements) fits this
    # budget, so the rank alone stops it, before any work
    started = time.perf_counter()
    with pytest.raises(BudgetError, match="A10: rank 10 is above 9"):
        weak_order(cartan_matrix("A", 10), budget=10**9)
    assert time.perf_counter() - started < 1


def test_longest_and_parabolic():
    wa2 = weak_order(cartan_matrix("A", 2))
    w0 = longest_element(wa2)
    assert w0.length == 3 and w0.word == (1, 2, 1)
    assert parabolic_longest(wa2, [1]).word == (1,)
    wa3 = weak_order(cartan_matrix("A", 3))
    assert parabolic_longest(wa3, [1, 3]).length == 2
    wg2 = weak_order(cartan_matrix("G", 2))
    assert longest_element(wg2).length == 6
    with pytest.raises(ValueError):
        parabolic_longest(wa2, [])


@pytest.mark.parametrize("fam, rank", [("A", 3), ("B", 3), ("D", 4), ("F", 4), ("G", 2)])
def test_parabolic_longest_is_the_join_of_its_generators(fam, rank):
    w = weak_order(cartan_matrix(fam, rank))
    for size in range(1, rank + 1):
        for js in itertools.combinations(range(1, rank + 1), size):
            name = w.lattice.join_all([str(j) for j in js])
            assert parabolic_longest(w, js) == w.element(name)
            assert parabolic_longest(w, js).word == tuple(map(int, name))


def test_parabolic_longest_makes_no_lattice_sweep():
    w = weak_order(cartan_matrix("E", 6))
    assert parabolic_longest(w, [1, 2, 3]).word == (1, 2, 1, 3, 2, 1)
    assert "_up" not in vars(w.lattice)


def test_b_and_c_give_the_same_weak_order():
    # the Coxeter matrices agree, so the lattices coincide element for element
    wb = weak_order(cartan_matrix("B", 3))
    wc = weak_order(cartan_matrix("C", 3))
    assert set(wb.lattice.covers) == set(wc.lattice.covers)
    wb2 = weak_order(cartan_matrix("B", 2))
    wc2 = weak_order(cartan_matrix("C", 2))
    assert set(wb2.lattice.covers) == set(wc2.lattice.covers)


@pytest.mark.parametrize("fam, rank", RANK2PLUS)
def test_multiply_and_inverse(fam, rank):
    cd = cartan_matrix(fam, rank)
    w = weak_order(cd)
    lengths = _lengths(cd)
    rng = np.random.default_rng(8)
    names = list(w.elements)
    for _ in range(50):
        a = w.element(names[int(rng.integers(0, len(names)))])
        b = w.element(names[int(rng.integers(0, len(names)))])
        ab = multiply(cd, a, b)
        assert np.array_equal(ab.mat, a.mat @ b.mat)
        assert len(ab.word) == ab.length == lengths[ab.key()]
        acc = identity_element(cd)
        for k in ab.word:
            acc = apply_generator(cd, acc, k)
        assert acc == ab
        ai = inverse(cd, a)
        assert multiply(cd, a, ai) == identity_element(cd)


def test_length_counts_inverted_positive_roots():
    # rank <= 3: enumerate positive roots as columns w(alpha_i), then check
    # l(w) = #{positive roots sent negative}
    for fam, rank in [("A", 2), ("A", 3), ("B", 3), ("G", 2)]:
        cd = cartan_matrix(fam, rank)
        w = weak_order(cd)
        roots = set()
        for elem in w.elements.values():
            for i in range(rank):
                col = tuple(int(x) for x in elem.mat[:, i])
                if all(c >= 0 for c in col):
                    roots.add(col)
        pos = [np.array(r, dtype=np.int64) for r in roots]
        assert len(pos) == longest_element(w).length
        for name, elem in w.elements.items():
            negated = sum(1 for r in pos if (elem.mat @ r <= 0).all())
            assert negated == elem.length, name


# the E6 reference search takes about 2 s, so it runs under stretch
REFERENCE_TYPES = [t for t in TABLE_TYPES if t != ("E", 6)] + [
    pytest.param("E", 6, marks=pytest.mark.stretch)
]


@pytest.mark.parametrize("fam, rank", REFERENCE_TYPES)
def test_weak_order_matches_reference_bfs(fam, rank):
    # the level-batched BFS keeps the names, declaration order, cover order,
    # words and matrices of the plain one-element-at-a-time search, and
    # each name walks down the tree to its own index
    cd = cartan_matrix(fam, rank)
    w = weak_order(cd)
    names, covers, words, mats = weak_order_reference(cd.cartan)
    assert w.lattice.elements == tuple(names)
    assert [w.lattice.index(x) for x in names] == list(range(len(names)))
    assert w.lattice.covers == tuple(covers)
    assert list(w.elements) == names
    for name, word, mat in zip(names, words, mats):
        assert w.element(name).word == word, name
        assert np.array_equal(w.element(name).mat, mat), name


def test_integral_arguments():
    # integral floats pass as their int; anything else is a ValueError
    e6 = cartan_matrix("E", 6.0)
    assert type(e6.rank) is int and e6.name == "E6"
    assert cartan_matrix("A", 3, multiplier=2.0).symmetrizer_diag == (2, 2, 2)
    assert weyl_order("A", 3.0) == 24
    for bad in (2.5, float("nan"), "3", None):
        with pytest.raises(ValueError, match="rank must be an integer"):
            cartan_matrix("A", bad)
        with pytest.raises(ValueError, match="rank must be an integer"):
            weyl_order("A", bad)
    with pytest.raises(ValueError, match="multiplier must be an integer"):
        cartan_matrix("A", 3, multiplier=1.5)
    cd = cartan_matrix("A", 3)
    e = identity_element(cd)
    assert apply_generator(cd, e, 1.0) == apply_generator(cd, e, 1)
    with pytest.raises(ValueError, match="generator index must be an integer"):
        apply_generator(cd, e, 1.5)
    wa3 = weak_order(cd)
    assert parabolic_longest(wa3, [1.0, 3]).length == 2
    with pytest.raises(ValueError, match="generator index must be an integer"):
        parabolic_longest(wa3, [1.7])
    with pytest.raises(ValueError, match="out of range"):
        parabolic_longest(wa3, [4])


def test_lattice_callers_build_no_generator_matrices():
    cd = cartan_matrix("D", 4)
    tau_tiltp_model(cd)
    fpdim_preproj(cd)
    w = weak_order(cd)
    assert w.lattice.maximum == "121321421324"
    assert "_gens" not in vars(cd) and "elements" not in vars(w)
    assert longest_element(w).word == (1, 2, 1, 3, 2, 1, 4, 2, 1, 3, 2, 4)
    assert "_gens" in vars(cd) and "elements" not in vars(w)
    assert parabolic_longest(w, [1, 2, 3]).word == (1, 2, 1, 3, 2, 1)
    assert "elements" not in vars(w)
    assert longest_element(w) == w.element(w.lattice.maximum)


def test_element_walks_its_name_and_builds_one_matrix():
    # element checks the name by walking it down the BFS tree and builds one
    # matrix from its word: equal to the entry of the dict of every element,
    # which it does not build
    for fam, rank in [t for t in TABLE_TYPES if t != ("E", 6)]:
        w = weak_order(cartan_matrix(fam, rank))
        got = [w.element(x) for x in w.lattice.elements]
        assert "elements" not in vars(w)
        assert ([(e.word, e.mat.tolist()) for e in got]
                == [(e.word, e.mat.tolist()) for e in w.elements.values()]), (fam, rank)
    # a letter, the empty name, digits out of range, a non-reduced word and
    # a non-canonical word of w0 raise the lattice's ValueError
    w = weak_order(cartan_matrix("A", 2))
    for bad in ["x", "", "0", "3", "11", "212"]:
        with pytest.raises(ValueError) as got:
            w.element(bad)
        assert str(got.value) == f"unknown element {bad!r}"
    assert "elements" not in vars(w)


def test_index_checks_of_is_ascent_and_coxeter_exponent():
    # index 0 once read the last column or row through numpy's negative indexing
    cd = cartan_matrix("A", 3)
    e = identity_element(cd)
    assert is_ascent(e, 1.0) and coxeter_exponent(cd, 1.0, 2) == 3
    for bad in (0, 4, -1):
        with pytest.raises(ValueError, match="out of range"):
            is_ascent(apply_generator(cd, e, 3), bad)
        with pytest.raises(ValueError, match="out of range"):
            coxeter_exponent(cd, bad, 1)
        with pytest.raises(ValueError, match="out of range"):
            coxeter_exponent(cd, 1, bad)
    for bad in (1.5, "1", None):
        with pytest.raises(ValueError, match="generator index must be an integer"):
            is_ascent(e, bad)
        with pytest.raises(ValueError, match="generator index must be an integer"):
            coxeter_exponent(cd, bad, 1)


# the E6 join route builds 172 MB of up-sets in about a second, so it runs under stretch
FACE_TYPES = [t for t in TABLE_TYPES if t != ("E", 6)] + [
    pytest.param("E", 6, marks=pytest.mark.stretch)
]


@pytest.mark.parametrize("fam, rank", FACE_TYPES)
def test_face_masks_equal_join_masks(fam, rank):
    # the cover quivers read off the descent table are the ones the generic
    # constructor computes from joins (Bjorner-Edelman-Ziegler), both ways
    # up, element by element in each element's own dp order; the table's
    # upper covers, cover lists and cover counts are those of its derived
    # covers
    cd = cartan_matrix(fam, rank)
    for lat in (tau_tiltp_model(cd), weak_order(cd).lattice):
        assert not {"_qclass", "_quivers"} & set(vars(lat))
        joined = FiniteLattice(lat.elements, lat._upper, lat._lower)
        assert [lat._dp_of(x) for x in range(len(lat))] == joined._parents
        for lists in ("_parents", "_children"):
            assert getattr(lat, lists) == getattr(joined, lists), lists
        for counts in ("_n_dp", "_n_ds"):
            assert np.array_equal(getattr(lat, counts), getattr(joined, counts)), counts
        keys = [lat._key(x) for x in range(len(lat))]
        joined_keys = [joined._key(x) for x in range(len(lat))]
        assert keys == joined_keys
        assert list(joined._classes.items()) == first_occurrences(joined_keys, range(len(lat)))
        assert (lat._max, lat._min) == (joined._max, joined._min)
        # a class is one set of generators, every set occurs, and the class
        # dict keeps the first occurrence of the keys of the sets' first elements
        _, firsts = np.unique(lat._moves[:, :len(lat)] >= 0, axis=1, return_index=True)
        assert len(firsts) == 1 << rank
        assert list(lat._classes.items()) == first_occurrences(keys, sorted(firsts.tolist()))


def test_face_certificate_names_a_broken_face():
    cd = cartan_matrix("A", 3)
    tree, down = _weak_order_covers(cd, 100)
    _check_faces(cd, tree, down)
    top = len(tree[0]) - 1  # w0, where every generator is a descent
    down[[0, 1], top] = down[[1, 0], top]
    with pytest.raises(ConsistencyError, match=r"A3: the \(1, 2\) face below '121321' "
                                               r"is not a 6-gon"):
        _check_faces(cd, tree, down)
    # every step still goes down, but 121 -> 12 -> 1 -> 2 ends apart from 121 -> 21 -> 2 -> e
    a2 = cartan_matrix("A", 2)
    tree2, down = _weak_order_covers(a2, 100)
    names2 = weak_order(a2).lattice.elements
    down[0, names2.index("1")] = names2.index("2")
    with pytest.raises(ConsistencyError, match=r"A2: the \(1, 2\) face below '121'"):
        _check_faces(a2, tree2, down)
    # two elements step down to one element under one generator: the ascent
    # table would get two covers above it with that label
    tree, down = _weak_order_covers(cd, 100)
    x, y = np.flatnonzero(down[0] >= 0)[:2]
    down[0, y] = down[0, x]
    with pytest.raises(ConsistencyError, match="two covers above one element share a label"):
        _flip(down)


@pytest.mark.parametrize("fam, rank", [("A", 3), ("D", 4)])
def test_face_built_order_queries_equal_generic(fam, rank):
    cd = cartan_matrix(fam, rank)
    for build in (lambda: weak_order(cd).lattice, lambda: tau_tiltp_model(cd)):
        lat = build()
        assert isinstance(lat, FiniteLattice)
        generic = FiniteLattice(lat.elements, lat._upper, lat._lower)
        for x, y in itertools.product(lat.elements, repeat=2):
            assert lat.leq(x, y) == generic.leq(x, y)
            assert lat.join(x, y) == generic.join(x, y)
            assert lat.meet(x, y) == generic.meet(x, y)
            assert lat.interval(x, y) == generic.interval(x, y)
        for x in lat.elements:
            assert lat.upper_covers(x) == generic.upper_covers(x)
            assert lat.lower_covers(x) == generic.lower_covers(x)
            if x != lat.maximum:
                assert q_of(lat, x) == q_of(generic, x)
        # a lattice walks each name down its BFS tree, before and after its
        # names are built
        walked = build()
        assert [walked.index(x) for x in lat.elements] == list(range(len(lat)))
        assert walked.index("e") == 0
        # a non-canonical word of s1 s3, a non-reduced word, digits out of
        # range, a letter, the empty name and a non-string fail as on the
        # generic lattice
        for bad in ["31", "11", str(rank + 1), "0", "1x", "x", "", 3.5]:
            with pytest.raises(ValueError) as want:
                generic.index(bad)
            for named in (walked, lat):
                with pytest.raises(ValueError) as got:
                    named.index(bad)
                assert str(got.value) == str(want.value)
        # the walk reads the tree alone: no names, no cover lists and no
        # cover arrays
        assert not {"elements", "_parents", "_upper", "_lower"} & set(vars(walked))
        # lower_covers reads the table alone, and the order queries and a cover
        # name their results off the tree: no name list
        fresh = build()
        assert ([fresh.lower_covers(x) for x in lat.elements]
                == [generic.lower_covers(x) for x in lat.elements])
        assert not {"elements", "_parents", "_children", "_upper", "_lower"} & set(vars(fresh))
        sample = lat.elements[::7]
        for x, y in itertools.product(sample, repeat=2):
            assert fresh.join(x, y) == generic.join(x, y)
            assert fresh.meet(x, y) == generic.meet(x, y)
            assert fresh.interval(x, y) == generic.interval(x, y)
        assert fresh.join_all(sample) == generic.join_all(sample)
        ks = [0, len(generic.covers) // 2, -1]
        assert [fresh.covers[k] for k in ks] == [generic.covers[k] for k in ks]
        assert "elements" not in vars(fresh)


def test_model_fpdim_builds_no_upsets():
    model = tau_tiltp_model(cartan_matrix("D", 5))
    fpdim_lattice(model)
    assert not {"_up", "_pos", "_toporder"} & set(vars(model)) and "_down" not in vars(model)
    # nor any per-element list, the name index or the cover arrays: the scan
    # reads the class keys
    assert not {"_parents", "_children", "_index", "_upper", "_lower"} & set(vars(model))
    assert model.leq(model.minimum, model.maximum)
    assert {"_up", "_pos", "_toporder"} <= set(vars(model))
    # the sweep read the cover arrays, which flip the table into a temporary:
    # the model keeps its one table
    tables = [k for k, v in vars(model).items()
              if isinstance(v, np.ndarray) and v.shape == model._moves.shape]
    assert "_upper" in vars(model) and tables == ["_moves"]
    # upper_covers and q_of read one column of the table, lower_covers that
    # column and one row per lower cover, and each names only the covers: no
    # cover list, no cover array, no name list and no name index
    for read in (lambda lat: lat.upper_covers(lat.minimum),
                 lambda lat: q_of(lat, lat.minimum).labels,
                 lambda lat: lat.lower_covers(lat.maximum)):
        lat = tau_tiltp_model(cartan_matrix("D", 5))
        fpdim_lattice(lat)
        assert len(read(lat)) == 5
        assert not {"_parents", "_upper", "_lower", "elements", "_index"} & set(vars(lat))
        assert "_children" not in vars(lat)


# Prints the seconds and the peak RSS (VmHWM, kB) of the E7 single-element
# queries after the FP dimension scan, and their results, as one JSON line.
_E7_CHILD = """
import json, time
started = time.perf_counter()
from taufp.coxeter import cartan_matrix
from taufp.lattice import fpdim_lattice, q_of
from taufp.preproj import tau_tiltp_model
lat = tau_tiltp_model(cartan_matrix("E", 7), budget=2_903_040)
rho, witness = fpdim_lattice(lat)
below = sorted(lat.lower_covers(lat.maximum))
arrows = int(q_of(lat, witness).adj.sum())
status = open("/proc/self/status").read().split("VmHWM:")[1]
print(json.dumps([witness, below, arrows, time.perf_counter() - started,
                  int(status.split()[0])]))
"""


@pytest.mark.stretch
def test_e7_single_element_queries_build_no_names():
    # lower_covers and q_of read the descent table of 2,903,040 elements and
    # walk the BFS tree; building every name for lower_covers once took 1.1 s
    # and raised the peak from 178 to 636 MB
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _E7_CHILD], env=env, capture_output=True,
                          text=True, check=True)
    witness, below, arrows, elapsed, peak_kb = json.loads(proc.stdout)
    assert witness == "121321432153214325346532143253465321765321432534653217653243567"
    # e lies above the seven generators, and Q(w0) is the Coxeter graph of E7
    # (six edges, both ways)
    assert below == [str(i) for i in range(1, 8)] and arrows == 12
    assert elapsed < 5 and peak_kb / 1024 < 200


def _sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_model_builds_no_names_until_read():
    # the scan, the sizes and the extremes read names off the BFS tree
    lat = tau_tiltp_model(cartan_matrix("E", 6))
    w0 = "121321432153214325346532143253465321"
    assert fpdim_lattice(lat) == (pytest.approx(2 * math.cos(math.pi / 12), abs=1e-12), w0)
    assert (len(lat), len(lat.covers), lat.maximum, lat.minimum) == (51840, 155520, "e", w0)
    assert "elements" not in vars(lat)
    # built on first read: unique, and the names and covers of the name-list BFS
    names = lat.elements
    assert "elements" in vars(lat) and len(set(names)) == len(names)
    assert _sha256(names) == "778da8dfdf1e401b6f312bbedbf1ff7c92fb0ff420fbb778148422ab3338e3cd"
    assert _sha256(f"{u} {l}" for u, l in lat.covers) == (
        "09119b1fc21badac11404928a250a1512670f411beb8bc51243addb6a485c50f")
