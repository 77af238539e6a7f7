"""Finite lattices: validation, joins/meets, cover quivers, FP dimension."""

import itertools
import json
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taufp import lattice
from taufp.coxeter import _first_occurrences, cartan_matrix, weak_order
from taufp.errors import LatticeError
from taufp.lattice import (
    FiniteLattice,
    _largest_rho,
    fpdim_lattice,
    from_covers,
    lattice_from_dict,
    lattice_to_dict,
    opposite,
    q_of,
)
from taufp.preproj import tau_tiltp_model
from taufp.quiver import Quiver
from taufp.spectral import spectral_radius

from helpers import first_occurrences, fpdim_reference, largest_rho_scan

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def load_fixture(name):
    return lattice_from_dict(json.loads((FIXTURES / name).read_text()))


def diamond():
    return from_covers(["top", "a", "b", "bot"],
                       [("top", "a"), ("top", "b"), ("a", "bot"), ("b", "bot")])


def hexagon():
    return from_covers(
        ["e", "1", "2", "12", "21", "121"],
        [("1", "e"), ("2", "e"), ("12", "1"), ("21", "2"), ("121", "12"), ("121", "21")],
    )


def test_chain_and_diamond_valid():
    ch = from_covers(["2", "1", "0"], [("2", "1"), ("1", "0")])
    assert ch.maximum == "2" and ch.minimum == "0"
    d = diamond()
    assert d.join("a", "b") == "top" and d.meet("a", "b") == "bot"
    assert d.join("a", "bot") == "a" and d.meet("a", "top") == "a"


def test_bowtie_rejected_with_pair():
    with pytest.raises(LatticeError) as exc:
        from_covers(["a", "b", "c", "d"], [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    assert "no join for (a, b)" in str(exc.value)
    assert exc.value.pair == ("a", "b")


def test_structural_errors():
    with pytest.raises(ValueError, match="cycle"):
        from_covers(["a", "b"], [("a", "b"), ("b", "a")])
    # an implied cover (a, c) is met before the cycle d <-> e; the cycle wins
    with pytest.raises(ValueError, match="cycle"):
        from_covers(["a", "b", "c", "d", "e"],
                    [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "d")])
    with pytest.raises(ValueError, match="reduced"):
        from_covers(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    # of several implied covers, the first by upper element, then cover
    # order, is named, whatever order the sweep meets them in
    for names, covers, named in [
        ("qprs", [("p", "q"), ("q", "r"), ("r", "s"), ("q", "s"), ("p", "r")], "('q', 's')"),
        ("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("a", "c")], "('a', 'd')"),
    ]:
        with pytest.raises(ValueError, match=re.escape(f"cover {named} is implied by other")):
            from_covers(names, covers)
    with pytest.raises(ValueError, match="unknown"):
        from_covers(["a"], [("a", "zz")])
    with pytest.raises(ValueError, match=r"cover \('a', 'a'\) relates an element to itself"):
        from_covers(["a", "b"], [("a", "b"), ("a", "a")])
    with pytest.raises(ValueError, match=r"duplicate cover \('b', 'c'\)"):
        from_covers(["a", "b", "c"], [("a", "b"), ("b", "c"), ("b", "c"), ("a", "b")])
    with pytest.raises(ValueError, match=r"duplicate cover \('a', 'b'\)"):
        from_covers(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "b"), ("b", "c")])
    with pytest.raises(ValueError, match="duplicate"):
        from_covers(["a", "a"], [])
    with pytest.raises(ValueError):
        from_covers([], [])


def test_index_array_constructor():
    # the constructor takes (upper, lower) index arrays; names come only
    # from the element tuple, and covers reads them back in cover order
    lat = FiniteLattice(["top", "a", "b", "bot"], np.array([0, 0, 1, 2]), [1, 2, 3, 3])
    assert lat.covers == diamond().covers
    assert list(lat.covers) == [("top", "a"), ("top", "b"), ("a", "bot"), ("b", "bot")]
    assert len(lat.covers) == 4 and lat.covers[-1] == ("b", "bot")
    assert lat.covers[:2] == (("top", "a"), ("top", "b"))
    assert lat.covers[::-2] == (("b", "bot"), ("top", "b")) and lat.covers[4:] == ()
    assert opposite(lat).covers == [(lo, up) for up, lo in lat.covers]
    # an empty sequence is no cover; a float, a digit string, a nested or a
    # ragged list is not an index array, though a cast would make it one
    assert len(FiniteLattice(["x"], [], ())) == 1
    for upper, lower in [([0, 0, 1], [1, 2, 3, 3]), ([0, 0, 1, 4], [1, 2, 3, 3]),
                         ([0, 0, 1, -1], [1, 2, 3, 3]), ([0, 0, 1, 2.5], [1, 2, 3, 3]),
                         (["0", "0", "1", "2"], [1, 2, 3, 3]), ([[0, 0], [1, 2]], [1, 2, 3, 3]),
                         ([0, 0, 1, 2], [[1, 2, 3, 3]]), ([0, 0, 1, [2]], [1, 2, 3, 3])]:
        with pytest.raises(ValueError, match="index arrays"):
            FiniteLattice(["top", "a", "b", "bot"], upper, lower)


def test_join_meet_chain_is_minmax():
    ch = from_covers(["3", "2", "1"], [("3", "2"), ("2", "1")])
    assert ch.join("1", "3") == "3"
    assert ch.meet("1", "3") == "1"


def test_hexagon_join_and_q():
    hx = hexagon()
    assert hx.join("1", "2") == "121"
    assert hx.upper_covers("e") == {"1", "2"}
    assert hx.lower_covers("121") == {"12", "21"}
    q = q_of(hx, "e")
    assert q.labels == ("1", "2")
    assert q.adj.tolist() == [[0, 1], [1, 0]]
    assert fpdim_lattice(hx) == (1.0, "e")


def test_diamond_q_has_no_arrows():
    q = q_of(diamond(), "bot")
    assert q.adj.tolist() == [[0, 0], [0, 0]]
    assert fpdim_lattice(diamond())[0] == 0.0


def test_q_of_errors():
    d = diamond()
    with pytest.raises(ValueError):
        q_of(d, "bot", [])
    with pytest.raises(ValueError):
        q_of(d, "bot", ["top"])


@pytest.mark.parametrize("call, message", [
    (lambda d: d.index("side"), "unknown element 'side'"),
    (lambda d: d.join_all([]), "join of an empty set"),
    (lambda d: q_of(d, "bot", ["a", "a"]), "Y has repeated elements"),
    *[(lambda d, cover=cover: FiniteLattice(["a", "b"], cover, [0]),
       "covers must be two index arrays of one length into elements")
      for cover in ([1.5], ["1"], [[1]])],
    (lambda d: from_covers(["a", "b"], ["ab"]), "cover 'ab' is not an (upper, lower) pair"),
    (lambda d: from_covers(["a"], [5]), "cover 5 is not an (upper, lower) pair"),
    (lambda d: from_covers(["a", "b"], [("a", "b", "a")]),
     "cover ('a', 'b', 'a') is not an (upper, lower) pair"),
])
def test_input_checks_name_the_fault(call, message):
    with pytest.raises(ValueError) as err:
        call(diamond())
    assert str(err.value) == message


def test_q_of_subset_is_subquiver():
    # on random subsets Y of dp(x), Q(x, Y) embeds in Q(x, dp(x))
    lat = load_fixture("example31.json")
    rng = np.random.default_rng(17)
    candidates = [x for x in lat.elements if len(lat.upper_covers(x)) >= 2]
    for _ in range(40):
        x = candidates[int(rng.integers(0, len(candidates)))]
        dp = sorted(lat.upper_covers(x))
        keep = [y for y in dp if rng.random() < 0.7]
        if not keep:
            continue
        qfull = q_of(lat, x)
        qsub = q_of(lat, x, keep)
        pos = {lab: k for k, lab in enumerate(qfull.labels)}
        for a in range(qsub.n):
            for b in range(qsub.n):
                assert (
                    qsub.adj[a, b]
                    == qfull.adj[pos[qsub.labels[a]], pos[qsub.labels[b]]]
                )
        assert spectral_radius(qsub) <= spectral_radius(qfull) + 1e-9


def test_chain_fpdim_zero():
    assert fpdim_lattice(load_fixture("chain5.json"))[0] == 0.0
    single = from_covers(["x"], [])
    assert fpdim_lattice(single) == (0.0, None)
    # tol is checked on entry, also where no cover quiver needs a radius
    for lat in (load_fixture("chain5.json"), single):
        for tol in (0, -1, float("nan")):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                fpdim_lattice(lat, tol=tol)


def test_opposite():
    hx = hexagon()
    op = opposite(hx)
    assert op.maximum == hx.minimum and op.minimum == hx.maximum
    again = opposite(op)
    assert again.maximum == hx.maximum
    assert set(again.covers) == set(hx.covers)
    # diamond is self-dual up to relabeling
    d = opposite(diamond())
    assert d.join("a", "b") == "bot"


def test_fpdim_invariant_under_relabeling():
    lat = load_fixture("example31.json")
    val, _ = fpdim_lattice(lat)
    renames = {e: f"z{i}" for i, e in enumerate(lat.elements)}
    lat2 = from_covers([renames[e] for e in lat.elements],
                       [(renames[u], renames[l]) for u, l in lat.covers])
    val2, _ = fpdim_lattice(lat2)
    assert val == pytest.approx(val2, abs=1e-12)


def coarse_radius(adj):
    # the tol of fpdim_lattice is also the tolerance of its power iteration,
    # so at tol 0.5 its radii are only within 0.25 of exact: the reference
    # scan reads the same radii, of the quivers it builds itself
    return spectral_radius(Quiver([str(i) for i in range(len(adj))], adj), tol=0.5)


def test_random_poset_corpus_rejection():
    # from_covers accepts exactly the lattices, checked against a brute-force
    # join/meet existence scan over random posets with up to 10 elements; on
    # every accepted one, q_of agrees with cover quivers built from the
    # brute-force joins.  Some draws also keep one relation that is not a
    # cover, at a random place among the covers, which must be the cover
    # named as implied.  On every accepted one, fpdim_lattice gives the value
    # and witness of the element-by-element scan, at tol 1e-12 and 0.5.
    rng = np.random.default_rng(101)
    pick = np.random.default_rng(202)  # leaves the draws of rng unchanged
    seen_reject = seen_accept = seen_large = seen_implied = 0
    for _ in range(600):
        n = int(rng.integers(2, 11))
        names = [f"p{i}" for i in range(n)]
        rel = np.zeros((n, n), dtype=bool)  # rel[i, j]: i > j, only i < j slots
        for i in range(n):
            for j in range(i + 1, n):
                rel[i, j] = rng.random() < 0.4
        if rng.random() < 0.5:  # bounded: the joins of covers decide
            rel[0, 1:] = rel[:-1, -1] = True
        # transitive closure (declaration order is the linear extension)
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    if rel[i, k] and rel[k, j]:
                        rel[i, j] = True
        covers = [
            (names[i], names[j])
            for i in range(n)
            for j in range(n)
            if rel[i, j] and not any(rel[i, k] and rel[k, j] for k in range(n))
        ]
        implied = [(names[i], names[j]) for i in range(n) for j in range(n)
                   if rel[i, j] and (names[i], names[j]) not in covers]
        if implied and pick.random() < 0.3:
            extra = implied[int(pick.integers(len(implied)))]
            spliced = list(covers)
            spliced.insert(int(pick.integers(len(covers) + 1)), extra)
            message = f"cover {extra!r} is implied by other covers (not transitively reduced)"
            with pytest.raises(ValueError, match=re.escape(message)):
                from_covers(names, spliced)
            seen_implied += 1
        geq = {
            (names[i], names[j]): bool(rel[i, j]) or i == j
            for i in range(n)
            for j in range(n)
        }

        def brute_is_lattice():
            for x, y in itertools.combinations(names, 2):
                for above, rev in ((True, False), (False, True)):
                    bounds = [
                        z for z in names
                        if (geq[(z, x)] and geq[(z, y)]) == above
                        and (geq[(x, z)] and geq[(y, z)]) == rev
                    ]
                    extremal = [
                        m for m in bounds
                        if all(geq[(z, m)] if above else geq[(m, z)] for z in bounds)
                    ]
                    if len(extremal) != 1:
                        return False
            return True

        def brute_join(x, y):
            ubs = [z for z in names if geq[(z, x)] and geq[(z, y)]]
            (least,) = [m for m in ubs if all(geq[(z, m)] for z in ubs)]
            return least

        expect = brute_is_lattice()
        try:
            lat = from_covers(names, covers)
            got = True
        except LatticeError:
            got = False
        assert got == expect
        seen_reject += not expect
        seen_accept += expect
        seen_large += expect and n >= 7
        if not got:
            continue
        cover_set = set(covers)
        for x in names:
            dp = [u for u in names if (u, x) in cover_set]
            if not dp:
                continue
            want = [[int(y != z and (brute_join(y, z), y) not in cover_set) for z in dp]
                    for y in dp]
            q = q_of(lat, x)
            assert list(q.labels) == dp
            assert q.adj.tolist() == want
        for tol, radius in ((1e-12, None), (0.5, coarse_radius)):
            value, witness, _ = fpdim_reference(names, covers, tol, radius)
            assert fpdim_lattice(lat, tol=tol) == (pytest.approx(value, abs=1e-9), witness)
    assert seen_reject > 20 and seen_accept > 20 and seen_large > 20 and seen_implied > 20


@pytest.mark.parametrize("fam, rank", [("A", 3), ("A", 4), ("B", 3), ("D", 4), ("G", 2)])
def test_fpdim_keeps_the_first_witness(fam, rank):
    # one radius per distinct cover quiver gives the value and witness of the
    # element-by-element scan, both ways up; at tol 0.5 some larger radius
    # comes after a witness it does not replace (G2 has one quiver)
    cd = cartan_matrix(fam, rank)
    kept = 0
    for lat in (tau_tiltp_model(cd), weak_order(cd).lattice):
        for tol, radius in ((1e-12, None), (0.5, coarse_radius)):
            value, witness, k = fpdim_reference(lat.elements, list(lat.covers), tol, radius)
            assert fpdim_lattice(lat, tol=tol) == (pytest.approx(value, abs=1e-9), witness)
            kept += k
    assert kept or (fam, rank) == ("G", 2)


def test_rejects_non_lattice_above_old_size_limit():
    # a bowtie between two chains of 400 elements each: bounded, transitively
    # reduced and 804 elements large, but the two lower covers c, d of the
    # upper bowtie pair have no join; the pairwise check used to stop at 600
    top = [f"t{i}" for i in range(400)]
    bottom = [f"s{i}" for i in range(400)]
    names = top + ["a", "b", "c", "d"] + bottom
    covers = list(zip(top, top[1:])) + list(zip(bottom, bottom[1:]))
    covers += [(top[-1], "a"), (top[-1], "b")]
    covers += [(u, l) for u in ("a", "b") for l in ("c", "d")]
    covers += [("c", bottom[0]), ("d", bottom[0])]
    with pytest.raises(LatticeError) as exc:
        from_covers(names, covers)
    assert exc.value.pair == ("c", "d")
    assert "no join for (c, d)" in str(exc.value)


def test_json_roundtrip():
    hx = hexagon()
    assert set(lattice_from_dict(lattice_to_dict(hx)).covers) == set(hx.covers)
    with pytest.raises(ValueError):
        lattice_from_dict({"elements": ["a"]})


def test_example_fixture_shapes():
    lat = load_fixture("example31.json")
    assert len(lat) == 32 and len(lat.covers) == 48
    # one dict of classes, each distinct cover quiver key to its first element
    assert not {"_qclass", "_quivers"} & set(vars(lat))
    keys = [lat._key(x) for x in range(len(lat))]
    assert list(lat._classes.items()) == first_occurrences(keys, range(len(lat)))
    assert sorted(lat.upper_covers("x")) == ["y1", "y2", "y3"]
    q = q_of(lat, "x")
    assert q.adj.tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    q2 = q_of(lat, "x'")
    assert q2.adj.tolist() == [[0, 1], [1, 0]]
    q3 = q_of(lat, "x''")
    assert q3.adj.tolist() == [[0, 0], [0, 0]]
    assert fpdim_lattice(lat) == (2.0, "x")


@pytest.mark.parametrize("m, dtype", [(20, np.int8), (130, np.int16)])
def test_narrow_cover_counts(m, dtype):
    # the bottom b has m atoms, a_i and a_i+1 lie below c_i and all else
    # below the top, so Q(b, dp(b)) is the complement of a path on m vertices:
    # m * m bits overflow int8 at m = 20, and the count itself does at 130
    atoms, mids = [f"a{i}" for i in range(m)], [f"c{i}" for i in range(m - 1)]
    names = ["b", *atoms, *mids, "t"]
    covers = ([(a, "b") for a in atoms] + [("t", c) for c in mids]
              + [(c, a) for i, c in enumerate(mids) for a in atoms[i:i + 2]])
    lat = from_covers(names, covers)
    assert lat._n_dp.dtype == lat._n_ds.dtype == dtype
    above = {}
    for x in reversed(names):  # every cover goes up in the list
        ups = {u for u, l in covers if l == x}
        assert lat.upper_covers(x) == ups
        assert lat.lower_covers(x) == {l for u, l in covers if u == x}
        above[x] = {x}.union(*(above[u] for u in ups))
    for x, y in itertools.product(names, repeat=2):
        assert lat.leq(x, y) == (y in above[x])
    value, witness, _ = fpdim_reference(names, covers, 1e-12)
    assert witness == "b" and value > m - 4
    assert fpdim_lattice(lat) == (pytest.approx(value, abs=1e-9), witness)


@pytest.mark.parametrize("scale", [1, 2**40, 2**56])
def test_first_occurrences_equal_a_dict_scan(scale):
    # keys below 2^50 pack with 13-bit positions into one sort; 2^56 is too
    # wide and takes the stable argsort
    rng = np.random.default_rng(scale % 1000)
    for size in (1, 2, 5000):
        keys = rng.integers(0, 40, size) * scale
        seen = {}
        want_index = [seen.setdefault(k, len(seen)) for k in keys.tolist()]
        want_first = [want_index.index(i) for i in range(len(seen))]
        first, index = _first_occurrences(keys)
        assert first.tolist() == want_first and index.tolist() == want_index


def test_largest_rho_takes_first_occurrences_and_the_tol_rule():
    # the callers hand the kernel the first occurrence of each key (pinned by
    # the one-radius-per-distinct tests); it reads the keys in the order
    # given, not in key order, and returns the winning key.  rhos maps each
    # key to r, standing for the 1x1 block [[r]] of radius r
    read = []

    def scan(rhos, tol=1e-12):
        def block_of(key):
            read.append(key)
            return np.array([[rhos[key]]])

        read.clear()
        return _largest_rho(rhos, block_of, tol)

    assert scan({30: 1, 20: 3, 10: 2}) == (3.0, 20) and read == [30, 20, 10]
    # any hashable keys: Python ints past 2^64, and the int64 bytes of blocks,
    # where those of [[1]] and [[1, 0], [0, 0]] differ only in trailing zeros
    # and stay distinct
    one, three = np.array([[1]]).tobytes(), np.array([[3]]).tobytes()
    wide = np.array([[1, 0], [0, 0]]).tobytes()
    for rhos in ({30 << 70: 1, 20 << 70: 3, 10 << 70: 2}, {one: 1, three: 3, wide: 2}):
        assert scan(rhos) == (3.0, list(rhos)[1]) and read == list(rhos)
    # at tol 0.5 a radius must clear the best by more than 0.5: 3 does, 2 not
    assert scan({30: 1, 20: 3, 10: 2}, 0.5) == (3.0, 20)
    # 3 at the second key is within tol of 2 at the first, so the first stays
    assert scan({"b": 2, "a": 3}, 1.5) == (2.0, "b")
    assert scan({"b": 1, "a": 2}, 2.5) == (0.0, None)
    assert scan({}) == (0.0, None) and read == []


_blocks = st.lists(st.integers(1, 4).flatmap(lambda m: st.lists(
    st.lists(st.integers(0, 3), min_size=m, max_size=m), min_size=m, max_size=m)),
    min_size=1, max_size=6)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_blocks, st.lists(st.integers(0, 5), min_size=1, max_size=30),
       st.sampled_from([1e-12, 0.3]))
def test_pruned_largest_rho_equals_the_unpruned_scan(pool, picks, tol):
    # keys with repeats index a pool of random blocks, and the kernel gets
    # each key's first position; skipping the blocks whose bound cannot beat
    # the best changes neither value nor witness
    keys = [p % len(pool) for p in picks]
    blocks = [np.array(pool[k], dtype=np.int64) for k in keys]
    value, witness, _ = largest_rho_scan(blocks, lambda b: _rho(b, tol), tol)
    first = dict(first_occurrences(keys, range(len(keys))))
    assert (_largest_rho(first, lambda key: blocks[first[key]], tol)
            == (value, None if witness is None else keys[witness]))


def _rho(block, tol=1e-12):
    return spectral_radius(Quiver(range(len(block)), block), tol=tol)


def test_fpdim_computes_one_radius_per_distinct_key(radius_calls):
    # at most one spectral radius per distinct (cover count, arrow mask)
    # among the elements with at least two upper covers: their classes, one
    # per descent set, have 6 distinct keys among 147 elements, and the
    # bound skips 2 of them.  A class's key is that of its set's first
    # element; per element there are 7, as one set holds one block in two
    # vertex orders
    lat = tau_tiltp_model(cartan_matrix("D", 4))
    _, firsts, sets = np.unique(lat._moves[:, :len(lat)] >= 0, axis=1,
                                return_index=True, return_inverse=True)
    xs = np.flatnonzero(lat._n_dp >= 2).tolist()
    pairs = [lat._key(firsts[sets[x]]) for x in xs]
    assert len({lat._key(x) for x in xs}) == 7
    value, witness = fpdim_lattice(lat)
    assert value == pytest.approx(math.sqrt(3), abs=1e-12)  # 2 cos(pi / 6), D4
    want, k, visits = largest_rho_scan(
        [lattice._arrows(*key) for key in pairs], _rho, 1e-12)
    assert (value, witness) == (want, lat._name(xs[k]))
    assert (len(pairs), len(set(pairs)), len(visits), len(radius_calls)) == (147, 6, 6, 4)
    # a distinct block not computed could not win: its bound is <= the best
    assert len(set(radius_calls)) == len(radius_calls)
    assert set(radius_calls) <= {key for key, _, _ in visits}
    assert all(bound <= best for key, bound, best in visits if key not in radius_calls)
