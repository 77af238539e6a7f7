"""Finite lattices: validation, joins/meets, cover quivers, FP dimension."""

import itertools
import json
import pathlib
import re

import numpy as np
import pytest

from taufp.errors import LatticeError
from taufp.lattice import (
    FiniteLattice,
    fpdim_lattice,
    from_covers,
    lattice_from_dict,
    lattice_to_dict,
    opposite,
    q_of,
)
from taufp.spectral import spectral_radius

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
    assert opposite(lat).covers == [(lo, up) for up, lo in lat.covers]
    for upper, lower in [([0, 0, 1], [1, 2, 3, 3]), ([0, 0, 1, 4], [1, 2, 3, 3]),
                         ([0, 0, 1, -1], [1, 2, 3, 3])]:
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


def test_random_poset_corpus_rejection():
    # from_covers accepts exactly the lattices, checked against a brute-force
    # join/meet existence scan over random posets with up to 10 elements; on
    # every accepted one, q_of agrees with cover quivers built from the
    # brute-force joins.  Some draws also keep one relation that is not a
    # cover, at a random place among the covers, which must be the cover
    # named as implied.
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
    assert seen_reject > 20 and seen_accept > 20 and seen_large > 20 and seen_implied > 20


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
    assert sorted(lat.upper_covers("x")) == ["y1", "y2", "y3"]
    q = q_of(lat, "x")
    assert q.adj.tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    q2 = q_of(lat, "x'")
    assert q2.adj.tolist() == [[0, 1], [1, 0]]
    q3 = q_of(lat, "x''")
    assert q3.adj.tolist() == [[0, 0], [0, 0]]
    assert fpdim_lattice(lat) == (2.0, "x")
