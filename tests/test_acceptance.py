"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  The E6 cover-quiver check against the group elements, the
sandwich and bijection checks on every Nakayama algebra with n = 5 and on
the cyclic [16]*8 live in the stretch marker; everything else, the
end-to-end run of the two largest weak orders (F4, E6) included, runs in
the default suite.

The oracle-equivalence criterion is defined first because every Hom/Ext
value used elsewhere rests on it.
"""

import itertools
import json
import math
import pathlib
import time

import numpy as np
import pytest

from taufp.coxeter import (
    cartan_matrix,
    identity_element,
    inverse,
    is_ascent,
    longest_element,
    multiply,
    parabolic_longest,
    weak_order,
    weyl_order,
)
from taufp.lattice import fpdim_lattice, from_covers, lattice_from_dict, opposite, q_of
from taufp.nakayama import (
    DEFAULT_MAX_N,
    ext_dim,
    fpdim_nakayama,
    hom_dim,
    indecomposables,
    make_algebra,
    self_ext_bound,
    semibricks,
    tau_tiltp_lattice,
    tau_tilting_pairs,
)
from taufp.preproj import (
    TABLE_TYPES as TABLE_GRID,
    bn_family_char_polys,
    dynkin_rho,
    gabriel_quiver,
    tau_tiltp_model,
)
from taufp.quiver import (
    Quiver,
    build_quiver,
    classify_underlying_graph,
    connected_components,
    loop_removed,
    separated_quiver,
)
from taufp.spectral import (
    gram_matrix,
    definiteness,
    largest_real_root,
    spectral_radius,
)

from helpers import cyclic_series, ext_oracle, hom_oracle, linear_series, nakayama_corpus

TOL = 1e-9
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
CORPUS = nakayama_corpus(n_max=4, l_max=8)

COXETER_MAIN = [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2)]


def _ok(k, msg=""):
    print(f"ACCEPTANCE {k}: PASS {msg}".rstrip())


# -- criterion 6 (gates the Nakayama calculus) --------------------------------

def test_criterion06_hom_ext_oracle_equivalence():
    pairs = 0
    for alg in CORPUS:
        mods = indecomposables(alg)
        for m in mods:
            for n_ in mods:
                assert hom_dim(alg, m, n_) == hom_oracle(alg, m, n_), (str(alg), str(m), str(n_))
                assert ext_dim(alg, m, n_) == ext_oracle(alg, m, n_), (str(alg), str(m), str(n_))
                pairs += 1
    _ok(6, f"(hom and ext equal the representation oracle on {pairs} ordered pairs)")


# -- criterion 1 ---------------------------------------------------------------

def test_criterion01_tables_reproduction():
    started = time.perf_counter()
    for fam, rank in TABLE_GRID:
        for mult in (1, 2):
            cd = cartan_matrix(fam, rank, multiplier=mult)
            computed = spectral_radius(gabriel_quiver(cd))
            closed = dynkin_rho(fam, rank, minimal=(mult == 1))
            assert abs(computed - closed) <= TOL, (fam, rank, mult, computed, closed)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _ok(1, f"(both tables, {2 * len(TABLE_GRID)} entries, {elapsed:.3f}s)")


# -- criterion 2 ---------------------------------------------------------------

def test_criterion02_b_type_recurrence():
    started = time.perf_counter()
    fs = bn_family_char_polys(6)  # raises unless the recurrence holds exactly
    for n, f in enumerate(fs, start=1):
        top = largest_real_root(f)
        assert abs(top - (1 + 2 * math.cos(2 * math.pi / (2 * n + 1)))) <= TOL
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _ok(2, f"(f_1..f_6 recurrence exact, largest roots match, {elapsed:.3f}s)")


# -- criterion 3 ---------------------------------------------------------------

def _coxeter_end_to_end(fam, rank):
    cd = cartan_matrix(fam, rank)
    got, witness = fpdim_lattice(tau_tiltp_model(cd))
    want = spectral_radius(loop_removed(gabriel_quiver(cd)))
    assert witness is not None
    assert abs(got - want) <= TOL, (
        f"{fam}{rank}: lattice FP dimension {got!r} vs loop-removed radius {want!r}"
    )
    return got


def test_criterion03_coxeter_end_to_end():
    started = time.perf_counter()
    values = {}
    for fam, rank in COXETER_MAIN:
        values[(fam, rank)] = _coxeter_end_to_end(fam, rank)
    assert values[("A", 3)] == pytest.approx(math.sqrt(2), abs=TOL)
    assert values[("G", 2)] == pytest.approx(1.0, abs=TOL)
    assert values[("A", 4)] == pytest.approx(2 * math.cos(math.pi / 5), abs=TOL)
    assert values[("D", 4)] == pytest.approx(math.sqrt(3), abs=TOL)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _ok(3, f"(8 types, {elapsed:.2f}s)")


def test_criterion03_f4_e6():
    # the descent table builds E6 in about 0.02 s, so both run in the default suite
    started = time.perf_counter()
    _coxeter_end_to_end("F", 4)
    _coxeter_end_to_end("E", 6)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _ok(3, f"(F4 with 1152 and E6 with 51840 elements, {elapsed:.1f}s)")


def _reference_fpdim(lat):
    """The FP dimension by its definition: max rho(Q(x)) over x below the
    maximum, ties to the first element in declaration order."""
    best, witness = 0.0, None
    for x in lat.elements:
        if x == lat.maximum:
            continue
        if witness is None:
            witness = x
        if len(lat.upper_covers(x)) > 1:
            rho = spectral_radius(q_of(lat, x))
            if rho > best + 1e-12:
                best, witness = rho, x
    return best, witness


def test_criterion03_model_is_the_opposite_weak_order():
    lattices = []
    for fam, rank in TABLE_GRID:
        if (fam, rank) == ("E", 6):
            continue
        cd = cartan_matrix(fam, rank)
        model = tau_tiltp_model(cd)
        dual = opposite(weak_order(cd).lattice)
        assert model.elements == dual.elements, (fam, rank)
        assert model.covers == dual.covers, (fam, rank)
        lattices.append(model)
    for path in sorted(FIXTURES.glob("*.json")):
        data = json.loads(path.read_text())
        # quiver fixtures have no covers; bowtie is the non-lattice fixture
        if "covers" in data and path.name != "bowtie.json":
            lattices.append(lattice_from_dict(data))
    # a diamond glued under a hexagon: Q(0) has no arrows and Q(t) is a
    # 2-cycle, so a radius reused across distinct quivers of one size shows
    lattices.append(from_covers(
        ["0", "a", "b", "t", "c", "d", "c2", "d2", "top"],
        [("a", "0"), ("b", "0"), ("t", "a"), ("t", "b"), ("c", "t"), ("d", "t"),
         ("c2", "c"), ("d2", "d"), ("top", "c2"), ("top", "d2")],
    ))
    assert fpdim_lattice(lattices[-1]) == (1.0, "t")
    assert len(lattices) == len(TABLE_GRID) - 1 + 3 + 1
    for lat in lattices:
        assert fpdim_lattice(lat) == _reference_fpdim(lat), lat
    _ok(3, f"(model = opposite weak order, fpdim = reference loop on {len(lattices)} lattices)")


def _descent_graph_mismatches(fam, rank):
    """Elements x of the model whose Q(x) is not the double Dynkin graph
    induced on the right descent set of x (Bjorner-Brenti, GTM 231, 3.2)."""
    cd = cartan_matrix(fam, rank)
    w = weak_order(cd)
    model = tau_tiltp_model(cd)
    by_key = {elem.key(): name for name, elem in w.elements.items()}
    gens = [w.element(str(i)).mat for i in range(1, rank + 1)]
    bad = []
    for x in model.elements:
        if x == model.maximum:
            continue
        elem = w.element(x)
        gen_of = {by_key[(elem.mat @ g).tobytes()]: i for i, g in enumerate(gens)}
        descents = {i for i in range(rank) if not is_ascent(elem, i + 1)}
        q = q_of(model, x)
        ys = [gen_of[y] for y in q.labels]
        want = [[int(a != b and cd.cartan[a, b] != 0) for b in ys] for a in ys]
        if set(ys) != descents or q.adj.tolist() != want:
            bad.append(x)
    return bad


def test_criterion03_cover_quivers_are_descent_graphs():
    types = [t for t in TABLE_GRID if t != ("E", 6)]
    for fam, rank in types:
        assert _descent_graph_mismatches(fam, rank) == [], (fam, rank)
    _ok(3, f"(Q(x) = double Dynkin graph on the descents of x, {len(types)} types)")


@pytest.mark.stretch
def test_criterion03_stretch_e6_descent_graphs():
    assert _descent_graph_mismatches("E", 6) == []
    _ok(3, "(stretch: Q(x) = descent graph on all 51840 elements of E6)")


# -- criterion 4 ---------------------------------------------------------------

def test_criterion04_nakayama_fpdim_dichotomy():
    started = time.perf_counter()
    for alg in CORPUS:
        got = fpdim_nakayama(alg)
        want = 0.0 if alg.shape == "linear" else 1.0
        assert abs(got - want) <= TOL, (str(alg), got)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _ok(4, f"({len(CORPUS)} algebras, {elapsed:.1f}s)")


# -- criterion 5 ---------------------------------------------------------------

def _check_sandwich_and_bijection(alg, max_n=DEFAULT_MAX_N):
    n_sb = len(semibricks(alg, max_n=max_n))
    n_pairs = len(tau_tilting_pairs(alg, max_n=max_n))
    assert n_sb == n_pairs, str(alg)
    flat, _ = fpdim_lattice(tau_tiltp_lattice(alg, max_n=max_n))
    db = self_ext_bound(alg)
    fa = fpdim_nakayama(alg, max_n=max_n)
    assert max(flat, db) <= fa + TOL, (str(alg), flat, db, fa)
    assert fa <= flat + db + TOL, (str(alg), flat, db, fa)
    return n_pairs, flat, fa


def test_criterion05_sandwich_and_bijection():
    for alg in CORPUS:
        _check_sandwich_and_bijection(alg)
    _ok(5, f"({len(CORPUS)} algebras)")


@pytest.mark.stretch
def test_criterion05_stretch_all_n5():
    # every connected Nakayama algebra with 5 simples, up to the length cap
    # max(2n, 8) = 10 of the enumeration budget
    n5 = [make_algebra("linear", s) for s in linear_series(5) if len(s) == 5]
    n5 += [make_algebra("cyclic", s) for s in cyclic_series(5, 10) if len(s) == 5]
    assert len(n5) == 888
    started = time.perf_counter()
    for alg in n5:
        _check_sandwich_and_bijection(alg)
    _ok(5, f"(stretch: all {len(n5)} algebras with n = 5, {time.perf_counter() - started:.1f}s)")


@pytest.mark.stretch
def test_criterion05_stretch_cyclic_n8():
    alg = make_algebra("cyclic", [16] * 8)
    started = time.perf_counter()
    n_pairs, flat, fa = _check_sandwich_and_bijection(alg, max_n=8)
    elapsed = time.perf_counter() - started
    assert n_pairs == math.comb(16, 8) == 12870
    assert len(tau_tiltp_lattice(alg, max_n=8).covers) == 51480
    assert fa == pytest.approx(1.0, abs=TOL) and flat == pytest.approx(1.0, abs=TOL)
    _ok(5, f"(stretch: cyclic [16]*8, 12870 pairs and 51480 covers, {elapsed:.1f}s)")


# -- criterion 7 ---------------------------------------------------------------

def _path_edges(n):
    return [(f"v{i}", f"v{i + 1}") for i in range(1, n)]


def _diagram_edges(kind, rank):
    if kind == "A":
        return _path_edges(rank)
    if kind == "D":
        return _path_edges(rank - 1) + [(f"v{rank - 2}", f"v{rank}")]
    if kind == "E":
        chain = [1, 2, 3] + list(range(5, rank + 1))
        return [(f"v{a}", f"v{b}") for a, b in zip(chain, chain[1:])] + [("v3", "v4")]
    if kind == "~A":  # rank + 1 vertices in a cycle; bipartite iff rank is odd
        m = rank + 1
        return [(f"v{i}", f"v{i % m + 1}") for i in range(1, m + 1)]
    if kind == "~D":
        if rank == 4:
            return [("v0", f"v{i}") for i in range(1, 5)]
        spine = rank - 3
        return (
            _path_edges(spine)
            + [("a", "v1"), ("b", "v1"), (f"v{spine}", "c"), (f"v{spine}", "d")]
        )
    arms = {"~E6": (2, 2, 2), "~E7": (1, 3, 3), "~E8": (1, 2, 5)}[kind + str(rank)]
    edges = []
    for ai, alen in enumerate(arms):
        prev = "c"
        for k in range(alen):
            cur = f"a{ai}_{k}"
            edges.append((prev, cur))
            prev = cur
    return edges


def _bipartite_orientations(edges):
    """The two source/sink orientations of a connected bipartite graph."""
    if not edges:  # the one-vertex diagram: a single sink
        return [build_quiver(["v1"], [])]
    verts = sorted({v for e in edges for v in e})
    color = {verts[0]: 0}
    queue = [verts[0]]
    adj = {v: [] for v in verts}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    while queue:
        v = queue.pop()
        for w in adj[v]:
            if w not in color:
                color[w] = 1 - color[v]
                queue.append(w)
            elif color[w] == color[v]:
                return []  # odd cycle: no bipartite orientation
    out = []
    for side in (0, 1):
        arrows = []
        for a, b in edges:
            src, dst = (a, b) if color[a] == side else (b, a)
            arrows.append((src, dst, 1))
        out.append(build_quiver(verts, arrows))
    return out


# the paper's bipartite extended-Dynkin fixtures with their null vectors,
# sinks declared first so kernel coordinates line up
PSD_FIXTURES = [
    # even cycle (sources between sinks)
    ("cycle6", ["1", "2", "3"],
     [("u1", "1"), ("u1", "2"), ("u2", "2"), ("u2", "3"), ("u3", "3"), ("u3", "1")],
     (1, 1, 1)),
    # four pendant sources around a path of sinks
    ("forkpath1", ["1"], [("a", "1"), ("b", "1"), ("c", "1"), ("d", "1")], (1,)),
    ("forkpath2", ["1", "2"],
     [("a", "1"), ("c", "1"), ("m", "1"), ("m", "2"), ("b", "2"), ("d", "2")], (1, 1)),
    # branch source feeding two leaf sinks plus a sink path
    ("brancher4", ["1", "2", "3", "4"],
     [("B", "1"), ("B", "2"), ("B", "3"), ("m", "3"), ("m", "4"), ("b", "4"), ("d", "4")],
     (1, 1, 2, 2)),
    # two branch sources sharing a middle sink
    ("doublebranch5", ["1", "2", "3", "4", "5"],
     [("B1", "1"), ("B1", "2"), ("B1", "3"), ("B2", "3"), ("B2", "4"), ("B2", "5")],
     (1, 1, 2, 1, 1)),
    ("starsource4", ["1", "2", "3", "4"],
     [("c", "1"), ("c", "2"), ("c", "3"), ("c", "4")], (1, 1, 1, 1)),
    # the six exceptional shapes
    ("e6_source_center", ["1", "2", "3"],
     [("a", "1"), ("B", "1"), ("B", "2"), ("B", "3"), ("c", "3"), ("d", "2")], (1, 1, 1)),
    ("e6_sink_center", ["1", "2", "3", "4"],
     [("a", "1"), ("a", "2"), ("b", "2"), ("b", "4"), ("c", "2"), ("c", "3")], (1, 3, 1, 1)),
    ("e7_sink_center", ["1", "2", "3"],
     [("a", "1"), ("b", "1"), ("b", "2"), ("e", "2"), ("c", "2"), ("c", "3"), ("d", "3")],
     (1, 2, 1)),
    ("e7_source_center", ["1", "2", "3", "4", "5"],
     [("a", "1"), ("a", "2"), ("B", "2"), ("B", "3"), ("B", "4"), ("c", "4"), ("c", "5")],
     (1, 3, 2, 3, 1)),
    ("e8_source_center", ["1", "2", "3", "4", "5"],
     [("a", "1"), ("B", "1"), ("B", "2"), ("B", "3"), ("c", "3"), ("c", "4"),
      ("d", "4"), ("d", "5")],
     (4, 3, 5, 3, 1)),
    ("e8_sink_center", ["1", "2", "3", "4"],
     [("a", "1"), ("a", "2"), ("b", "2"), ("b", "3"), ("c", "3"), ("c", "4"),
      ("d", "4"), ("e", "2")],
     (1, 3, 2, 1)),
    # the double edge
    ("double_edge", ["1"], [("s", "1"), ("s", "1")], (1,)),
]


def test_criterion07_definiteness_of_bipartite_forms():
    dynkin = [("A", r) for r in range(1, 9)] + [("D", r) for r in range(4, 9)] + [
        ("E", 6), ("E", 7), ("E", 8)]
    for kind, rank in dynkin:
        for delta in _bipartite_orientations(_diagram_edges(kind, rank)):
            res = definiteness(gram_matrix(delta))
            assert res.is_positive_definite, (kind, rank)

    extended = [("~A", r) for r in (1, 3, 5, 7)] + [("~D", r) for r in range(4, 9)] + [
        ("~E", 6), ("~E", 7), ("~E", 8)]
    checked = 0
    for kind, rank in extended:
        if kind == "~A" and rank == 1:
            quivers = [build_quiver(["s", "t"], [("s", "t", 2)])]
        else:
            quivers = _bipartite_orientations(_diagram_edges(kind, rank))
        assert quivers, (kind, rank)
        for delta in quivers:
            res = definiteness(gram_matrix(delta))
            assert res.is_psd_singular, (kind, rank)
            assert len(res.kernel_basis) == 1, (kind, rank)
            checked += 1

    for name, sinks, arrows, null in PSD_FIXTURES:
        labels = sinks + sorted({a for a, _ in arrows})
        mults = {}
        for a, b in arrows:
            mults[(a, b)] = mults.get((a, b), 0) + 1
        delta = build_quiver(labels, [(a, b, m) for (a, b), m in mults.items()])
        g = gram_matrix(delta)
        res = definiteness(g)
        assert res.is_psd_singular, name
        assert all(x == 0 for x in g.apply(list(null))), name
    _ok(7, f"(all orientations PD/PSD as required; {len(PSD_FIXTURES)} null vectors verified)")


# -- criterion 8 ---------------------------------------------------------------

def test_criterion08_separated_classification_bounds():
    rng = np.random.default_rng(20260810)
    all_dynkin_hits = all_ext_hits = 0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        density = rng.uniform(0.15, 0.5)
        adj = (rng.random((n, n)) < density).astype(np.int64)
        q = Quiver([f"v{i}" for i in range(n)], adj)
        comps = connected_components(separated_quiver(q))
        tags = [classify_underlying_graph(c) for c in comps]
        if all(t.is_dynkin for t in tags):
            all_dynkin_hits += 1
            assert spectral_radius(q) < 2.0
        if all(t.is_dynkin or t.is_extended for t in tags):
            all_ext_hits += 1
            assert spectral_radius(q) <= 2.0 + TOL
    assert all_dynkin_hits > 50 and all_ext_hits > all_dynkin_hits
    _ok(8, f"(1000 quivers; {all_dynkin_hits} all-Dynkin, {all_ext_hits} within extended)")


# -- criterion 9 ---------------------------------------------------------------

def _random_quiver(rng, allow_empty=True):
    n = int(rng.integers(0 if allow_empty else 1, 7))
    density = rng.uniform(0.1, 0.6)
    adj = (rng.random((n, n)) < density) * rng.integers(1, 3, size=(n, n))
    return Quiver([f"v{i}" for i in range(n)], adj.astype(np.int64))


def _has_cycle(q):
    if q.n == 0:
        return False
    reach = q.adj.astype(bool)
    for k in range(q.n):
        reach = reach | (reach @ reach)
    return bool(np.diagonal(reach).any())


def _fixture_quivers():
    out = [
        build_quiver([], []),
        build_quiver(["1", "2"], [("1", "2", 1), ("2", "1", 1), ("1", "1", 1), ("2", "2", 1)]),
        build_quiver(["1", "2"], [("1", "1", 1), ("1", "2", 1), ("2", "1", 1)]),
        build_quiver(["1", "2"], [("1", "2", 1), ("2", "1", 1)]),
        build_quiver(["1", "2", "3", "4"], [("1", "2", 1), ("2", "3", 1), ("3", "4", 1)]),
        build_quiver(["a", "b", "c"],
                     [("a", "b", 1), ("b", "c", 1), ("c", "a", 1)]),
        build_quiver(["y1", "y2", "y3"],
                     [(a, b, 1) for a in ("y1", "y2", "y3") for b in ("y1", "y2", "y3")
                      if a != b]),
    ]
    for fam, rank in TABLE_GRID:
        for mult in (1, 2):
            out.append(gabriel_quiver(cartan_matrix(fam, rank, multiplier=mult)))
    return out


def test_criterion09_spectral_property_suite():
    rng = np.random.default_rng(99)
    # subquiver monotonicity on 500 random pairs
    done = 0
    while done < 500:
        q = _random_quiver(rng, allow_empty=False)
        keep = np.nonzero(rng.random(q.n) < 0.75)[0]
        if len(keep) == 0:
            continue
        sub = q.adj[np.ix_(keep, keep)] * (rng.random((len(keep), len(keep))) < 0.8)
        q2 = Quiver([q.labels[i] for i in keep], sub.astype(np.int64))
        assert spectral_radius(q2) <= spectral_radius(q) + TOL
        done += 1
    # component max, acyclicity and the (0, 1) gap on 1000 quivers
    for _ in range(1000):
        q = _random_quiver(rng)
        rho = spectral_radius(q)
        parts = [spectral_radius(c) for c in connected_components(q)]
        assert abs(rho - max(parts, default=0.0)) <= TOL
        assert (rho < TOL) == (not _has_cycle(q))
        assert rho < TOL or rho >= 1 - TOL
    # power iteration against exact root isolation on the named fixtures
    for q in _fixture_quivers():
        spectral_radius(q, tol=1e-12, verify=True)
    _ok(9, "(monotonicity x500, components/acyclicity/gap x1000, exact verification)")


# -- criterion 10 ----------------------------------------------------------------

def test_criterion10_big_lattice_fixture():
    lat = lattice_from_dict(json.loads((FIXTURES / "example31.json").read_text()))
    val, witness = fpdim_lattice(lat)
    assert val == pytest.approx(2.0, abs=TOL)
    assert witness == "x"
    assert q_of(lat, "x").adj.tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    assert q_of(lat, "x'").adj.tolist() == [[0, 1], [1, 0]]
    assert q_of(lat, "x''").adj.tolist() == [[0, 0], [0, 0]]
    _ok(10, "(FP dimension 2 at witness x; all three cover quivers recovered)")


# -- criterion 11 ----------------------------------------------------------------

def test_criterion11_weak_order_identities():
    rng = np.random.default_rng(3141)
    for fam, rank in [("A", 3), ("B", 3)]:
        cd = cartan_matrix(fam, rank)
        w = weak_order(cd)
        lat = w.lattice
        by_key = {elem.key(): name for name, elem in w.elements.items()}
        names = list(lat.elements)

        for _ in range(200):
            wname = names[int(rng.integers(0, len(names)))]
            below = lat.interval(lat.minimum, wname)
            uname = below[int(rng.integers(0, len(below)))]
            u, v = w.element(uname), w.element(wname)
            uinv = inverse(cd, u)
            # interval isomorphism [u, w] -> [1, u^-1 w] via left division
            source = lat.interval(uname, wname)
            image = [by_key[multiply(cd, uinv, w.element(z)).key()] for z in source]
            target = lat.interval(lat.minimum, by_key[multiply(cd, uinv, v).key()])
            assert sorted(image) == sorted(target)
            for a, b in itertools.combinations(range(len(source)), 2):
                assert lat.leq(source[a], source[b]) == lat.leq(image[a], image[b])
                assert lat.leq(source[b], source[a]) == lat.leq(image[b], image[a])

        for _ in range(200):
            wname = names[int(rng.integers(0, len(names)))]
            elem = w.element(wname)
            ascents = [i for i in range(1, rank + 1) if is_ascent(elem, i)]
            if not ascents:
                continue
            js = [i for i in ascents if rng.random() < 0.7] or [ascents[0]]
            lhs = lat.join_all(
                [by_key[multiply(cd, elem, w.element(str(j))).key()] for j in js]
            )
            rhs = multiply(cd, elem, parabolic_longest(w, js))
            assert lhs == by_key[rhs.key()]
    _ok(11, "(interval isomorphism and join identity, 200 draws each in A3 and B3)")


# -- criterion 12 ----------------------------------------------------------------

def test_criterion12_group_orders():
    expected = {
        ("A", 2): 6, ("A", 3): 24, ("A", 4): 120,
        ("B", 2): 8, ("B", 3): 48, ("D", 4): 192,
        ("G", 2): 12, ("F", 4): 1152,
    }
    for (fam, rank), count in expected.items():
        assert weyl_order(fam, rank) == count
        assert weak_order(cartan_matrix(fam, rank)).order == count
    _ok(12, f"({len(expected)} group orders, BFS counts match the product formulas)")
