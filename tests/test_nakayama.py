"""Nakayama module calculus against oracles and hand-checked fixtures.

Derived Hom/Ext values asserted here were computed with the exact
representation oracle in helpers.py (see test_oracle_gate in the acceptance
suite for the exhaustive sweep).
"""

import gc
import itertools
import math
import weakref

import numpy as np
import pytest

from taufp import lattice, nakayama
from taufp.errors import BudgetError, ConsistencyError
from taufp.lattice import FiniteLattice, fpdim_lattice
from taufp.nakayama import (
    TauPair,
    Uniserial,
    bongartz_completion,
    bricks,
    ext_dim,
    ext_quiver,
    fpdim_nakayama,
    hom_dim,
    indecomposables,
    is_brick,
    is_tau_rigid_module,
    is_tau_rigid_pair,
    make_algebra,
    module,
    projective_module,
    sandwich,
    self_ext_bound,
    semibricks,
    tau,
    tau_tiltp_lattice,
    tau_tilting_pairs,
)
from taufp.lattice import q_of
from taufp.quiver import Quiver, loop_removed
from taufp.spectral import spectral_radius

from helpers import (
    canonical_form,
    cyclic_series,
    ext_oracle,
    first_occurrences,
    hom_oracle,
    largest_rho_scan,
    linear_series,
    nakayama_corpus,
)

L12 = make_algebra("linear", [1, 2])
C222 = make_algebra("cyclic", [2, 2, 2])
C333 = make_algebra("cyclic", [3, 3, 3])
C444 = make_algebra("cyclic", [4, 4, 4])
SMALL = nakayama_corpus(n_max=4, l_max=8)


def test_make_algebra_validation():
    assert make_algebra("linear", [1, 2, 3]).n == 3
    assert make_algebra("cyclic", [2, 2, 2]).cyclic
    with pytest.raises(ValueError):
        make_algebra("cyclic", [1, 2, 2])
    with pytest.raises(ValueError):
        make_algebra("linear", [2, 2])
    with pytest.raises(ValueError):
        make_algebra("linear", [1, 3])
    with pytest.raises(ValueError):
        make_algebra("cyclic", [2, 4, 3])
    with pytest.raises(ValueError):
        make_algebra("ring", [2])
    with pytest.raises(ValueError):
        make_algebra("cyclic", [])
    # entries are integers; integral floats pass, nothing is truncated
    assert make_algebra("cyclic", [2.0, np.int64(2)]).kupisch == (2, 2)
    for shape, series in [("linear", [1, 2.7]), ("cyclic", [2.9, 2.9]),
                          ("cyclic", [2, float("nan")]), ("cyclic", [2, float("inf")]),
                          ("cyclic", [2, "2"]), ("cyclic", [2, None])]:
        with pytest.raises(ValueError, match="Kupisch entry must be an integer"):
            make_algebra(shape, series)


def test_make_algebra_accepts_exactly_the_documented_series():
    # the docstring's rule, with i 0-based here: linear l_1 = 1 and
    # 2 <= l_i <= min(l_{i-1} + 1, i); cyclic l_i >= 2 and l_i <= l_{i-1} + 1 mod n
    def valid(shape, ls):
        if shape == "linear":
            return ls[0] == 1 and all(2 <= ls[i] <= min(ls[i - 1] + 1, i + 1)
                                      for i in range(1, len(ls)))
        return all(2 <= l <= ls[i - 1] + 1 for i, l in enumerate(ls))

    for n in range(1, 6):
        for ls in itertools.product(range(8), repeat=n):
            for shape in ("linear", "cyclic"):
                try:
                    accepted = make_algebra(shape, ls).kupisch == ls
                except ValueError:
                    accepted = False
                assert accepted == valid(shape, ls), (shape, ls)


def test_indecomposables():
    assert [str(m) for m in indecomposables(L12)] == ["M(1;1)", "M(1;2)", "M(2;1)"]
    assert len(indecomposables(C222)) == 6
    assert len(indecomposables(C333)) == 9
    assert len(indecomposables(make_algebra("linear", [1, 2, 3]))) == 6


def test_module_existence():
    assert module(C333, 4, 2) == Uniserial(1, 2)  # cyclic normalization
    with pytest.raises(ValueError):
        module(L12, 2, 2)  # would need a projective of length 2 at vertex 3
    with pytest.raises(ValueError):
        module(C222, 1, 3)
    # integral floats give the algebra's own module; other vertices raise
    m = module(C333, 1.0, 1)
    assert m is indecomposables(C333)[0] and type(m.socle) is int
    assert projective_module(C333, 4.0) == projective_module(C333, 1)
    for bad in (lambda: module(C333, "1", 1), lambda: module(C333, 1.5, 1),
                lambda: projective_module(C333, 1.5), lambda: projective_module(L12, "1")):
        with pytest.raises(ValueError, match="must be an integer"):
            bad()


@pytest.mark.parametrize("k", [0, 3, -1])
def test_projective_module_range_check_names_the_vertex(k):
    # a linear algebra has no cyclic identification, so every vertex
    # outside 1..n is refused
    with pytest.raises(ValueError) as err:
        projective_module(L12, k)
    assert str(err.value) == f"vertex {k} out of range"


def test_tau():
    assert tau(C222, module(C222, 2, 1)) == Uniserial(1, 1)
    assert tau(C222, module(C222, 1, 1)) == Uniserial(3, 1)  # wraps around
    assert tau(C333, module(C333, 1, 3)) is None  # projective
    assert tau(L12, module(L12, 2, 1)) == Uniserial(1, 1)
    for m in indecomposables(C444):
        t = tau(C444, m)
        if t is not None:
            assert t == Uniserial(C444.vertex(m.socle - 1), m.length)


def test_hom_fixtures():
    # projective cover projection P(2) ->> S(2); note Hom(P(2), S(1)) = 0
    # (S(1) e_2 = 0), confirmed by the representation oracle
    p2, s1, s2 = module(L12, 1, 2), module(L12, 1, 1), module(L12, 2, 1)
    assert hom_dim(L12, p2, s2) == 1 == hom_oracle(L12, p2, s2)
    assert hom_dim(L12, p2, s1) == 0 == hom_oracle(L12, p2, s1)
    assert hom_dim(C333, module(C333, 1, 3), module(C333, 1, 3)) == 1
    assert hom_dim(C444, module(C444, 1, 4), module(C444, 1, 4)) == 2
    for m in indecomposables(C333):
        if is_brick(C333, m):
            assert hom_dim(C333, m, m) == 1
    # a float socle is looked up, not fed to the closed form
    got = hom_dim(C333, Uniserial(1.0, 1), Uniserial(1.0, 1))
    assert got == 1 and type(got) is int


def test_ext_fixtures():
    s1, s2 = module(L12, 1, 1), module(L12, 2, 1)
    assert ext_dim(L12, s2, s1) == 1 == ext_oracle(L12, s2, s1)
    # projectives never extend
    for a in (L12, C222, C333):
        for k in range(1, a.n + 1):
            p = projective_module(a, k)
            assert all(ext_dim(a, p, n_) == 0 for n_ in indecomposables(a))
    assert all(ext_dim(C222, module(C222, i, 1), module(C222, i, 1)) == 0 for i in (1, 2, 3))


def test_ext_quiver_of_simples_is_gabriel_quiver():
    for a in (C222, C333, make_algebra("linear", [1, 2, 3])):
        simples = [module(a, i, 1) for i in range(1, a.n + 1)]
        q = ext_quiver(a, simples)
        for i in range(1, a.n + 1):
            for j in range(1, a.n + 1):
                expect = 1 if (a.cyclic or i >= 2) and a.vertex(i - 1) == j else 0
                assert q.adj[i - 1, j - 1] == expect
    # the one-vertex cyclic algebra has the single-loop quiver
    kx = make_algebra("cyclic", [4])
    q = ext_quiver(kx, [module(kx, 1, 1)])
    assert q.adj.tolist() == [[1]]


def test_brick_and_rigid_criteria():
    assert is_brick(C333, module(C333, 1, 3))
    assert not is_brick(C444, module(C444, 1, 4))
    assert all(is_brick(a, module(a, i, 1))
               for a in (L12, C222, C444) for i in range(1, a.n + 1))
    assert is_tau_rigid_module(C333, module(C333, 1, 3))  # projective
    assert not is_tau_rigid_module(C444, module(C444, 1, 3))  # l = n, not projective
    assert all(is_tau_rigid_module(a, projective_module(a, k))
               for a in (L12, C333) for k in range(1, a.n + 1))


def test_tau_rigid_pairs():
    n = C333.n
    assert is_tau_rigid_pair(C333, TauPair(frozenset(), frozenset(range(1, n + 1))))
    all_proj = frozenset(projective_module(C333, k) for k in range(1, n + 1))
    assert is_tau_rigid_pair(C333, TauPair(all_proj, frozenset()))
    s1 = module(C333, 1, 1)
    # S(1) = top P(1), so P(1) maps onto it; vertex 3 is harmless
    assert not is_tau_rigid_pair(C333, TauPair(frozenset([s1]), frozenset([1])))
    assert is_tau_rigid_pair(C333, TauPair(frozenset([s1]), frozenset([3])))
    assert hom_dim(C333, projective_module(C333, 1), s1) == 1
    assert hom_dim(C333, projective_module(C333, 3), s1) == 0
    for k in (0, n + 1):
        with pytest.raises(ValueError, match="out of range"):
            is_tau_rigid_pair(C333, TauPair(frozenset(), frozenset([k])))
    for k in (1.5, "1", None):
        with pytest.raises(ValueError, match="must be an integer"):
            is_tau_rigid_pair(C333, TauPair(frozenset(), frozenset([k])))
    with pytest.raises(ValueError, match="does not exist"):
        is_tau_rigid_pair(C333, TauPair(frozenset([Uniserial(1.5, 1)]), frozenset()))


def _tau_of(a, m):
    """tau M by the socle shift, None on projectives (length = Kupisch length
    at the top), without the library tables."""
    top = a.vertex(m.socle + m.length - 1)
    if m.length == a.kupisch[top - 1]:
        return None
    return Uniserial(a.vertex(m.socle - 1), m.length)


def test_tau_rigid_pair_against_the_oracle():
    # every (M, P) with at most two summands and at most one vertex, against
    # Hom(M_i, tau M_j) = 0 for all i, j and Hom(P(k), M_i) = 0, oracle Homs
    verdicts = []
    for a in (L12, C222, C333, C444, make_algebra("linear", [1, 2, 3])):
        mods = indecomposables(a)
        proj = {k: Uniserial(a.vertex(k - a.kupisch[k - 1] + 1), a.kupisch[k - 1])
                for k in range(1, a.n + 1)}
        for r in (0, 1, 2):
            for ms in itertools.combinations(mods, r):
                taus = [t for t in (_tau_of(a, m) for m in ms) if t is not None]
                rigid = not any(hom_oracle(a, m, t) for m in ms for t in taus)
                for ks in [()] + [(k,) for k in proj]:
                    want = rigid and not any(hom_oracle(a, proj[k], m) for k in ks for m in ms)
                    got = is_tau_rigid_pair(a, TauPair(frozenset(ms), frozenset(ks)))
                    assert got == want, (str(a), [str(m) for m in ms], ks)
                    verdicts.append(got)
    # 1 + m + C(m, 2) module sets over m indecomposables, times n + 1 vertex sets
    assert len(verdicts) == 7 * 3 + 22 * 4 + 46 * 4 + 79 * 4 + 22 * 4
    assert 0 < sum(verdicts) < len(verdicts)


def test_pair_enumeration_and_lattice_a2():
    pairs = tau_tilting_pairs(L12)
    assert len(pairs) == 5
    names = {p.name() for p in pairs}
    assert "M(1;1)+M(1;2)|0" in names  # (A, 0)
    assert "0|P(1)+P(2)" in names  # (0, A)
    lat = tau_tiltp_lattice(L12)
    assert lat.maximum == "M(1;1)+M(1;2)|0"
    assert lat.minimum == "0|P(1)+P(2)"
    # pentagon: the bottom has two upper covers joined by a single arrow
    q = q_of(lat, lat.minimum)
    assert q.n == 2 and q.arrow_count() == 1


def test_counting_bijection():
    for a in (L12, C222, C333, make_algebra("cyclic", [2, 3, 3]),
              make_algebra("linear", [1, 2, 3, 3])):
        assert len(semibricks(a)) == len(tau_tilting_pairs(a))


def test_semibricks_a2():
    got = sorted(
        "{" + ",".join(sorted(map(str, s))) + "}" for s in semibricks(L12)
    )
    assert got == ["{M(1;1),M(2;1)}", "{M(1;1)}", "{M(1;2)}", "{M(2;1)}", "{}"]


def test_component_shapes_of_semibrick_quivers():
    # every semibrick Ext-quiver splits into directed paths and cycles
    for a in (C333, C444, make_algebra("cyclic", [2, 3, 3]),
              make_algebra("linear", [1, 2, 3])):
        for sb in semibricks(a):
            if not sb:
                continue
            q = ext_quiver(a, sb)
            assert q.adj.sum(axis=0).max() <= 1
            assert q.adj.sum(axis=1).max() <= 1
            assert spectral_radius(q) <= 1 + 1e-9


def test_fpdim_values():
    assert fpdim_nakayama(L12) == 0.0
    assert fpdim_nakayama(make_algebra("linear", [1, 2, 3])) == 0.0
    assert fpdim_nakayama(C222) == pytest.approx(1.0, abs=1e-12)
    assert fpdim_nakayama(C444) == pytest.approx(1.0, abs=1e-12)
    assert fpdim_nakayama(make_algebra("cyclic", [6])) == pytest.approx(1.0, abs=1e-12)


def _oracle_covers(a):
    """Hasse covers of the pair order from hom_oracle alone, reduced here:
    (M, P) >= (N, Q) iff Hom(N, tau M) = 0 and P is a subset of Q."""
    pairs = tau_tilting_pairs(a)
    mods = indecomposables(a)
    hits = {m: {x for x in mods if hom_oracle(a, x, _tau_of(a, m))}
            for m in mods if _tau_of(a, m) is not None}
    clash = [set().union(*(hits.get(m, ()) for m in x.mods)) for x in pairs]
    down = [[j for j, y in enumerate(pairs)
             if j != i and clash[i].isdisjoint(y.mods) and x.projs <= y.projs]
            for i, x in enumerate(pairs)]
    covers = []
    for i, below in enumerate(down):
        implied = {k for j in below for k in down[j]}
        covers += [(pairs[i].name(), pairs[j].name()) for j in below if j not in implied]
    return [p.name() for p in pairs], covers


def test_mutation_covers_equal_the_oracle_pair_order():
    for a in SMALL:
        names, covers = _oracle_covers(a)
        lat = tau_tiltp_lattice(a)
        assert names == sorted(names), str(a)
        assert list(lat.elements) == names, str(a)
        assert list(lat.covers) == covers, str(a)


def test_pairs_come_from_one_mask_search():
    # the public pairs, the lattice elements and the mask search agree
    for a in SMALL:
        pairs = tau_tilting_pairs(a)
        assert [p.name() for p in pairs] == list(tau_tiltp_lattice(a).elements), str(a)
        assert len(a._tables.pair_masks) == a._tables.pair_count == len(pairs), str(a)


@pytest.mark.stretch
def test_pair_count_equals_the_listing_n5():
    n5 = [make_algebra("linear", s) for s in linear_series(5) if len(s) == 5]
    n5 += [make_algebra("cyclic", s) for s in cyclic_series(5, 10) if len(s) == 5]
    assert len(n5) == 888
    for a in n5:
        assert a._tables.pair_count == len(a._tables.pair_masks), str(a)


@pytest.mark.parametrize("n", range(1, 11))
def test_pair_count_is_central_binomial(n):
    # the count lists no pair, so it reaches n = 10 (184,756 pairs) in tier 1
    assert make_algebra("cyclic", [2 * n] * n)._tables.pair_count == math.comb(2 * n, n)


@pytest.mark.parametrize("n", range(1, 8))
def test_cyclic_pair_count_is_central_binomial(n):
    # Adachi (J. Algebra 452, 2016): C(2n, n) pairs over cyclic [2n]*n; each
    # pair has n mutations, so n * C(2n, n) / 2 covers
    a = make_algebra("cyclic", [2 * n] * n)
    count = math.comb(2 * n, n)
    assert len(tau_tilting_pairs(a)) == count
    assert len(tau_tiltp_lattice(a).covers) == n * count // 2


@pytest.mark.stretch
@pytest.mark.parametrize("n", [9, 10])
def test_cyclic_pair_count_beyond_the_pair_budget(n):
    # the pair search and the semibrick search both give C(2n, n), past the
    # default pair budget
    t = make_algebra("cyclic", [2 * n] * n)._tables
    assert len(t.pair_masks) == len(t.semibrick_masks[0]) == math.comb(2 * n, n)


def _rho(block, tol=1e-12):
    return spectral_radius(Quiver(range(len(block)), block), tol=tol)


def test_fpdim_computes_one_radius_per_distinct_block(radius_calls):
    # cyclic [3,3,3] has 7 maximal semibricks but only 3 distinct Ext blocks,
    # here read through the scalar Ext route of ext_quiver; the first, a
    # 3-cycle, has radius 1, and the bounds of the other two (1 and 0)
    # cannot beat it, so only it is computed
    a = make_algebra("cyclic", [3, 3, 3])
    sbs = semibricks(a)
    maximal = [s for s in sbs if not any(s < u for u in sbs)]
    value, _, visits = largest_rho_scan([ext_quiver(a, s).adj for s in maximal], _rho, 1e-12)
    assert fpdim_nakayama(a) == value == 1.0
    assert (len(maximal), len(visits), len(radius_calls)) == (7, 3, 1)
    # the scan is handed the 3 distinct blocks alone, in order of first use
    blocks = nakayama._maximal_blocks(a._tables)
    assert [(len(b), k) for k, b in blocks.items()] == [key for key, _, _ in visits]
    assert radius_calls == [visits[0][0]]
    assert all(bound <= best for key, bound, best in visits if key not in radius_calls)


def test_self_ext_bound_reads_the_scalar_ext_of_each_brick():
    # the Ext table's diagonal over the bricks against one ext_dim per brick
    for a in SMALL:
        want = max((ext_dim(a, b, b) for b in bricks(a)), default=0)
        assert self_ext_bound(a) == want, str(a)


def test_self_ext_bound_equals_the_ext_table_diagonal_over_the_bricks():
    for a in SMALL:
        t = a._tables
        assert self_ext_bound(a) == np.diag(t.ext_table)[t.brick].max(initial=0), str(a)


def test_self_ext_bound_builds_no_quadratic_table():
    # 2,400 modules: the Hom and Ext tables would hold 5.8 M entries each
    a = make_algebra("cyclic", [30] * 80)
    assert self_ext_bound(a) == 0
    assert not {"hom", "ext_table"} & a._tables.__dict__.keys()


def test_fpdim_is_the_maximum_over_all_semibricks():
    scanned = 0
    for a in SMALL:
        sbs = semibricks(a)
        want = max((spectral_radius(ext_quiver(a, sb)) for sb in sbs if sb), default=0.0)
        assert fpdim_nakayama(a) == want, str(a)
        # the kernel scans exactly the semibricks in no larger one
        mods = a._tables.mods
        got = {frozenset(m for i, m in enumerate(mods) if sb >> i & 1)
               for sb in a._tables.semibrick_masks[1]}
        assert got == {s for s in sbs if not any(s < u for u in sbs)}, str(a)
        scanned += len(got)
    assert (scanned, sum(len(semibricks(a)) - 1 for a in SMALL)) == (3659, 13211)  # nonempty


def test_budget_guard():
    big = make_algebra("cyclic", [2] * 8)
    with pytest.raises(BudgetError):
        tau_tilting_pairs(big)
    assert len(tau_tilting_pairs(big, max_n=8)) == len(semibricks(big, max_n=8))
    with pytest.raises(BudgetError):
        fpdim_nakayama(make_algebra("cyclic", [9]))


@pytest.mark.parametrize("tol", [0, -1.0, float("nan"), float("inf")])
def test_fpdim_nakayama_checks_tol_before_any_work(monkeypatch, tol):
    def build(self):
        raise AssertionError("the Ext table or the semibricks were built before tol was checked")

    monkeypatch.setattr(nakayama._Tables, "ext_table", property(build))
    monkeypatch.setattr(nakayama._Tables, "semibrick_masks", property(build))
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        fpdim_nakayama(make_algebra("cyclic", [3, 3, 3]), tol=tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        sandwich(make_algebra("cyclic", [3, 3, 3]), tol=tol)


def test_algebra_is_freed_with_its_results():
    a = make_algebra("cyclic", [3, 3, 3])
    tau_tilting_pairs(a)
    tau_tiltp_lattice(a)
    semibricks(a)
    fpdim_nakayama(a)
    ref = weakref.ref(a)
    del a
    gc.collect()
    assert ref() is None


# Over cyclic[3,3,3]: S(1) is a brick, tau M(2;1) = S(1), and S(1) has the
# projective cover P(1) = M(2;3), so each wrong Hom value trips one stage of
# the first public call: the table build, or Ext^1(S(1), S(1)) itself.
@pytest.mark.parametrize("stage, m, n_, value", [
    ("brick criterion", Uniserial(1, 1), Uniserial(1, 1), 2),
    ("tau-rigidity", Uniserial(2, 1), Uniserial(1, 1), 1),
    ("negative Ext", Uniserial(2, 3), Uniserial(1, 1), 7),
])
def test_table_cross_checks_name_algebra_and_stage(monkeypatch, stage, m, n_, value):
    closed_form = nakayama._hom
    monkeypatch.setattr(
        nakayama, "_hom", lambda a, x, y: value if (x, y) == (m, n_) else closed_form(a, x, y)
    )
    a = make_algebra("cyclic", [3, 3, 3])
    with pytest.raises(ConsistencyError) as err:
        ext_dim(a, Uniserial(1, 1), Uniserial(1, 1))
    assert str(a) in str(err.value) and stage in str(err.value)


_PAIR_LOWER = nakayama._Tables.pair_lower.func


def _drop_minimum_below_maximum(tables):
    """The pair order of tables with the minimum cut from the maximum's down-set."""
    lower = _PAIR_LOWER(tables)
    top = max(range(len(lower)), key=lambda x: lower[x].bit_count())
    bottom = min(range(len(lower)), key=lambda x: lower[x].bit_count())
    return [d & ~(1 << bottom) if x == top else d for x, d in enumerate(lower)]


def _drop_a_cover_of_maximum(names, upper, lower):
    """The pair lattice with one lower cover of its maximum cut from its
    cover lists, after the constructor has certified it."""
    lat = FiniteLattice(names, upper, lower)
    lat._children[lat._max].pop()
    return lat


@pytest.mark.parametrize("stage, target, fake", [
    # every pair below every other, so each exchange pair both ways
    ("not antisymmetric", (nakayama._Tables, "pair_lower"),
     property(lambda self: [-1] * len(self.pairs[0]))),
    ("extremes", (nakayama, "FiniteLattice"),
     lambda names, upper, lower: FiniteLattice(names, lower, upper)),
    ("completion formula", (nakayama, "projective_module"), lambda a, k: module(a, 1, 1)),
    # no tau-rigidity constraint: an almost complete pair has many completions
    ("mutation", (nakayama._Tables, "tau_hom"), property(lambda self: [0] * len(self.mods))),
    # the maximum loses the minimum from its down-set
    ("pair order certificate", (nakayama._Tables, "pair_lower"),
     property(_drop_minimum_below_maximum)),
    # the certificate reads the covers of the lattice it returns
    ("pair order certificate", (nakayama, "FiniteLattice"), _drop_a_cover_of_maximum),
])
def test_pair_checks_name_algebra_and_stage(monkeypatch, stage, target, fake):
    monkeypatch.setattr(*target, fake)
    a = make_algebra("cyclic", [3, 3, 3])
    with pytest.raises(ConsistencyError) as err:
        tau_tiltp_lattice(a)
        bongartz_completion(a, module(a, 1, 1))
    assert str(a) in str(err.value) and stage in str(err.value)


def test_ext_table_names_algebra_and_stage(monkeypatch):
    # Hom(P(1), S(1)) = 7 makes the Ext table negative at (S(1), S(1))
    # the Hom table is one broadcast call of _hom, so the fake one broadcasts too
    closed_form = nakayama._hom

    def fake(a, x, y):
        bad = (x.socle == 2) & (x.length == 3) & (y.socle == 1) & (y.length == 1)
        return np.where(bad, 7, closed_form(a, x, y))

    monkeypatch.setattr(nakayama, "_hom", fake)
    a = make_algebra("cyclic", [3, 3, 3])
    with pytest.raises(ConsistencyError) as err:
        fpdim_nakayama(a)
    assert str(a) in str(err.value) and "negative Ext" in str(err.value)
    assert "(M(1;1), M(1;1))" in str(err.value) and "table" in str(err.value)


def test_bongartz():
    got = bongartz_completion(C333, module(C333, 1, 1))
    want = TauPair(
        frozenset({module(C333, 1, 1), projective_module(C333, 1), projective_module(C333, 2)}),
        frozenset(),
    )
    assert got == want
    assert len(got.mods) == C333.n
    # projective input completes to (A, 0)
    p = projective_module(C333, 2)
    assert bongartz_completion(C333, p).name() == tau_tiltp_lattice(C333).maximum
    # rotated socle: completion of S(2) is the formula shifted by one
    got2 = bongartz_completion(C333, module(C333, 2, 1))
    assert got2 == TauPair(
        frozenset({module(C333, 2, 1), projective_module(C333, 2), projective_module(C333, 3)}),
        frozenset(),
    )
    # linear fall-back
    s2 = module(L12, 2, 1)
    assert bongartz_completion(L12, s2).name() == "M(1;2)+M(2;1)|0"
    with pytest.raises(ValueError):
        bongartz_completion(C444, module(C444, 1, 3))  # not tau-rigid


def test_bongartz_is_maximum_over_containing_pairs():
    for a in (C222, C333, make_algebra("cyclic", [2, 3, 3])):
        lat = tau_tiltp_lattice(a)
        for m in indecomposables(a):
            if not is_tau_rigid_module(a, m):
                continue
            comp = bongartz_completion(a, m)
            for p in tau_tilting_pairs(a):
                if m in p.mods:
                    assert lat.leq(p.name(), comp.name())


def test_self_ext_bound():
    assert self_ext_bound(C222) == 0
    assert self_ext_bound(C333) == 0
    assert self_ext_bound(L12) == 0
    assert self_ext_bound(make_algebra("linear", [1, 2, 3, 4])) == 0
    assert self_ext_bound(make_algebra("cyclic", [3])) == 1


def test_sandwich_small():
    for a in (C222, C333, make_algebra("cyclic", [2]), make_algebra("cyclic", [5])):
        fl, _ = fpdim_lattice(tau_tiltp_lattice(a))
        db = self_ext_bound(a)
        fa = fpdim_nakayama(a)
        assert max(fl, db) <= fa + 1e-9 <= fl + db + 2e-9


def _check_brick_label_rule(a, max_n=nakayama.DEFAULT_MAX_N):
    """The brick-label route of nakayama.sandwich against the mutation lattice.

    For a pair (M, P) the torsion class T = Fac M holds the quotients of the
    summands of M (same top, no longer).  The label of a cover x < y is the
    one brick B in T_y with Hom(T_x, B) = 0; Q(x, dp(x)) must have the arrow
    y -> y' exactly when Ext^1(B_y, B_y') != 0, and the label sets at the
    pairs must be the semibricks, each once.  Returns the number of ordered
    pairs of distinct upper covers compared, and of arrows among them."""
    t = a._tables
    lat = tau_tiltp_lattice(a, max_n=max_n)
    hom, ext = t.hom != 0, t.ext_table != 0
    top = [a.vertex(m.socle + m.length - 1) for m in t.mods]
    quotients = [sum(1 << j for j, n_ in enumerate(t.mods) if top[j] == top[i]
                     and n_.length <= m.length) for i, m in enumerate(t.mods)]
    maps_to = [sum(1 << b for b in np.flatnonzero(row).tolist()) for row in hom]
    bricks = sum(1 << i for i, b in enumerate(t.brick) if b)
    torsion = [nakayama._union(quotients, mm) for mm in t.pairs[1]]
    # per pair x, the modules B with Hom(T_x, B) != 0
    killed = [nakayama._union(maps_to, tx) for tx in torsion]
    assert list(lat.elements) == t.pairs[0]
    keys = [lat._key(x) for x in range(len(lat))]
    assert not {"_qclass", "_quivers"} & set(vars(lat))
    assert list(lat._classes.items()) == first_occurrences(keys, range(len(lat)))
    label_sets, compared, arrows = [], 0, 0
    for x in range(len(lat)):
        ys = lat._dp_of(x)
        labels = []
        for y in ys:
            found = torsion[y] & bricks & ~killed[x]
            assert found.bit_count() == 1, (str(a), lat.elements[x], lat.elements[y])
            labels.append(found.bit_length() - 1)
        label_sets.append(sum(1 << b for b in labels))
        rule = ext[np.ix_(labels, labels)] & ~np.eye(len(ys), dtype=bool)
        key = keys[x]
        assert key[0] == len(ys) and (lattice._arrows(*key) == rule).all(), (str(a), lat.elements[x])
        compared += len(ys) * (len(ys) - 1)
        arrows += int(rule.sum())
    assert sorted(label_sets) == sorted(t.semibrick_masks[0]), str(a)
    for tol in (1e-12, 0.3):
        got = sandwich(a, tol=tol, max_n=max_n)[0]
        assert repr(got) == repr(fpdim_lattice(lat, tol=tol)[0]), (str(a), tol)
    return compared, arrows


def test_brick_labels_give_the_cover_quivers():
    counts = [_check_brick_label_rule(a) for a in SMALL]
    assert tuple(map(sum, zip(*counts))) == (32992, 10803)


@pytest.mark.stretch
def test_brick_labels_give_the_cover_quivers_n5_and_cyclic_n8():
    n5 = [make_algebra("linear", s) for s in linear_series(5) if len(s) == 5]
    n5 += [make_algebra("cyclic", s) for s in cyclic_series(5, 10) if len(s) == 5]
    assert len(n5) == 888
    for a in n5:
        _check_brick_label_rule(a)
    assert _check_brick_label_rule(make_algebra("cyclic", [16] * 8), max_n=8)[1] > 0


def test_sandwich_computes_a_shared_block_once(radius_calls):
    # cyclic [4,4] has 3 maximal semibricks with 2 distinct Ext blocks and 2
    # distinct loop-free supports; one block is its own support, so the two
    # scans share it.  Its radius 1 is computed once, in the support scan,
    # and the bounds of the other blocks (1 and 0) cannot beat it
    a = make_algebra("cyclic", [4, 4])
    sbs = semibricks(a)
    quivers = [ext_quiver(a, s) for s in sbs if not any(s < u for u in sbs)]
    ext = largest_rho_scan([q.adj for q in quivers], _rho, 1e-12)
    support = largest_rho_scan([np.minimum(loop_removed(q).adj, 1) for q in quivers],
                               _rho, 1e-12)
    assert sandwich(a) == (support[0], 1, ext[0]) == (1.0, 1, 1.0)
    visits = support[2] + ext[2]
    assert (len(quivers), len(ext[2]), len(support[2])) == (3, 2, 2)
    assert len({key for key, _, _ in visits}) == 3
    shared = support[2][0][0]
    assert radius_calls == [shared] and shared in {key for key, _, _ in ext[2]}
    # the 2 distinct Ext blocks are held once, one of them also a support;
    # the supports come from them, with no table of maximal semibrick indices
    blocks = nakayama._maximal_blocks(a._tables)
    assert [(len(b), k) for k, b in blocks.items()] == [key for key, _, _ in ext[2]]
    assert shared[1] in blocks and not hasattr(a._tables, "maximal_index")
    assert all(bound <= best for key, bound, best in visits if key not in radius_calls)


def test_cover_quivers_match_loopless_ext_quivers():
    # canonical forms of {loop-removed semibrick Ext-quivers} equal those of
    # {Q(u) : u in U+} over the pair lattice
    for a in (L12, C222, C333, make_algebra("linear", [1, 2, 2])):
        lat = tau_tiltp_lattice(a)
        left = {canonical_form(loop_removed(ext_quiver(a, sb)))
                for sb in semibricks(a) if sb}
        right = set()
        for x in lat.elements:
            dp = sorted(lat.upper_covers(x))
            for r in range(1, len(dp) + 1):
                for ys in itertools.combinations(dp, r):
                    right.add(canonical_form(q_of(lat, x, ys)))
        assert left == right


def test_canonical_form():
    a = C222
    q1 = ext_quiver(a, [module(a, 1, 1), module(a, 2, 1)])
    q2 = ext_quiver(a, [module(a, 2, 1), module(a, 3, 1)])
    assert canonical_form(q1) == canonical_form(q2)
