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

from taufp import nakayama
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
    self_ext_bound,
    semibricks,
    tau,
    tau_tiltp_lattice,
    tau_tilting_pairs,
)
from taufp.lattice import q_of
from taufp.quiver import loop_removed
from taufp.spectral import spectral_radius

from helpers import canonical_form, ext_oracle, hom_oracle, nakayama_corpus

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

    def tau_of(m):  # socle shift, None on projectives (length = Kupisch length at the top)
        top = a.vertex(m.socle + m.length - 1)
        if m.length == a.kupisch[top - 1]:
            return None
        return Uniserial(a.vertex(m.socle - 1), m.length)

    hits = {m: {x for x in mods if hom_oracle(a, x, tau_of(m))}
            for m in mods if tau_of(m) is not None}
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


@pytest.mark.parametrize("n", range(1, 8))
def test_cyclic_pair_count_is_central_binomial(n):
    # Adachi (J. Algebra 452, 2016): C(2n, n) pairs over cyclic [2n]*n; each
    # pair has n mutations, so n * C(2n, n) / 2 covers
    a = make_algebra("cyclic", [2 * n] * n)
    count = math.comb(2 * n, n)
    assert len(tau_tilting_pairs(a)) == count
    assert len(tau_tiltp_lattice(a).covers) == n * count // 2


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


@pytest.mark.parametrize("stage, target, fake", [
    ("not antisymmetric", (nakayama._Tables, "tau_down"), lambda self, mmask: 0),
    ("extremes", (nakayama, "FiniteLattice"),
     lambda names, upper, lower: FiniteLattice(names, lower, upper)),
    ("completion formula", (nakayama, "projective_module"), lambda a, k: module(a, 1, 1)),
    # no tau-rigidity constraint: an almost complete pair has many completions
    ("mutation", (nakayama._Tables, "tau_hom"), property(lambda self: [0] * len(self.mods))),
    # the maximum loses the minimum from its down-set
    ("pair order certificate", (nakayama._Tables, "pair_lower"),
     property(_drop_minimum_below_maximum)),
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
    closed_form = nakayama._hom
    bad = (Uniserial(2, 3), Uniserial(1, 1))
    monkeypatch.setattr(
        nakayama, "_hom", lambda a, x, y: 7 if (x, y) == bad else closed_form(a, x, y)
    )
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
