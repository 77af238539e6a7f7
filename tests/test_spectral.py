"""Spectral radii, exact characteristic polynomials, Gram forms."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

import taufp.spectral
from taufp.coxeter import cartan_matrix
from taufp.errors import ConsistencyError
from taufp.preproj import bn_family_char_polys, dynkin_rho, gabriel_quiver
from taufp.quiver import Quiver, build_quiver, connected_components
from taufp.spectral import (
    _largest_root_within,
    _power_radius,
    _primitive,
    _square_free_chain,
    _sturm_chain,
    IntPolynomial,
    SymIntMatrix,
    char_poly,
    definiteness,
    gram_matrix,
    largest_real_root,
    spectral_radius,
)

from helpers import random_quiver, sturm_largest_root_reference


def test_char_poly_examples():
    assert char_poly(build_quiver([], [])).coeffs == (1,)
    assert char_poly(build_quiver(["v"], [])).coeffs == (0, 1)  # x
    two_cycle = build_quiver(["1", "2"], [("1", "2", 1), ("2", "1", 1)])
    assert char_poly(two_cycle).coeffs == (-1, 0, 1)  # x^2 - 1
    b2 = build_quiver(["1", "2"], [("1", "1", 1), ("1", "2", 1), ("2", "1", 1)])
    assert char_poly(b2).coeffs == (-1, -1, 1)  # x^2 - x - 1


def test_char_poly_matches_numpy_on_random_matrices():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        q = Quiver([f"v{i}" for i in range(n)], rng.integers(0, 3, size=(n, n)))
        exact = char_poly(q).coeffs
        approx = np.poly(q.adj.astype(float))[::-1]  # lowest degree first
        assert np.allclose([float(c) for c in exact], approx, atol=1e-6)


def test_largest_real_root():
    phi = (1 + math.sqrt(5)) / 2
    assert largest_real_root(IntPolynomial((-1, -1, 1))) == pytest.approx(phi, abs=1e-11)
    # repeated Perron root: (x^2 - 1)^2
    assert largest_real_root(IntPolynomial((1, 0, -2, 0, 1))) == pytest.approx(1.0, abs=1e-11)
    assert largest_real_root(IntPolynomial((0, 1))) == pytest.approx(0.0, abs=1e-11)
    with pytest.raises(ValueError):
        largest_real_root(IntPolynomial((1, 0, 1)))  # x^2 + 1


def test_largest_real_root_rejects_bad_tol():
    for tol in (0, 0.0, -1e-12, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            largest_real_root(IntPolynomial((-1, -1, 1)), tol=tol)


def test_largest_real_root_tiny_tol_terminates():
    # tol below 5e-19 rounds to 0 at denominator 10**18; the exact tol is
    # used instead, so the bisection still stops
    phi = (1 + math.sqrt(5)) / 2
    for tol in (1e-20, 1e-300, 5e-324):
        got = largest_real_root(IntPolynomial((-1, -1, 1)), tol=tol)
        assert got == pytest.approx(phi, abs=1e-15)


@st.composite
def integer_polys(draw):
    """Coefficient tuples, lowest degree first: either random coefficients
    (constants included) or products of a nonzero constant, linear factors
    with multiplicities and quadratics with no real root.  A product may be
    restricted to negative roots."""
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=9))
        coeffs[-1] = coeffs[-1] or draw(st.sampled_from([-3, -1, 1, 2]))
        return tuple(coeffs)
    poly = IntPolynomial((draw(st.sampled_from([-6, -3, -2, -1, 1, 2, 5])),))
    negative_only = draw(st.booleans())
    for _ in range(draw(st.integers(0, 3))):
        a = draw(st.integers(1, 4))
        b = draw(st.integers(1, 9) if negative_only else st.integers(-9, 9))
        for _ in range(draw(st.integers(1, 3))):
            poly = poly * IntPolynomial((b, a))  # a x + b, root -b/a
    for _ in range(draw(st.integers(0, 2))):
        b = draw(st.integers(-4, 4))
        c = draw(st.integers(b * b // 4 + 1, b * b // 4 + 9))  # b^2 < 4c
        poly = poly * IntPolynomial((c, b, 1))
    return poly.coeffs


@settings(max_examples=150, deadline=None, derandomize=True)
@given(integer_polys(), st.sampled_from([1e-3, 1e-6, 1e-12, 1e-13]))
def test_largest_real_root_matches_fraction_reference_and_sympy(coeffs, tol):
    try:
        want = sturm_largest_root_reference(coeffs, tol)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            largest_real_root(IntPolynomial(coeffs), tol)
        return
    got = largest_real_root(IntPolynomial(coeffs), tol)
    assert got.hex() == want.hex()
    # independent exact isolation: the largest root's isolating interval
    x = sympy.Symbol("x")
    intervals = sympy.Poly(list(reversed(coeffs)), x).intervals(eps=Fraction(tol))
    (a, b), _ = max(intervals, key=lambda iv: iv[0][1])
    a, b = Fraction(int(a.p), int(a.q)), Fraction(int(b.p), int(b.q))
    assert a - Fraction(tol) <= Fraction(got) <= b + Fraction(tol)


def test_spectral_radius_basics():
    assert spectral_radius(build_quiver([], [])) == 0.0
    acyclic = build_quiver(["1", "2", "3"], [("1", "2", 1), ("1", "3", 1), ("2", "3", 1)])
    assert spectral_radius(acyclic, verify=True) == pytest.approx(0.0, abs=1e-11)
    for n in (2, 3, 5, 8):
        cyc = build_quiver([str(i) for i in range(n)],
                           [(str(i), str((i + 1) % n), 1) for i in range(n)])
        assert spectral_radius(cyc, verify=True) == pytest.approx(1.0, abs=1e-11)
    allones = build_quiver(["1", "2"],
                           [("1", "2", 1), ("2", "1", 1), ("1", "1", 1), ("2", "2", 1)])
    assert spectral_radius(allones, verify=True) == pytest.approx(2.0, abs=1e-11)
    for tol in (0.0, -1e-12, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            spectral_radius(allones, tol=tol)


def _dense_strongly_connected(n, seed):
    """Arrows with probability 1/2 and multiplicity 1..3, plus a random
    Hamiltonian cycle, so the quiver is strongly connected."""
    rng = np.random.default_rng(seed)
    adj = (rng.random((n, n)) < 0.5) * rng.integers(1, 4, size=(n, n))
    perm = rng.permutation(n)
    adj[perm, np.roll(perm, 1)] = np.maximum(adj[perm, np.roll(perm, 1)], 1)
    return Quiver([f"v{i}" for i in range(n)], adj)


@pytest.mark.parametrize("n", [24, 32, 48, pytest.param(60, marks=pytest.mark.stretch)])
def test_verify_dense_size_ceiling(n):
    # exact char-poly and its certificate on dense quivers; ~0.01 s, 0.03 s,
    # 0.25 s, 0.7 s, nearly all of it the characteristic polynomial
    q = _dense_strongly_connected(n, seed=n)
    want = float(np.abs(np.linalg.eigvals(q.adj.astype(float))).max())
    assert spectral_radius(q, verify=True) == pytest.approx(want, abs=1e-9)


B2 = build_quiver(["1", "2"], [("1", "1", 1), ("1", "2", 1), ("2", "1", 1)])  # x^2 - x - 1


def _count_calls(monkeypatch, name):
    """Count the calls of a module-level function of taufp.spectral."""
    calls = []
    f = getattr(taufp.spectral, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return f(*args, **kwargs)

    monkeypatch.setattr(taufp.spectral, name, counted)
    return calls


def _count_fallbacks(monkeypatch):
    """Count the calls of the Sturm-bisection fallback of verify=True."""
    return _count_calls(monkeypatch, "largest_real_root")


def test_verify_mismatch_names_both_values_size_and_stage(monkeypatch):
    power = taufp.spectral._power_radius
    monkeypatch.setattr(taufp.spectral, "_power_radius",
                        lambda block, tol: power(block, tol) + 1e-6)
    rho = power(B2.adj, 1e-12) + 1e-6
    exact = largest_real_root(char_poly(B2), tol=1e-13)
    with pytest.raises(ConsistencyError) as exc:
        spectral_radius(B2, verify=True)
    msg = str(exc.value)
    assert repr(rho) in msg and repr(exact) in msg
    assert "2-vertex quiver" in msg and "Sturm verify stage" in msg


def _disjoint_cycles(*lengths):
    labels, arrows = [], []
    for c, n in enumerate(lengths):
        cycle = [f"c{c}v{i}" for i in range(n)]
        labels += cycle
        arrows += [(cycle[i], cycle[(i + 1) % n], 1) for i in range(n)]
    return build_quiver(labels, arrows)


@pytest.mark.parametrize("q, rho", [
    (build_quiver(["1", "2", "3"], [("1", "2", 1), ("1", "3", 1), ("2", "3", 1)]), 0.0),  # x^3
    (build_quiver(["a", "b"], [("a", "a", 3), ("b", "b", 1)]), 3.0),  # loops only
    (_disjoint_cycles(2), 1.0),  # bipartite 2-cycle, roots +1 and -1
    (_disjoint_cycles(3, 3), 1.0),  # (x^3 - 1)^2, repeated roots
])
def test_certificate_accepts_without_fallback(monkeypatch, q, rho):
    calls = _count_fallbacks(monkeypatch)
    assert _largest_root_within(char_poly(q), rho, 1e-11)
    assert spectral_radius(q, verify=True) == pytest.approx(rho, abs=1e-11)
    assert calls == []


def test_tiny_tol_fails_the_certificate_and_passes_the_fallback(monkeypatch):
    # a float is never within 1e-19 of the irrational golden ratio, so the
    # certificate cannot hold and the bisection must decide
    calls = _count_fallbacks(monkeypatch)
    rho = spectral_radius(B2, tol=1e-20, verify=True)
    assert rho == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-15)
    assert not _largest_root_within(char_poly(B2), rho, 1e-19)
    assert len(calls) == 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(integer_polys(), st.sampled_from([1e-3, 1e-6, 1e-9]),
       st.sampled_from([0.0, 0.5, -0.5, 2.0, -2.0, 1e3, -1e3, 1e9]), st.booleans())
def test_largest_root_within_matches_sympy_intervals(coeffs, radius, offset, at_smallest):
    # centres on the largest root, within radius/2 of it, 2 radii away and far
    # off; centred at the smallest root instead, a larger root lies above hi
    p = IntPolynomial(coeffs)
    if p.degree <= 0:
        return
    isolated = sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x")).intervals(
        eps=Fraction(1, 10**30))
    if not isolated:
        assert not _largest_root_within(p, offset * radius, radius)
        return
    roots = sorted((Fraction(int(a.p), int(a.q)), Fraction(int(b.p), int(b.q)))
                   for (a, b), _ in isolated)
    a, b = roots[-1]
    center = float((roots[0] if at_smallest else roots[-1])[0] + offset * Fraction(radius))
    lo, hi = Fraction(center) - Fraction(radius), Fraction(center) + Fraction(radius)
    inside = [lo < r <= hi for r in (a, b)]
    assert inside[0] == inside[1]  # the isolating interval straddles no end
    assert _largest_root_within(p, center, radius) == inside[0]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(integer_polys())
def test_square_free_chain_needs_one_euclid_on_square_free_input(coeffs):
    # the chain starts at the primitive square-free part with the sign of
    # lc(p) (sympy's, independently) and is that polynomial's Sturm chain;
    # only a repeated factor costs the division and a second chain
    p = IntPolynomial(coeffs)
    if p.degree <= 0:
        return
    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed(coeffs)), x)
    part = [int(c) for c in reversed(poly.sqf_part().primitive()[1].all_coeffs())]
    if (part[-1] > 0) != (coeffs[-1] > 0):
        part = [-c for c in part]
    with pytest.MonkeyPatch.context() as m:
        divisions = _count_calls(m, "_exact_quotient")
        chain = _square_free_chain(p)
    assert chain[0] == part
    assert chain == _sturm_chain(part)
    assert len(divisions) == (poly.degree() != len(part) - 1)
    if not divisions:
        assert chain == _sturm_chain(_primitive(list(coeffs)))


def test_dense_strongly_connected_quivers_verify_by_the_filter(monkeypatch):
    # a simple Perron root: the Taylor-shift filter decides, no Sturm chain
    chains = _count_calls(monkeypatch, "_sturm_chain")
    rng = np.random.default_rng(5)
    for n in range(3, 15):
        for _ in range(3):
            q = _dense_strongly_connected(n, seed=int(rng.integers(0, 2**32)))
            want = float(np.abs(np.linalg.eigvals(q.adj.astype(float))).max())
            assert spectral_radius(q, verify=True) == pytest.approx(want, abs=1e-9)
    assert chains == []


@pytest.mark.parametrize("center, inside", [
    (3.0, True),  # the filter accepts
    (1.0, False),  # P(lo) < 0, but the shift has a sign change: roots 2, 3 above hi
    (3.5, False),  # no root above hi, but P(lo) > 0: none in (lo, hi] either
])
def test_filter_needs_both_sign_tests(center, inside):
    p = IntPolynomial((-6, 11, -6, 1))  # (x - 1)(x - 2)(x - 3)
    assert _largest_root_within(p, center, 0.25) is inside


def test_double_top_root_reaches_the_chain_without_fallback(monkeypatch):
    # (x^3 - 1)^2: P(lo) has the sign of lc, so the Sturm counts decide, and
    # they accept without the bisection
    chains = _count_calls(monkeypatch, "_sturm_chain")
    fallbacks = _count_fallbacks(monkeypatch)
    q = _disjoint_cycles(3, 3)
    assert _largest_root_within(char_poly(q), 1.0, 1e-11)
    assert spectral_radius(q, verify=True) == 1.0
    assert chains and fallbacks == []


def test_spectral_radius_loops_only():
    q = build_quiver(["a"], [("a", "a", 3)])
    assert spectral_radius(q, verify=True) == pytest.approx(3.0, abs=1e-11)


def test_power_iteration_agrees_with_exact_roots():
    rng = np.random.default_rng(23)
    for _ in range(40):
        q = random_quiver(rng)
        if q.n == 0:
            continue
        spectral_radius(q, verify=True)  # raises on disagreement


def test_subquiver_monotonicity_smoke():
    rng = np.random.default_rng(5)
    for _ in range(60):
        q = random_quiver(rng)
        if q.n == 0:
            continue
        keep = rng.random(q.n) < 0.7
        idx = np.nonzero(keep)[0]
        sub = q.adj[np.ix_(idx, idx)].copy()
        mask = rng.random(sub.shape) < 0.8
        sub = sub * mask
        q2 = Quiver([q.labels[i] for i in idx], sub)
        assert spectral_radius(q2) <= spectral_radius(q) + 1e-9


def test_component_max_identity():
    rng = np.random.default_rng(9)
    for _ in range(30):
        q = random_quiver(rng)
        rho = spectral_radius(q)
        parts = [spectral_radius(c) for c in connected_components(q)]
        assert rho == pytest.approx(max(parts, default=0.0), abs=1e-9)


def test_integer_gap():
    # an integer matrix with spectral radius below 1 is nilpotent
    rng = np.random.default_rng(13)
    for _ in range(200):
        q = random_quiver(rng)
        rho = spectral_radius(q)
        assert rho < 1e-9 or rho >= 1 - 1e-9


def test_char_poly_is_exact_beyond_int64():
    rng = np.random.default_rng(17)
    adj = rng.integers(0, 10**9, size=(12, 12)) * (rng.random((12, 12)) < 0.6)
    q = Quiver([f"v{i}" for i in range(12)], adj)
    want = sympy.Matrix(adj.tolist()).charpoly().all_coeffs()[::-1]
    got = char_poly(q).coeffs
    assert list(got) == [int(c) for c in want]
    assert max(abs(c) for c in got).bit_length() > 64


def _int64_switch_step(adj):
    """First Faddeev-LeVerrier step k whose bound n (n max|a| max|m| + |c| max|a|)
    reaches 2^63, with m and c from step k - 1 (m = 0, c = 1 before step 1),
    computed in Python ints; None if every step stays below it."""
    n, a = len(adj), [[int(x) for x in row] for row in adj]
    amax = max((max(row) for row in a), default=0)
    m, c = [[0] * n for _ in range(n)], 1
    for k in range(1, n + 1):
        if n * (n * amax * max(abs(x) for row in m for x in row) + abs(c) * amax) >= 1 << 63:
            return k
        m = [[sum(a[i][l] * (m[l][j] + c * (l == j)) for l in range(n)) for j in range(n)]
             for i in range(n)]
        c = -sum(m[i][i] for i in range(n)) // k
    return None


def _assert_char_poly_is_sympys(adj):
    q = Quiver([f"v{i}" for i in range(len(adj))], adj)
    want = sympy.Matrix(np.asarray(adj).tolist()).charpoly().all_coeffs()[::-1]
    assert list(char_poly(q).coeffs) == [int(c) for c in want]


def test_char_poly_stays_in_int64():
    rng = np.random.default_rng(14)
    adj = rng.integers(1, 4, size=(14, 14))
    assert _int64_switch_step(adj) is None
    _assert_char_poly_is_sympys(adj)


def test_char_poly_switches_to_python_ints_mid_run():
    rng = np.random.default_rng(20)
    adj = (rng.random((20, 20)) < 0.5) * rng.integers(1, 11, size=(20, 20))
    assert 1 < _int64_switch_step(adj) < 20
    _assert_char_poly_is_sympys(adj)


def test_char_poly_switches_before_the_first_product():
    # the trace alone, 2^63, would overflow int64
    adj = np.array([[2**62, 1, 0], [0, 0, 1], [1, 0, 2**62]], dtype=np.int64)
    assert _int64_switch_step(adj) == 1
    _assert_char_poly_is_sympys(adj)


def test_power_iteration_fails_fast_on_underflow():
    # a double path with multiplicity 1000 one way and 1 back: the Perron
    # vector spans hundreds of decades, so the normalized iterate underflows
    # (rho = 2 sqrt(1000) cos(pi / 301)).  Once an entry is 0 the bracket can
    # never close, so this must raise at once instead of running every step.
    n = 300
    adj = np.zeros((n, n), dtype=np.int64)
    adj[np.arange(n - 1), np.arange(1, n)] = 1000
    adj[np.arange(1, n), np.arange(n - 1)] = 1
    started = time.perf_counter()
    with pytest.raises(ConsistencyError, match="power iteration on a 300-vertex block"):
        spectral_radius(Quiver([str(i) for i in range(n)], adj))
    assert time.perf_counter() - started < 1.0


def test_power_iteration_failure_names_block_and_steps():
    # a directed 40-cycle with one double arrow (rho = 2^(1/40)) needs far
    # more than 50 steps, so the step budget runs out first
    n = 40
    adj = np.zeros((n, n), dtype=np.int64)
    adj[np.arange(n), (np.arange(n) + 1) % n] = 1
    adj[0, 1] = 2
    with pytest.raises(ConsistencyError, match="power iteration on a 40-vertex block "
                                               "failed to converge after 50 steps"):
        _power_radius(adj, 1e-12, max_iter=50)
    assert _power_radius(adj, 1e-12) == pytest.approx(2 ** (1 / n), abs=1e-9)


@pytest.mark.parametrize("adj", [
    gabriel_quiver(cartan_matrix("E", 6)).adj,
    gabriel_quiver(cartan_matrix("C", 4, multiplier=2)).adj,  # a loop at every vertex
    _dense_strongly_connected(14, seed=0).adj,
], ids=["E6", "C4-loops", "dense14"])
def test_squared_start_closes_by_step_two(adj):
    # from the all-ones vector alone these take 43, 30 and 22 steps; from the
    # row sums of B^256 the second bracket closes
    want = float(np.abs(np.linalg.eigvals(adj.astype(float))).max())
    assert _power_radius(adj, 1e-12, max_iter=2) == pytest.approx(want, abs=1e-11)


def _double_path(n, forward, loops=False):
    adj = np.zeros((n, n), dtype=np.int64)
    adj[np.arange(n - 1), np.arange(1, n)] = forward
    adj[np.arange(1, n), np.arange(n - 1)] = 1
    if loops:  # every column sum is forward + 1, so the left Perron vector is flat
        adj[0, 0], adj[n - 1, n - 1] = forward, 1
    return adj


@pytest.mark.parametrize("adj, message", [
    # the right Perron vector (forward^-i) spans 342 decades: row sums of B^256
    # underflow to 0, so the power iterate is kept and underflows as before
    (_double_path(20, 10**18, loops=True),
     "20-vertex block: the iterate underflowed to 0 after 37 steps"),
    # both Perron vectors span 279 decades: a scaled product underflows to
    # the zero matrix, which must not turn into 0/0
    (_double_path(32, 10**18), "32-vertex block failed to converge after 50 steps"),
])
def test_squared_start_underflow_keeps_the_power_iterate(adj, message):
    with pytest.raises(ConsistencyError, match=message):
        _power_radius(adj, 1e-6, max_iter=50)


def test_regular_block_closes_at_step_one():
    # the all-ones vector is the Perron vector of a directed cycle
    cycle = np.roll(np.eye(5, dtype=np.int64), 1, axis=1)
    assert _power_radius(cycle, 1e-12, max_iter=1) == 1.0


@st.composite
def strongly_connected_blocks(draw):
    """Adjacency matrices of 2-32 vertices, strongly connected: a directed
    cycle with one arrow of multiplicity up to 10**6, the double quiver of a
    random tree (period 2), or a dense block around a Hamiltonian cycle."""
    n = draw(st.integers(2, 32))
    kind = draw(st.sampled_from(["cycle", "tree", "dense"]))
    if kind == "cycle":
        adj = np.roll(np.eye(n, dtype=np.int64), 1, axis=1)
        adj[0, 1] = draw(st.integers(1, 10**6))
        return adj
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "tree":
        adj = np.zeros((n, n), dtype=np.int64)
        for v in range(1, n):
            u = int(rng.integers(0, v))
            adj[u, v], adj[v, u] = rng.integers(1, 4, size=2)
        return adj
    return _dense_strongly_connected(n, seed=int(rng.integers(0, 2**32))).adj


@settings(max_examples=100, deadline=None, derandomize=True)
@given(strongly_connected_blocks())
def test_verified_radius_of_strongly_connected_blocks(adj):
    # an absolute 1e-12 is below float64 resolution at large rho, so tol
    # scales with the row-sum bound on rho
    tol = 1e-12 * max(1, int(adj.sum(axis=1).max()))
    q = Quiver([f"v{i}" for i in range(len(adj))], adj)
    rho = spectral_radius(q, tol=tol, verify=True)  # raises if Sturm disagrees
    want = float(np.abs(np.linalg.eigvals(adj.astype(float))).max())
    assert rho == pytest.approx(want, rel=1e-9)


def test_dynkin_rho_values():
    assert dynkin_rho("A", 3) == pytest.approx(math.sqrt(2), abs=1e-12)
    assert dynkin_rho("G", 2) == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)
    assert dynkin_rho("B", 3) == pytest.approx(1 + 2 * math.cos(2 * math.pi / 7), abs=1e-12)
    assert dynkin_rho("C", 3) == pytest.approx(2 * math.cos(math.pi / 7), abs=1e-12)
    assert dynkin_rho("D", 4) == pytest.approx(math.sqrt(3), abs=1e-12)
    assert dynkin_rho("E", 6) == pytest.approx(2 * math.cos(math.pi / 12), abs=1e-12)
    assert dynkin_rho("F", 4) == pytest.approx((1 + math.sqrt(13)) / 2, abs=1e-12)
    # non-minimal column
    assert dynkin_rho("A", 1, minimal=False) == pytest.approx(1.0, abs=1e-12)
    assert dynkin_rho("G", 2, minimal=False) == pytest.approx(2.0, abs=1e-12)
    assert dynkin_rho("D", 4, minimal=False) == pytest.approx(1 + math.sqrt(3), abs=1e-12)
    for bad in [("D", 3), ("E", 5), ("F", 3), ("G", 1), ("A", 0), ("B", 1)]:
        with pytest.raises(ValueError):
            dynkin_rho(*bad)


def test_bn_family():
    fs = bn_family_char_polys(6)
    assert fs[0].coeffs == (0, 1)  # f_1 = x
    assert fs[1].coeffs == (-1, -1, 1)  # f_2 = x^2 - x - 1
    phi = (1 + math.sqrt(5)) / 2
    assert largest_real_root(fs[1]) == pytest.approx(phi, abs=1e-10)
    assert largest_real_root(fs[1]) == pytest.approx(1 + 2 * math.cos(2 * math.pi / 5), abs=1e-10)
    with pytest.raises(ValueError):
        bn_family_char_polys(1)


@pytest.mark.parametrize("tol", [float("nan"), -1.0])
def test_bn_family_rejects_invalid_tol(tol):
    # a nan tol would pass the closed-form root check vacuously, and -1 would
    # fail it as a ConsistencyError although the input is what is wrong
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        bn_family_char_polys(4, tol=tol)


def test_poly_arithmetic():
    p = IntPolynomial((1, 2))  # 1 + 2x
    q = IntPolynomial((0, 1))  # x
    assert (p * q).coeffs == (0, 1, 2)
    assert (p - q).coeffs == (1, 1)
    assert IntPolynomial((1, 0, 0)).coeffs == (1,)
    assert p(Fraction(1, 2)) == 2


# -- Gram matrices and definiteness -------------------------------------------

def test_gram_examples():
    a1t = build_quiver(["s", "1"], [("s", "1", 2)])
    assert gram_matrix(a1t).rows == ((0,),)
    v = build_quiver(["1", "s", "2"], [("s", "1", 1), ("s", "2", 1)])
    assert gram_matrix(v).rows == ((3, -1), (-1, 3))
    assert gram_matrix(build_quiver(["x"], [])).rows == ((4,),)
    with pytest.raises(ValueError):
        gram_matrix(build_quiver(["1", "2", "3"], [("1", "2", 1), ("2", "3", 1)]))


@pytest.mark.parametrize("column, exact_path", [
    ([2**31 - 1], "int64"),  # 1 * (2^31 - 1)^2 < 2^62
    ([2**31], "object"),  # exactly 2^62
    ([2**31 - 1] * 3, "object"),  # 3 sources: the sum passes 2^63
    ([3] * 5, "int64"),
])
def test_gram_products_are_exact_on_both_sides_of_the_int64_bound(column, exact_path):
    # two sinks: t_j gets column[i] - j arrows from source s_i
    k = len(column)
    a = [[column[i] - j for j in range(2)] for i in range(k)]
    labels = [f"s{i}" for i in range(k)] + ["t0", "t1"]
    arrows = [(f"s{i}", f"t{j}", a[i][j]) for i in range(k) for j in range(2)]
    want = tuple(tuple(4 * (j == l) - sum(a[i][j] * a[i][l] for i in range(k))
                       for l in range(2)) for j in range(2))
    assert (len(column) * max(max(r) for r in a) ** 2 >= 2**62) == (exact_path == "object")
    assert gram_matrix(build_quiver(labels, arrows)).rows == want


def test_gram_mixed_vertex_found_beyond_int64_degree_sums():
    # in-degree 2^63 wraps to a negative int64 sum; the vertex is still mixed
    q = build_quiver(["a", "b", "m", "t"],
                     [("a", "m", 2**62), ("b", "m", 2**62), ("m", "t", 1)])
    with pytest.raises(ValueError, match="mixed vertices: \\['m'\\]"):
        gram_matrix(q)


def test_gram_matches_quadratic_form():
    # x^T G x must equal 4 sum x_j^2 - sum_i (sum_j a_ij x_j)^2 on random ints
    rng = np.random.default_rng(3)
    for _ in range(20):
        n_src, n_snk = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        a = rng.integers(0, 3, size=(n_src, n_snk))
        for i in range(n_src):  # arrowless sources would be counted as sinks
            if not a[i].any():
                a[i, int(rng.integers(0, n_snk))] = 1
        labels = [f"s{i}" for i in range(n_src)] + [f"t{j}" for j in range(n_snk)]
        arrows = [(f"s{i}", f"t{j}", int(a[i, j]))
                  for i in range(n_src) for j in range(n_snk) if a[i, j]]
        g = gram_matrix(build_quiver(labels, arrows))
        for _ in range(5):
            x = rng.integers(-3, 4, size=n_snk)
            direct = 4 * int(x @ x) - int(((a @ x) ** 2).sum())
            viag = int(np.dot(x, g.apply(list(map(int, x)))))
            assert direct == viag


def test_definiteness_exact():
    assert definiteness(SymIntMatrix(((3, -1), (-1, 3)))).is_positive_definite
    assert definiteness(SymIntMatrix(((1, 2), (2, 1)))).is_indefinite
    assert definiteness(SymIntMatrix(((0, 1), (1, 0)))).is_indefinite
    assert definiteness(SymIntMatrix(((-1, 0), (0, 1)))).is_indefinite
    res = definiteness(SymIntMatrix(((1, 1), (1, 1))))
    assert res.is_psd_singular
    assert res.kernel_basis == ((Fraction(-1), Fraction(1)),)
    # a PSD matrix whose kernel needs the elimination to look past row order
    res2 = definiteness(SymIntMatrix(((0, 0), (0, 2))))
    assert res2.is_psd_singular and len(res2.kernel_basis) == 1
    with pytest.raises(ValueError):
        SymIntMatrix(((0, 1), (2, 0)))


@pytest.mark.parametrize("call, message", [
    (lambda: SymIntMatrix(((1, 2),)), "matrix is not square"),
    (lambda: SymIntMatrix(((1, 2), (3, 4), (5, 6))), "matrix is not square"),
    (lambda: SymIntMatrix(((1, 0), (0, 1))).apply([1]), "dimension mismatch"),
    (lambda: SymIntMatrix(((1, 0), (0, 1))).apply([1, 2, 3]), "dimension mismatch"),
])
def test_input_checks_name_the_fault(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_definiteness_random_cross_check():
    rng = np.random.default_rng(41)
    for _ in range(120):
        n = int(rng.integers(1, 6))
        b = rng.integers(-2, 3, size=(n, n))
        g = SymIntMatrix(tuple(tuple(int(x) for x in row) for row in (b + b.T)))
        eig = np.linalg.eigvalsh(np.array(g.rows, dtype=float))
        res = definiteness(g)
        if res.is_positive_definite:
            assert eig.min() > 1e-9
        elif res.is_psd_singular:
            assert eig.min() > -1e-9 and abs(eig).min() < 1e-9
            assert len(res.kernel_basis) == int((np.abs(eig) < 1e-9).sum())
        else:
            assert eig.min() < 1e-9


def test_definiteness_kernel_is_sympy_nullspace():
    # psd B^T B of every rank, symmetrically permuted so that kernel indices
    # fall anywhere; sympy's nullspace is the reduced-echelon basis with one
    # free coordinate 1 and the others 0
    rng = np.random.default_rng(5)
    singular = 0
    for _ in range(150):
        n = int(rng.integers(1, 7))
        b = rng.integers(-2, 3, size=(int(rng.integers(0, n + 1)), n))
        p = rng.permutation(n)
        a = (b.T @ b)[np.ix_(p, p)]
        res = definiteness(SymIntMatrix(tuple(tuple(int(x) for x in row) for row in a)))
        want = [tuple(Fraction(int(x.p), int(x.q)) for x in v)
                for v in sympy.Matrix(a.tolist()).nullspace()]
        assert list(res.kernel_basis) == want
        assert res.tag == ("psd_singular" if want else "positive_definite")
        singular += bool(want)
    assert singular > 50


@pytest.mark.parametrize("sinks", [20, 40, 80, 160])
def test_definiteness_of_even_cycle_forms(sinks):
    # the bipartite form of the cycle on 2 * sinks vertices is the affine
    # Cartan matrix 2I - C of type ~A: psd with kernel spanned by (1, ..., 1)
    labels = [f"t{i}" for i in range(sinks)] + [f"s{i}" for i in range(sinks)]
    arrows = [(f"s{i}", f"t{(i + e) % sinks}", 1) for i in range(sinks) for e in (0, 1)]
    res = definiteness(gram_matrix(build_quiver(labels, arrows)))
    assert res.is_psd_singular
    assert res.kernel_basis == ((Fraction(1),) * sinks,)
