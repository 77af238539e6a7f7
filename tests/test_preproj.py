"""Gabriel quivers of Pi(C, D) and the weak-order model of its pair poset."""

import math

import numpy as np
import pytest

from taufp.coxeter import cartan_matrix
from taufp.lattice import fpdim_lattice
from taufp.preproj import dynkin_rho, fpdim_preproj, gabriel_quiver, tau_tiltp_model
from taufp.quiver import loop_removed
from taufp.spectral import spectral_radius


def loops_of(q):
    return [q.labels[i] for i in range(q.n) if q.adj[i, i]]


def test_minimal_loop_placement():
    assert loops_of(gabriel_quiver(cartan_matrix("A", 3))) == []
    assert loops_of(gabriel_quiver(cartan_matrix("D", 5))) == []
    assert loops_of(gabriel_quiver(cartan_matrix("E", 6))) == []
    assert loops_of(gabriel_quiver(cartan_matrix("B", 4))) == ["1", "2", "3"]
    assert loops_of(gabriel_quiver(cartan_matrix("C", 4))) == ["4"]
    assert loops_of(gabriel_quiver(cartan_matrix("F", 4))) == ["1", "2"]
    assert loops_of(gabriel_quiver(cartan_matrix("G", 2))) == ["1"]


def test_non_minimal_loops_everywhere():
    for fam, rank in [("A", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2)]:
        q = gabriel_quiver(cartan_matrix(fam, rank, multiplier=2))
        assert loops_of(q) == list(q.labels)
    q = gabriel_quiver(cartan_matrix("A", 2, multiplier=2))
    assert q.adj.tolist() == [[1, 1], [1, 1]]


def test_double_quiver_structure():
    q = gabriel_quiver(cartan_matrix("A", 3))
    off = np.array(q.adj)
    np.fill_diagonal(off, 0)
    assert np.array_equal(off, off.T)
    assert q.adj.max() == 1  # never multiple arrows
    assert q.arrows() == [("1", "2", 1), ("2", "1", 1), ("2", "3", 1), ("3", "2", 1)]


def test_fpdim_matches_closed_form():
    assert fpdim_preproj(cartan_matrix("A", 3)) == pytest.approx(math.sqrt(2), abs=1e-9)
    assert fpdim_preproj(cartan_matrix("F", 4)) == pytest.approx(
        (1 + math.sqrt(13)) / 2, abs=1e-9)
    assert fpdim_preproj(cartan_matrix("D", 4, multiplier=2)) == pytest.approx(
        1 + math.sqrt(3), abs=1e-9)


def test_loop_shift_sandwich():
    # rho(Q°) <= rho(Q) <= rho(Q°) + 1, with the upper bound attained exactly
    # when every vertex carries a loop
    for fam, rank in [("A", 3), ("B", 3), ("C", 3), ("F", 4), ("G", 2)]:
        for mult in (1, 2):
            q = gabriel_quiver(cartan_matrix(fam, rank, multiplier=mult))
            lo = spectral_radius(loop_removed(q))
            hi = spectral_radius(q)
            assert lo - 1e-9 <= hi <= lo + 1 + 1e-9
            all_loops = all(q.adj[i, i] for i in range(q.n))
            if all_loops:
                assert hi == pytest.approx(lo + 1, abs=1e-9)
            elif loops_of(q):
                assert hi < lo + 1 - 1e-6


def test_model_extremes_and_independence_of_symmetrizer():
    m = tau_tiltp_model(cartan_matrix("A", 2))
    assert len(m) == 6
    assert m.maximum == "e"  # the pair (A, 0) sits at the identity
    m2 = tau_tiltp_model(cartan_matrix("A", 2, multiplier=3))
    assert set(m.covers) == set(m2.covers)
    assert len(tau_tiltp_model(cartan_matrix("B", 2))) == 8


def test_model_fpdim_equals_loopless_radius_smoke():
    for fam, rank in [("A", 2), ("B", 2), ("G", 2)]:
        cd = cartan_matrix(fam, rank)
        got, _ = fpdim_lattice(tau_tiltp_model(cd))
        want = spectral_radius(loop_removed(gabriel_quiver(cd)))
        assert got == pytest.approx(want, abs=1e-9)


def test_non_integral_rank_and_multiplier_are_value_errors():
    assert dynkin_rho("A", 2.0) == dynkin_rho("A", 2)
    with pytest.raises(ValueError, match="rank must be an integer"):
        dynkin_rho("A", 2.5)
    with pytest.raises(ValueError, match="rank must be an integer"):
        dynkin_rho("E", "6")
    # a bad input, not an internal ConsistencyError inside fpdim_preproj
    with pytest.raises(ValueError, match="multiplier must be an integer"):
        cartan_matrix("A", 3, multiplier=1.5)
    assert fpdim_preproj(cartan_matrix("A", 3, multiplier=2.0)) == pytest.approx(1 + math.sqrt(2))
