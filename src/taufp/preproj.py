"""Gabriel quivers of generalized preprojective algebras of Dynkin type.

The Gabriel quiver of Pi(C, D) is the double quiver of the Dynkin diagram
plus a loop at each vertex whose symmetrizer entry is at least 2: the loop
generator at vertex i is nilpotent of degree d_i, so it survives in the
quiver exactly when d_i >= 2.  Its spectral radius equals the FP dimension
of the algebra, and a closed form per type (dynkin_rho) is cross-checked
on every call.  bn_family_char_polys checks the B-type characteristic
polynomials against their recurrence and closed-form roots.
"""

from __future__ import annotations

import math

import numpy as np

from .coxeter import (CartanData, DEFAULT_BUDGET, _WeylLattice, _check_type_rank,
                      _coxeter_number, cartan_matrix)
from .errors import ConsistencyError
from .lattice import FiniteLattice
from .quiver import Quiver
from .spectral import ONE, IntPolynomial, _check_tol, char_poly, spectral_radius

__all__ = [
    "gabriel_quiver",
    "fpdim_preproj",
    "tau_tiltp_model",
    "dynkin_rho",
    "bn_family_char_polys",
    "TABLE_TYPES",
]

# the Dynkin types of the FP dimension tables, A1-A6 through G2
TABLE_TYPES = tuple(
    [("A", r) for r in range(1, 7)] + [("B", r) for r in (2, 3, 4)]
    + [("C", r) for r in (2, 3, 4)] + [("D", 4), ("D", 5), ("E", 6), ("F", 4), ("G", 2)]
)


def gabriel_quiver(cartan: CartanData) -> Quiver:
    """Double Dynkin quiver plus loops at vertices with symmetrizer entry >= 2.

    Minimal symmetrizers give: no loops for A/D/E, loops at 1..n-1 for B_n,
    a loop at n for C_n, loops at 1 and 2 for F4, a loop at 1 for G2.  Any
    non-minimal symmetrizer puts a loop at every vertex.
    """
    n = cartan.rank
    adj = np.zeros((n, n), dtype=np.int64)
    for i, j in cartan.edges():
        adj[i - 1, j - 1] = 1
        adj[j - 1, i - 1] = 1
    for i, d in enumerate(cartan.symmetrizer_diag):
        if d >= 2:
            adj[i, i] = 1
    return Quiver([str(i + 1) for i in range(n)], adj)


def _closed_form_check(cartan: CartanData, tol: float) -> tuple[float, float, bool]:
    """rho of the Gabriel quiver of Pi(C, D), the closed form dynkin_rho for
    its type and symmetrizer, and whether they agree within 1e-9."""
    rho = spectral_radius(gabriel_quiver(cartan), tol=tol)
    closed = dynkin_rho(cartan.family, cartan.rank, minimal=cartan.minimal)
    return rho, closed, abs(rho - closed) <= 1e-9


def fpdim_preproj(cartan: CartanData, tol: float = 1e-12) -> float:
    """FP dimension of Pi(C, D): the spectral radius of its Gabriel quiver.

    The computed radius is checked against the closed form for the type and
    symmetrizer (_closed_form_check); disagreement is an internal failure.
    """
    rho, closed, ok = _closed_form_check(cartan, tol)
    if not ok:
        raise ConsistencyError(
            f"{cartan.name}: computed rho {rho!r} differs from closed form {closed!r}"
        )
    return rho


def tau_tiltp_model(cartan: CartanData, budget: int = DEFAULT_BUDGET) -> FiniteLattice:
    """Poset model of the tau-tilting pairs of Pi(C, D)^op.

    This is the opposite of the right weak order of the Weyl group of C; it
    does not depend on the symmetrizer.  The maximum corresponds to the
    identity of W, i.e. the pair (A, 0).  The lattice is built straight from
    the weak-order BFS with each cover reversed, so only one lattice is
    built; its elements and covers are in the order of
    opposite(weak_order(cartan).lattice), and its cover quivers are read off
    the certified rank-2 faces (coxeter._WeylLattice).
    """
    return _WeylLattice(cartan, budget, dual=True)


def dynkin_rho(family: str, rank: int, minimal: bool = True) -> float:
    """Closed-form spectral radius of the Gabriel quiver of Pi(C, D).

    minimal=True is the c = 1 symmetrizer column; otherwise every vertex
    carries a loop and the radius shifts accordingly.
    """
    n = _check_type_rank(family, rank)
    if family in ("A", "D", "E"):
        # the double Dynkin quiver has rho 2 cos(pi / h); loops add 1
        r = 2 * math.cos(math.pi / _coxeter_number(family, n))
        return r if minimal else 1 + r
    if not minimal:
        # B, C, F4, G2 all collapse onto the A_n shape plus loops
        return 1 + 2 * math.cos(math.pi / (n + 1))
    if family == "B":
        return 1 + 2 * math.cos(2 * math.pi / (2 * n + 1))
    if family == "C":
        return 2 * math.cos(math.pi / (2 * n + 1))
    if family == "F":
        return (1 + math.sqrt(13)) / 2
    return (1 + math.sqrt(5)) / 2  # G2


def bn_family_char_polys(n_max: int, tol: float = 1e-9) -> list[IntPolynomial]:
    """Characteristic polynomials f_1..f_{n_max} of the B-type Gabriel quivers
    (double path on n vertices, loops at 1..n-1; f_1 = x).

    Checks the three-term recurrence f_{n+1} = (x-1) f_n - f_{n-1} exactly
    (anchored at f_0 = 1) and that the real roots of f_n are
    1 + 2 cos(2k pi / (2n+1)), k = 1..n, within tol.
    """
    _check_tol(tol)
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    polys = [IntPolynomial((0, 1))]
    polys += [char_poly(gabriel_quiver(cartan_matrix("B", n))) for n in range(2, n_max + 1)]
    x_minus_1 = IntPolynomial((-1, 1))
    prev = ONE
    for n in range(1, n_max):
        expected = x_minus_1 * polys[n - 1] - prev
        if expected != polys[n]:
            raise ConsistencyError(f"B-type recurrence fails at n = {n + 1}")
        prev = polys[n - 1]
    for n, f in enumerate(polys, start=1):
        roots = np.roots(list(reversed(f.coeffs)))
        if np.abs(roots.imag).max() > tol:
            raise ConsistencyError(f"nonreal root in f_{n}")
        got = np.sort(roots.real)
        want = np.sort([1 + 2 * math.cos(2 * k * math.pi / (2 * n + 1)) for k in range(1, n + 1)])
        if np.abs(got - want).max() > tol:
            raise ConsistencyError(f"root set of f_{n} differs from closed form")
    return polys
