"""Gabriel quivers of generalized preprojective algebras of Dynkin type.

The Gabriel quiver of Pi(C, D) is the double quiver of the Dynkin diagram
plus a loop at each vertex whose symmetrizer entry is at least 2: the loop
generator at vertex i is nilpotent of degree d_i, so it survives in the
quiver exactly when d_i >= 2.  Its spectral radius equals the FP dimension
of the algebra, and a closed form per type is cross-checked on every call.
"""

from __future__ import annotations

import numpy as np

from .coxeter import CartanData, DEFAULT_BUDGET, _weak_order_covers
from .errors import ConsistencyError
from .lattice import FiniteLattice, from_covers
from .quiver import Quiver
from .spectral import dynkin_rho, spectral_radius

__all__ = ["gabriel_quiver", "fpdim_preproj", "tau_tiltp_model"]


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


def fpdim_preproj(cartan: CartanData, tol: float = 1e-12) -> float:
    """FP dimension of Pi(C, D): the spectral radius of its Gabriel quiver.

    The computed radius is checked against the closed form for the type and
    symmetrizer; disagreement beyond 1e-9 is an internal failure.
    """
    rho = spectral_radius(gabriel_quiver(cartan), tol=tol)
    closed = dynkin_rho(cartan.family, cartan.rank, minimal=cartan.minimal)
    if abs(rho - closed) > 1e-9:
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
    opposite(weak_order(cartan).lattice).
    """
    # the elements are not kept: they would stay alive while the lattice builds
    declaration, covers = _weak_order_covers(cartan, budget)[:2]
    return from_covers(declaration, [(l, u) for u, l in covers])
