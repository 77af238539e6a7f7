"""Frobenius-Perron dimensions via tau-tilting combinatorics.

Subpackages:

- quiver: quivers as labelled integer adjacency matrices, separated quivers,
  Dynkin recognition of underlying graphs
- spectral: spectral radii, exact characteristic polynomials, Gram matrices
  of bipartite quadratic forms and their exact definiteness
- lattice: finite lattices from Hasse covers and their FP dimension
- coxeter: Cartan matrices, Weyl groups, the right weak order
- preproj: Gabriel quivers of generalized preprojective algebras, their
  closed-form spectral radii per Dynkin type, the B-type characteristic
  polynomial family, and the weak-order model of their tau-tilting poset
- nakayama: the full combinatorial module calculus of connected Nakayama
  algebras (bricks, semibricks, tau-tilting pairs, brute-force FP dimension)
"""

from .errors import BudgetError, ConsistencyError, LatticeError
from .quiver import (
    DynkinClass,
    Quiver,
    build_quiver,
    classify_underlying_graph,
    connected_components,
    loop_removed,
    quiver_from_dict,
    quiver_to_dict,
    separated_quiver,
    to_dot,
)
from .spectral import (
    Definiteness,
    IntPolynomial,
    SymIntMatrix,
    char_poly,
    definiteness,
    gram_matrix,
    largest_real_root,
    spectral_radius,
)
from .lattice import (
    FiniteLattice,
    fpdim_lattice,
    from_covers,
    lattice_from_dict,
    lattice_to_dict,
    opposite,
    q_of,
)
from .coxeter import (
    CartanData,
    WeakOrder,
    WeylElement,
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
from .preproj import (
    bn_family_char_polys,
    dynkin_rho,
    fpdim_preproj,
    gabriel_quiver,
    tau_tiltp_model,
)
from .nakayama import (
    NakayamaAlgebra,
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
    projective_module,
    sandwich,
    self_ext_bound,
    semibricks,
    tau,
    tau_tiltp_lattice,
    tau_tilting_pairs,
)

__version__ = "0.1.0"
