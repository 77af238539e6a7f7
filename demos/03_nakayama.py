"""Nakayama algebras: the complete brute-force FP dimension calculus.

A connected Nakayama algebra is linear or cyclic and is pinned down by its
Kupisch series (the lengths of the indecomposable projectives).  Every
indecomposable module M(i;l) is uniserial, the AR translate is the socle
shift M(i;l) -> M(i-1;l), and bricks/semibricks/tau-tilting pairs are all
finitely enumerable.  The FP dimension comes out 0 for linear algebras and
1 for cyclic ones, and the tau-tilting lattice sandwiches it.
"""

from taufp import (
    bongartz_completion,
    bricks,
    ext_quiver,
    fpdim_lattice,
    fpdim_nakayama,
    indecomposables,
    make_algebra,
    sandwich,
    self_ext_bound,
    semibricks,
    spectral_radius,
    tau,
    tau_tiltp_lattice,
    tau_tilting_pairs,
)
from taufp.nakayama import module

alg = make_algebra("cyclic", [3, 3, 3])
print("algebra:", alg)
print("indecomposables:", " ".join(str(m) for m in indecomposables(alg)))
print("bricks:", " ".join(str(m) for m in bricks(alg)))
print()

s1 = module(alg, 1, 1)
print("tau S(1) =", tau(alg, s1), "(socle shift)")
print("tau P(3) =", tau(alg, module(alg, 1, 3)), "(projectives die)")
print()

# The Bongartz completion of a tau-rigid module is the largest tau-tilting
# pair containing it; for cyclic algebras it has an explicit closed form.
print("Bongartz completion of S(1):", bongartz_completion(alg, s1))
print()

sbs = semibricks(alg)
pairs = tau_tilting_pairs(alg)
print(f"{len(sbs)} semibricks and {len(pairs)} tau-tilting pairs (always equal)")

# Every semibrick Ext-quiver is a disjoint union of directed paths and
# cycles, so the brute-force FP dimension caps at 1 and the cyclic Gabriel
# quiver attains it.
worst = max((spectral_radius(ext_quiver(alg, sb)) for sb in sbs if sb), default=0.0)
print("max rho over semibrick Ext-quivers:", worst)
print("FPdim =", fpdim_nakayama(alg))
print()

lat = tau_tiltp_lattice(alg)
flat, where = fpdim_lattice(lat)
db = self_ext_bound(alg)
print(f"tau-tilting lattice: {len(lat)} pairs, FPdim(lattice) = {flat} at {where}")
print(f"sandwich: max({flat}, d_b={db}) <= FPdim <= {flat} + {db}")
# the same three numbers from one scan of the maximal semibricks, with the
# lattice value read off the brick labels of the covers (no pair lattice)
print("(FPdim(lattice), d_b, FPdim) from brick labels:", sandwich(alg))
print()

lin = make_algebra("linear", [1, 2, 3])
print(f"{lin}: FPdim = {fpdim_nakayama(lin)} (linear algebras are always 0)")
