"""FP dimensions of generalized preprojective algebras, per Dynkin type.

The Gabriel quiver of Pi(C, D) is the double Dynkin quiver plus a loop at
every vertex whose symmetrizer entry exceeds 1.  Its spectral radius equals
the FP dimension of the algebra and has a closed form in every type; this
script reproduces the minimal and non-minimal symmetrizer tables and shows
the B-type characteristic-polynomial recurrence behind the B_n column.
"""

from taufp import (
    bn_family_char_polys,
    cartan_matrix,
    dynkin_rho,
    fpdim_preproj,
    gabriel_quiver,
    largest_real_root,
)
from taufp.preproj import TABLE_TYPES

for label, mult in (("minimal symmetrizer", 1), ("non-minimal symmetrizer", 2)):
    print(f"--- {label} ---")
    for fam, rank in TABLE_TYPES:
        cd = cartan_matrix(fam, rank, multiplier=mult)
        q = gabriel_quiver(cd)
        loops = [q.labels[i] for i in range(q.n) if q.adj[i, i]]
        rho = fpdim_preproj(cd)  # cross-checked against the closed form
        closed = dynkin_rho(fam, rank, minimal=(mult == 1))
        print(f"{fam}{rank}: rho = {rho:.12f}  closed = {closed:.12f}  "
              f"loops at {loops if loops else 'none'}")
    print()

# The B_n column: char polys of the B-type quivers satisfy
# f_{n+1} = (x - 1) f_n - f_{n-1}, with largest root 1 + 2cos(2pi/(2n+1)).
print("--- B-type recurrence ---")
for n, f in enumerate(bn_family_char_polys(6), start=1):
    print(f"f_{n} = {f}; largest root = {largest_real_root(f):.12f}")
