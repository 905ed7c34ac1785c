"""Build a truncated Fock basis on a momentum lattice and look around.

The state space is a direct sum of n-boson sectors over a uniform,
centered momentum grid: each basis vector is (nucleon modes, sorted
boson multiset).  This script enumerates a small d=2 basis, prints the
sector layout, decodes a few states, and shows the reproducibility
manifest that every downstream artifact hashes.
"""

import json

import numpy as np

import ibcfock as ib
from ibcfock.errors import BasisTooLarge

params = ib.gross_model(coupling=1.0, mu=1.0, m_boson=1.0)
grid = ib.build_grid(params.d, k_max=2.0, n_per_axis=5)
print("momentum grid: d=%d, spacing h=%.3g, %d modes, cell weight h^d=%.3g"
      % (grid.d, grid.spacing, grid.size, grid.cell_weight))

basis = ib.enumerate_basis(params, grid, n_max=2)
print("basis: %d states total" % basis.total_dim)
for n in range(basis.n_max + 1):
    sec = basis.sector_slice(n)
    print("  sector n=%d: %6d states  (rows %d..%d)"
          % (n, basis.bos_dim(n) * basis.nuc_dim, sec.start, sec.stop - 1))

# decode a handful of flat indices back into momenta
print("\nsample states (nucleon momentum | boson momenta):")
for idx in (0, basis.nuc_dim, basis.total_dim - 1):
    n, nuc_modes, bos_modes = basis.decode(idx)
    p = grid.points[nuc_modes[0]]
    ks = [grid.points[m].tolist() for m in bos_modes]
    print("  #%-5d n=%d  p=%s  k=%s" % (idx, n, np.round(p, 3), ks))

# the manifest pins every choice that affects matrix entries
digest = ib.basis_digest(basis)
print("\nmanifest digest: %s..." % digest[:16])
print(json.dumps(basis.manifest(), indent=2, sort_keys=True)[:400], "...")

# truncation guard: a basis that would not fit desk RAM refuses to build
try:
    ib.enumerate_basis(params, ib.build_grid(2, 8.0, 33), n_max=3)
except BasisTooLarge as exc:
    print("\noversized request correctly refused: %s" % exc)
