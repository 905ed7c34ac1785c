"""Assemble the renormalized Hamiltonian two ways and verify equality.

The direct route adds the cutoff interaction and the counterterm
diagonal to the free operator.  The boundary route conjugates the free
operator by (1 - G) and replaces the ill-defined product a(V)G by its
regularized blocks.  On the lattice both are finite matrices and must
agree entrywise, for every cutoff, counterterm variant, and auxiliary
energy shift -- that identity is the package's central correctness
check, and this script watches it hold (and fail, when sabotaged).
"""

import dataclasses

from scipy.sparse.linalg import eigsh

import ibcfock as ib

params = ib.gross_model(coupling=1.0, mu=1.0, m_boson=1.0)
grid = ib.build_grid(params.d, k_max=2.0, n_per_axis=5)
basis = ib.enumerate_basis(params, grid, n_max=2)
print("basis: %d states, digest %s..."
      % (basis.total_dim, ib.basis_digest(basis)[:12]))

for lam in (1.0, 2.0):
    for variant in (1, 2):
        direct = ib.assemble_H_direct(basis, lam, variant)
        ibc = ib.assemble_H_ibc(basis, lam, variant, 0.0)
        rep = ib.verify_identity(direct, ibc, tol=1e-10)
        print("cutoff %4.1f  variant %d: max rel diff %.3e  -> %s"
              % (lam, variant, rep.max_rel_diff,
                 "agree" if rep.passed else "DISAGREE"))

# the auxiliary shift threads through G and the T blocks but cancels
print("\nshift invariance at cutoff 2, variant 2:")
base = ib.assemble_H_ibc(basis, 2.0, 2, 0.0)
for shift in (1.0, 10.0):
    other = ib.assemble_H_ibc(basis, 2.0, 2, shift)
    rep = ib.verify_identity(base, other, tol=1e-10)
    print("  shift %5.1f: max rel diff %.3e" % (shift, rep.max_rel_diff))

# negative control: flip the sign of the off-diagonal renormalized
# blocks and watch the identity break at a visible magnitude
t_od = ib.assemble_T_od(basis, 2.0)
bad = dataclasses.replace(base,
                          matrix=(base.matrix - 2 * t_od.matrix).tocsr())
rep = ib.verify_identity(direct, bad, tol=1e-10)
print("\nsabotaged off-diagonal sign: max rel diff %.3e -> %s"
      % (rep.max_rel_diff, "agree" if rep.passed else "DISAGREE (expected)"))

# spectra agree too (they are the same matrix)
e_direct = eigsh(direct.matrix, k=1, which="SA",
                 return_eigenvectors=False)[0]
e_ibc = eigsh(ib.assemble_H_ibc(basis, 2.0, 2, 1.0).matrix,
              k=1, which="SA", return_eigenvectors=False)[0]
print("\nground energy, both routes: %.10f vs %.10f (diff %.2e)"
      % (e_direct, e_ibc, abs(e_direct - e_ibc)))
