"""Run the cutoff-convergence study at desk scale.

With the counterterm in place, ground energies and resolvents settle as
the ultraviolet cutoff grows; without it (the control run, E = 0) the
ground energy drifts downward like the log divergence.  This script
runs the study on a one-boson d=2 basis, prints the table, and fits
both behaviors.
"""

import numpy as np

import ibcfock as ib

params = ib.gross_model(coupling=0.3, mu=1.0, m_boson=1.0)
grid = ib.build_grid(params.d, k_max=8.0, n_per_axis=17)
basis = ib.enumerate_basis(params, grid, n_max=1)
print("basis: %d states (one boson sector, h=%.2g, box %g)"
      % (basis.total_dim, grid.spacing, grid.k_max))

lams = (1.0, 2.0, 4.0, 8.0)
tables = ib.cutoff_convergence_study(basis, lams, (1, 2))
for variant, table in tables.items():
    print("\nvariant %d:" % variant)
    print("  cutoff   ground        control       resolvent diff   |T| diff")
    for row in table.rows:
        print("  %6.1f  %12.8f  %12.8f  %14.3e  %9.3e"
              % (row.lambda_uv, row.ground_energy,
                 row.control_ground_energy, row.resolvent_diff_to_finest,
                 row.opnorm_t_diff))
    print("  control drift slope (log fit):  %+.4f"
          % table.fits["control_drift_slope"])
    print("  renormalized top variation:      %.4f%%"
          % (100.0 * table.fits["renormalized_top_variation"]))
    print("  resolvent Cauchy rate:          %+.4f"
          % table.fits["resolvent_rate"])

# the drift in the control run tracks the counterterm's divergence
print("\ncounterterm at the same cutoffs (what the control run is missing):")
for lam in lams:
    print("  cutoff %4.1f: E(0) = %.6f"
          % (lam, ib.counterterm(np.zeros(2), lam, 1, params).value))
