"""Probe the domain-regularity dichotomy of the singular part G psi.

Form-domain vectors split as psi = (1 - G) psi + G psi.  The singular
part G psi lies in the domain of L^eta for eta below the threshold
(gamma - D) / (2 gamma) and outside it at or above the threshold.  On a
box truncation this shows up as the growth of ||L^eta G psi|| under box
refinement: flat below threshold, growing above.  This script runs a
three-step refinement ladder and prints the measured growth slopes
around the threshold.
"""

import ibcfock as ib

params = ib.gross_model(coupling=0.3, mu=0.1875, m_boson=0.1875)
exps = ib.ultraviolet_degree(params)
print("model: d=%d relativistic, ultraviolet degree D=%.3g"
      % (params.d, exps.uv_degree))

bases = []
for k_max in (4.0, 8.0, 16.0):
    grid = ib.build_grid(params.d, k_max, int(2 * k_max) + 1)
    bases.append(ib.enumerate_basis(params, grid, n_max=1))
    print("  ladder step: box %4.1f, %7d states"
          % (k_max, bases[-1].total_dim))

etas = (0.25, 0.5, 0.75)
report = ib.regularity_diagnostic(bases, 1, etas)
print("\nthreshold (gamma - D)/(2 gamma) = %.3f" % report.threshold)
print("eta    growth slope   verdict")
for eta in etas:
    slope = report.slopes[eta]
    if eta < report.threshold:
        verdict = "regular (norm saturates)"
    elif eta > report.threshold:
        verdict = "singular (norm grows)"
    else:
        verdict = "threshold case"
    print("%.2f   %+.4f        %s" % (eta, slope, verdict))

print("\nground energies along the ladder (settle with the box):")
for k_max, e in zip((4.0, 8.0, 16.0), report.ground_energies):
    print("  box %4.1f: %.8f" % (k_max, e))
