"""Acceptance gate: ten end-to-end properties of the renormalized
Hamiltonian machinery, one test per property.

Each test states its tolerance inline and checks a claim with an
independent oracle: closed-form integrals, exact lattice identities,
analytic bound constants, or monotonicity/scaling laws measured on the
desk-scale presets.  Run with -v for one pass/fail line per property.
"""

import math
import time
import warnings

import numpy as np
import pytest

import ibcfock as ib
from ibcfock.errors import MasslessWithoutShift

GROSS = ib.gross_model(coupling=1.0, mu=1.0, m_boson=1.0)
ECKMANN = ib.eckmann_model(delta=0.0, coupling=1.0, mu=1.0, m_boson=1.0)


def preset_basis(params, k_max, n_per_axis, n_max):
    grid = ib.build_grid(params.d, k_max, n_per_axis)
    return ib.enumerate_basis(params, grid, grid, n_max)


# ---------------------------------------------------------------------------
# 1. central identity: direct vs boundary-decomposed assembly

def test_direct_and_boundary_assemblies_match_on_presets():
    presets = [
        (GROSS, 4.0, 9, 2),      # d=2, unit masses, two boson sectors
        (ECKMANN, 2.0, 5, 1),    # d=3, unit masses, one boson sector
    ]
    for params, k_max, nax, n_max in presets:
        start = time.perf_counter()
        basis = preset_basis(params, k_max, nax, n_max)
        with warnings.catch_warnings():
            # the d=3 preset's largest cutoff exceeds the box reach by
            # design (the whole grid is active); that is legitimate
            warnings.simplefilter("ignore")
            for lam in (1.0, 2.0, 4.0):
                for variant in (1, 2):
                    direct = ib.assemble_H_direct(basis, lam, variant,
                                                  "grid")
                    ibc = ib.assemble_H_ibc(basis, lam, variant, 0.0,
                                            "grid")
                    rep = ib.verify_identity(direct, ibc, tol=1e-10)
                    assert rep.passed, (params.kind, lam, variant,
                                        rep.max_rel_diff)
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, "preset exceeded the two-minute budget"


# ---------------------------------------------------------------------------
# 2. energy-shift invariance, and the loud massless failure

def test_energy_shift_invariance_and_massless_guard():
    presets = [(GROSS, 4.0, 9, 2), (ECKMANN, 2.0, 5, 1)]
    for params, k_max, nax, n_max in presets:
        basis = preset_basis(params, k_max, nax, n_max)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for variant in (1, 2):
                ops = [ib.assemble_H_ibc(basis, 4.0, variant, shift,
                                         "grid")
                       for shift in (0.0, 1.0, 10.0)]
                for other in ops[1:]:
                    rep = ib.verify_identity(ops[0], other, tol=1e-10)
                    assert rep.passed, (params.kind, variant,
                                        rep.max_rel_diff)

    # massless bosons: the boundary map needs a positive shift
    massless = ib.eckmann_model(delta=0.0, coupling=1.0, mu=1.0,
                                m_boson=0.0)
    basis = preset_basis(massless, 1.0, 3, 1)
    shifted = ib.assemble_H_ibc(basis, 1.0, 1, 1.0, "grid")
    assert shifted.nnz > 0
    with pytest.raises(MasslessWithoutShift):
        ib.assemble_H_ibc(basis, 1.0, 1, 0.0, "grid")


# ---------------------------------------------------------------------------
# 3. counterterm against its closed form, and the divergence rate

def test_counterterm_log_divergence_closed_form():
    # d=2, unit masses, variant 1, p=0: the radial integrand is
    # 2*pi*r / (2*(1+r^2)), whose integral is (pi/2)*ln(1+Lambda^2);
    # the cutoff derivative d E / d ln(Lambda) therefore approaches pi
    p0 = np.zeros(2)
    for lam in (1.0, 2.0, 4.0, 8.0, 16.0):
        exact = 0.5 * math.pi * math.log1p(lam * lam)
        value = ib.counterterm(p0, lam, 1, GROSS).value
        assert abs(value - exact) <= 1e-8 * exact

    lams = (8.0, 16.0, 32.0, 64.0)
    values = [ib.counterterm(p0, lam, 1, GROSS).value for lam in lams]
    fit = ib.divergence_fit(lams, values)
    assert abs(fit.slope_log - math.pi) <= 0.02 * math.pi
    assert abs(fit.slope_log1p - math.pi / 2.0) <= 1e-6 * math.pi
    assert fit.residual_log1p < 1e-6


# ---------------------------------------------------------------------------
# 4. vacuum-sector identities of the renormalized blocks

def test_vacuum_sector_counterterm_cancellation():
    params = GROSS
    basis = preset_basis(params, 2.0, 5, 2)
    s0 = basis.sector_slice(0)
    nuc_table = basis.nucleon_mode_table().astype(np.int64)
    for lam in (1.0, 2.0):
        # the virtual-boson block restricted to the vacuum sector is
        # exactly minus the momentum-dependent lattice counterterm
        t_cut = ib.assemble_T_cutoff(basis, lam, 0.0)
        block = t_cut.matrix[s0, s0].toarray()
        e2 = ib.counterterm_grid(nuc_table[:, 0], basis.boson_grid, lam,
                                 2, params, i_nucleon=0)
        assert np.abs(block + np.diag(e2)).max() <= 1e-12

        # the boson-exchange piece has no vacuum-sector matrix elements
        tau = ib.assemble_tau(basis, 0, 0, lam)
        assert tau.nnz > 0
        dense_rows = np.abs(tau.matrix[s0, :].toarray())
        dense_cols = np.abs(tau.matrix[:, s0].toarray())
        assert dense_rows.max() == 0.0 and dense_cols.max() == 0.0

        # the diagonal renormalized block is a real multiplier
        for variant in (1, 2):
            td = ib.assemble_Td(basis, lam, variant, "grid")
            coo = td.matrix.tocoo()
            assert np.all(coo.row == coo.col), "off-diagonal entries"
            assert np.abs(coo.data.imag).max() <= 1e-15


# ---------------------------------------------------------------------------
# 5. adjoint identities on randomized small bases

def test_adjoint_identities_on_random_bases():
    rng = np.random.default_rng(42)
    seen_theta = seen_tau = False
    for trial in range(6):
        m_nuc = int(rng.integers(1, 3))
        couplings = (rng.standard_normal(m_nuc)
                     + 1j * rng.standard_normal(m_nuc))
        if rng.random() < 0.5:
            params = ib.gross_model(coupling=couplings, mu=1.0,
                                    m_boson=float(rng.uniform(0.5, 1.5)),
                                    n_nucleons=m_nuc)
            nax = 3                     # 9 modes
        else:
            params = ib.custom_model(d=1, alpha=0.25, beta=1.0, gamma=1.0,
                                     coupling=couplings, mu=1.0,
                                     m_boson=float(rng.uniform(0.5, 1.5)),
                                     n_nucleons=m_nuc)
            nax = int(rng.choice((5, 7, 9)))
        n_max = int(rng.integers(1, 3))
        basis = preset_basis(params, 2.0, nax, n_max)
        lam = float(rng.choice((1.0, 2.0)))
        shift = float(rng.choice((0.0, 0.7)))

        a_up = ib.assemble_creation(basis, lam)
        a_dn = ib.assemble_annihilation(basis, lam)
        d = a_dn.matrix - a_up.matrix.conj().T
        assert (np.abs(d.data).max() if d.nnz else 0.0) <= 1e-12

        for i in range(m_nuc):
            for ell in range(m_nuc):
                tau_il = ib.assemble_tau(basis, i, ell, lam, shift)
                tau_li = ib.assemble_tau(basis, ell, i, lam, shift)
                d = tau_il.matrix.conj().T - tau_li.matrix
                assert (np.abs(d.data).max() if d.nnz else 0.0) <= 1e-12
                seen_tau |= tau_il.nnz > 0
                if i != ell:
                    th_il = ib.assemble_theta(basis, i, ell, lam, shift)
                    th_li = ib.assemble_theta(basis, ell, i, lam, shift)
                    d = th_il.matrix.conj().T - th_li.matrix
                    assert (np.abs(d.data).max()
                            if d.nnz else 0.0) <= 1e-12
                    seen_theta |= th_il.nnz > 0

        t_cut = ib.assemble_T_cutoff(basis, lam, shift)
        assert t_cut.tags["product_agreement"] <= 1e-12
        assert t_cut.hermiticity_defect() <= 1e-12
    assert seen_theta and seen_tau, "randomization never hit a nonzero case"


# ---------------------------------------------------------------------------
# 6. kinematic and scaling inequalities with analytic constants

def test_kinematic_and_scaling_inequalities():
    # zero violations of the relativistic kinematic bound, with the
    # analytic constant (mu^-2 + mu^-4)^(1/4)
    for mu in (0.5, 1.0, 2.0):
        rep = ib.eckmann_kinematic_bound(mu, delta=0.0, n_samples=100000,
                                         seed=0)
        assert rep.holds
        assert rep.n_samples == 100000
        assert rep.c_analytic == pytest.approx(
            (mu ** -2 + mu ** -4) ** 0.25, rel=1e-12)
        assert rep.max_ratio <= rep.c_analytic

    # closed-form oracle: int dk / (2 k^2 + Om) over the line
    flat = ib.ScalingExponents(nu_exp=0.0, sigma_exp=0.0, r=1.0)
    line = ib.custom_model(d=1, alpha=0.25, beta=2.0, gamma=2.0,
                           coupling=1.0, mu=1.0, m_boson=1.0)
    for om in (0.5, 1.0, 4.0):
        exact = math.pi / math.sqrt(2.0 * om)
        value = ib.scaling_lhs(0.0, om, 0.0, flat, line).value
        assert abs(value - exact) <= 1e-8 * exact

    # with the shift scaled as the cutoff power, the compensated ratio
    # is the constant sqrt(2) (pi/2 - atan sqrt(2)) independent of cutoff
    pts = [dict(p=0.0, omega_shift=lam ** 2.0, lambda_uv=lam,
                exps=flat, params=line) for lam in (2.0, 4.0, 8.0)]
    fit = ib.scaling_bound_fit(pts, delta=0.3)
    assert fit.monotone_in_lambda
    const = math.sqrt(2.0) * (math.pi / 2.0 - math.atan(math.sqrt(2.0)))
    assert fit.fitted_c == pytest.approx(const, rel=1e-6)
    assert max(fit.ratios) - min(fit.ratios) <= 1e-6 * const

    exps2 = ib.ScalingExponents(nu_exp=0.0, sigma_exp=0.0, r=2.5)
    pts2 = [dict(p=np.zeros(2), omega_shift=1.0, lambda_uv=lam,
                 exps=exps2, params=GROSS) for lam in (2.0, 4.0, 8.0)]
    fit2 = ib.scaling_bound_fit(pts2, delta=0.1)
    assert fit2.monotone_in_lambda
    assert np.isfinite(fit2.fitted_c) and fit2.fitted_c > 0


# ---------------------------------------------------------------------------
# 7. growth integral: cutoff decay and momentum envelope

def ball_sample(d, count, seed, radius=4.0):
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal((count, d))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    return direction * (radius * rng.random(count) ** (1.0 / d))[:, None]


def envelope_constant(momenta, values):
    return max(v / (np.linalg.norm(p) ** 0.1 + 1.0)
               for v, p in zip(values, momenta))


@pytest.mark.slow
def test_growth_integral_decay_and_momentum_envelope():
    lams = (1.0, 2.0, 4.0, 8.0)
    for params in (GROSS, ECKMANN):
        momenta = ball_sample(params.d, 20, seed=0)
        base_vals = []
        for p in momenta:
            vals = [ib.condition_b_lhs(p, lam, params).value
                    for lam in lams]
            assert all(a >= b for a, b in zip(vals[:-1], vals[1:])), \
                (params.kind, p, vals)
            assert vals[-1] < vals[0]
            base_vals.append(vals[0])

        # envelope value <= C (|p|^0.1 + 1) on the sampled ball, with C
        # stable when the same ball is sampled twice as densely
        c_base = envelope_constant(momenta, base_vals)
        fine = ball_sample(params.d, 40, seed=1)
        c_fine = envelope_constant(
            fine, [ib.condition_b_lhs(p, 1.0, params).value for p in fine])
        assert np.isfinite(c_base) and c_base > 0
        assert 0.75 <= c_fine / c_base <= 1.3, (params.kind, c_base, c_fine)


# ---------------------------------------------------------------------------
# 8. cutoff convergence study on the desk preset

def test_cutoff_convergence_desk_study():
    start = time.perf_counter()
    params = ib.gross_model(coupling=0.3, mu=1.0, m_boson=1.0)
    basis = preset_basis(params, 8.0, 17, 1)
    lams = (1.0, 2.0, 4.0, 8.0)
    tables = ib.cutoff_convergence_study(basis, lams, (1, 2))
    assert sorted(tables) == [1, 2]
    for table in tables.values():
        rdiff = table.column("resolvent_diff_to_finest")
        assert rdiff[-1] == 0.0
        assert all(a > b for a, b in zip(rdiff[:-1], rdiff[1:])), rdiff

        # the uncompensated control drifts like the log divergence ...
        drift = table.fits["control_drift_slope"]
        assert -0.5 < drift < -0.1, drift
        control = table.column("control_ground_energy")
        assert all(a > b for a, b in zip(control[:-1], control[1:]))

        # ... while the renormalized ground energy has settled
        assert table.fits["renormalized_top_variation"] < 0.05
    assert time.perf_counter() - start < 600.0


# ---------------------------------------------------------------------------
# 9. regularity dichotomy across box refinements

@pytest.mark.slow
def test_regularity_dichotomy_across_refinements():
    params = ib.gross_model(coupling=0.3, mu=0.1875, m_boson=0.1875)
    bases = [preset_basis(params, k, int(2 * k) + 1, 1) for k in (4, 8, 16)]
    report = ib.regularity_diagnostic(bases, 1, (0.25, 0.5, 0.75))
    assert report.threshold == pytest.approx(0.5, abs=1e-12)
    assert report.slopes[0.25] < 0.05, report.slopes
    assert report.slopes[0.75] > 0.2, report.slopes


# ---------------------------------------------------------------------------
# 10. auxiliary exponent family across its piecewise cases

def test_auxiliary_exponent_family_sweep():
    cases_seen = set()
    count = 0
    for gamma in (0.9, 1.2, 1.5, 1.8, 2.1):
        for ratio in (0.3, 0.5, 0.7, 0.85, 0.95):
            beta = ratio * gamma
            for frac in (0.2, 0.6):
                bound = gamma * beta ** 2 / (beta ** 2 + 2 * gamma ** 2)
                uv = frac * bound
                alpha = (3.0 - uv - gamma) / 2.0
                params = ib.custom_model(d=3, alpha=alpha, beta=beta,
                                         gamma=gamma, coupling=1.0,
                                         mu=1.0, m_boson=1.0)
                assert ib.check_condition_c(params).holds
                fam = ib.appendix_parameter_family(params, epsilon=1e-3)
                count += 1
                cases_seen.add(fam.case_id)
                u_s = float(ib.u_map(fam.s, params))
                assert u_s < 1.0
                assert float(ib.u_map(u_s, params)) > 0.0
                assert fam.delta1 < 1.0
                assert fam.delta2 < 1.0
    assert count == 50
    assert cases_seen == {1, 2, 3}, cases_seen
