"""Quadrature oracles: closed forms, exchange identities, lattice twins."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ibcfock as ib
from ibcfock.errors import ExponentWindowViolated, QuadNotConverged

GROSS = ib.gross_model(coupling=1.0, mu=1.0, m_boson=1.0)
ECK = ib.eckmann_model(delta=0.0, coupling=1.0, mu=1.0, m_boson=1.0)


# ---------------------------------------------------------------------------
# engine sanity on exactly known integrals

def test_gaussian_integral_every_dimension():
    # int exp(-|k|^2) dk over R^d is pi^(d/2); a spurious angular break
    # point must not change the composite rule
    for d in (1, 2, 3):
        res = ib.axisymmetric_integral(lambda r, u: math.exp(-r * r), d,
                                       0.0, np.inf, u_kinks=(0.3,))
        exact = math.pi ** (d / 2.0)
        assert abs(res.value - exact) <= 1e-10 * exact
        assert res.value == res.inner_contribution + res.tail_contribution
        assert res.n_evals > 0


def test_non_power_tail_refused():
    # 1/(r log^2 r) decays too slowly for the power-law tail model
    with pytest.raises(QuadNotConverged):
        ib.axisymmetric_integral(
            lambda r, u: 1.0 / ((r + 2.0) * math.log(r + 2.0) ** 2),
            1, 0.0, np.inf)


# ---------------------------------------------------------------------------
# counterterm

def test_counterterm_gross_closed_form():
    # with unit masses the integrand collapses to 1/(2(1+|k|^2)), whose
    # ball integral in d=2 is (pi/2) log(1+Lambda^2)
    for lam in (1.0, 2.0, 4.0, 8.0, 16.0):
        res = ib.counterterm(np.zeros(2), lam, 1, GROSS)
        exact = 0.5 * math.pi * math.log1p(lam * lam)
        assert abs(res.value - exact) <= 1e-8 * exact
        assert res.abs_error_estimate < 1e-6
    assert abs(ib.counterterm(np.zeros(2), 1.0, 1, GROSS).value
               - 1.0887930451518010) < 1e-12


def test_counterterm_log_divergence_slope():
    # d(counterterm)/d(log Lambda) tends to pi for the unit-mass model
    lams = np.array([8.0, 16.0, 32.0, 64.0])
    vals = [ib.counterterm(np.zeros(2), lam, 1, GROSS).value for lam in lams]
    slope = float(np.polyfit(np.log(lams), vals, 1)[0])
    assert abs(slope - math.pi) <= 0.02 * math.pi


def test_counterterm_eckmann_closed_form():
    # at p=0 and unit masses: 2*pi*(asinh(L) - L/sqrt(1+L^2)) in d=3
    for lam in (1.0, 2.0):
        res = ib.counterterm(np.zeros(3), lam, 1, ECK)
        exact = 2.0 * math.pi * (math.asinh(lam) - lam / math.hypot(1.0, lam))
        assert abs(res.value - exact) <= 1e-8 * exact


def test_counterterm_rejections():
    with pytest.raises(ValueError):
        ib.counterterm(np.zeros(2), np.inf, 1, GROSS)
    with pytest.raises(ValueError):
        ib.counterterm(np.zeros(2), -1.0, 1, GROSS)
    with pytest.raises(ValueError):
        ib.counterterm(np.zeros(2), 1.0, 3, GROSS)
    zero = ib.counterterm(np.zeros(2), 0.0, 1, GROSS)
    assert zero.value == 0.0 and zero.n_evals == 0


# ---------------------------------------------------------------------------
# dispersion-shift integral J and diagonal integral I

def test_j_equals_difference_of_counterterm_variants():
    p2 = np.array([0.7, -0.3])
    for lam in (2.0, 5.0):
        e1 = ib.counterterm(p2, lam, 1, GROSS).value
        e2 = ib.counterterm(p2, lam, 2, GROSS).value
        j = ib.integral_J(p2, lam, GROSS).value
        assert abs(e1 - e2 - j) <= 1e-9 * max(1.0, abs(j))
    p3 = np.array([0.4, -0.2, 0.1])
    e1 = ib.counterterm(p3, 2.0, 1, ECK).value
    e2 = ib.counterterm(p3, 2.0, 2, ECK).value
    j = ib.integral_J(p3, 2.0, ECK).value
    assert abs(e1 - e2 - j) <= 1e-9 * max(1.0, abs(j))


def test_j_vanishes_at_zero_momentum():
    assert ib.integral_J(np.zeros(2), np.inf, GROSS).value == 0.0
    assert ib.integral_J(np.zeros(3), 3.0, ECK).value == 0.0


def test_i_is_minus_j_for_single_free_nucleon():
    # with no spectators and no shift the subtracted resolvent collapses
    for pn in (0.5, 1.0, 2.0, 4.0):
        p = np.array([pn, 0.0])
        j = ib.integral_J(p, np.inf, GROSS).value
        i = ib.integral_I(p, None, np.inf, 0, GROSS).value
        assert j > 0.0
        assert i <= 0.0
        assert abs(i + j) <= 1e-8 * max(1.0, j)


def test_i_decreases_with_bosons_and_shift():
    P = np.array([[0.8, 0.1]])
    vals = []
    for nb in range(3):
        K = np.tile(np.array([[0.5, 0.0]]), (nb, 1))
        vals.append(ib.integral_I(P, K, np.inf, 0, GROSS).value)
    assert vals[0] > vals[1] > vals[2]
    shifted = [ib.integral_I(P, None, np.inf, 0, GROSS, lambda_shift=lam).value
               for lam in (0.0, 1.0, 10.0)]
    assert shifted[0] > shifted[1] > shifted[2]


def test_i_multinucleon_spectator_bookkeeping():
    # a second nucleon's dispersion must enter exactly like an external
    # energy shift of the same size
    g2 = ib.gross_model(coupling=(1.0, 1.0), mu=1.0, m_boson=1.0, n_nucleons=2)
    P = np.array([[0.5, 0.0], [0.3, -0.4]])
    K = np.array([[0.25, 0.25]])
    rest = float(ib.dispersion_nucleon(P[0], g2)
                 + ib.dispersion_boson(K[0], g2))
    via_config = ib.integral_I(P, K, np.inf, 1, g2).value
    via_shift = ib.integral_I(P[1], None, np.inf, 0, GROSS,
                              lambda_shift=rest).value
    assert abs(via_config - via_shift) <= 1e-10 * max(1.0, abs(via_shift))


# ---------------------------------------------------------------------------
# growth-condition integral

def test_condition_b_zero_momentum_vanishes():
    assert ib.condition_b_lhs(np.zeros(2), 0.0, GROSS).value == 0.0


def test_condition_b_decreases_with_exterior_cutoff():
    p = np.array([1.0, 0.0])
    vals = [ib.condition_b_lhs(p, lam, GROSS).value
            for lam in (0.0, 1.0, 4.0, 16.0)]
    assert all(a > b for a, b in zip(vals[:-1], vals[1:]))
    assert vals[-1] > 0.0


def test_condition_b_growth_envelope():
    # growth slower than |p| at large |p| (unit exponent envelope)
    norms = (0.5, 1.0, 2.0, 4.0, 8.0)
    vals = [ib.condition_b_lhs(np.array([pn, 0.0]), 0.0, GROSS).value
            for pn in norms]
    ratios = [v / (pn + 1.0) for v, pn in zip(vals, norms)]
    assert max(ratios) < 1.0
    assert vals[-1] / vals[-2] < 2.0


def test_condition_b_eckmann_converges():
    v = ib.condition_b_lhs(np.array([2.0, 0.0, 0.0]), 1.0,
                           ib.eckmann_model(delta=0.2, coupling=1.0,
                                            mu=1.0, m_boson=1.0))
    assert v.value > 0.0
    assert v.abs_error_estimate < 1e-6


# ---------------------------------------------------------------------------
# scaling bound

CUSTOM_1D = ib.custom_model(d=1, alpha=0.25, beta=2.0, gamma=2.0,
                            coupling=1.0, mu=1.0, m_boson=1.0)
FLAT = ib.ScalingExponents(nu_exp=0.0, sigma_exp=0.0, r=1.0)


def test_scaling_lhs_closed_form_full_line():
    # int dk/(2k^2 + Om) over R = pi/sqrt(2 Om)
    for om in (0.5, 1.0, 4.0):
        v = ib.scaling_lhs(0.0, om, 0.0, FLAT, CUSTOM_1D)
        exact = math.pi / math.sqrt(2.0 * om)
        assert abs(v.value - exact) <= 2e-8 * exact


def test_scaling_lhs_closed_form_exterior():
    for lam in (1.0, 3.0):
        v = ib.scaling_lhs(0.0, 2.0, lam, FLAT, CUSTOM_1D)
        exact = math.pi / 2.0 - math.atan(lam)
        assert abs(v.value - exact) <= 2e-8 * exact


def test_scaling_compensated_ratio_is_constant():
    # beta = gamma: with Om = Lambda^gamma the compensated ratio is an
    # exact constant and the fit recovers it
    delta = 0.3
    lams = (2.0, 4.0, 8.0)
    pts = [dict(p=0.0, omega_shift=lam ** 2.0, lambda_uv=lam,
                exps=FLAT, params=CUSTOM_1D) for lam in lams]
    rep = ib.scaling_bound_fit(pts, delta=delta)
    exact = math.sqrt(2.0) * (math.pi / 2.0 - math.atan(math.sqrt(2.0)))
    assert rep.n_points == 3
    assert rep.monotone_in_lambda
    for r in rep.ratios:
        assert abs(r - exact) <= 1e-7 * exact
    assert abs(rep.fitted_c - exact) <= 1e-7 * exact


def test_scaling_uncompensated_decay_rate():
    # without the Lambda factor the ratio decays exactly like
    # Lambda^(-beta*delta)
    delta = 0.3
    lams = (2.0, 4.0, 8.0)
    un = [ib.scaling_lhs(0.0, lam ** 2, lam, FLAT, CUSTOM_1D).value
          * (lam ** 2) ** (1.0 - 0.5 - delta) for lam in lams]
    slope = ib.loglog_slope(lams, un)
    assert abs(slope - (-2.0 * delta)) <= 1e-6


def test_scaling_window_violation():
    with pytest.raises(ExponentWindowViolated):
        ib.scaling_lhs(0.0, 1.0, 0.0, ib.ScalingExponents(2.0, 0.0, 1.0),
                       CUSTOM_1D)
    with pytest.raises(ValueError):
        ib.scaling_bound_fit([dict(p=0.0, omega_shift=0.0, lambda_uv=2.0,
                                   exps=FLAT, params=CUSTOM_1D)])


def test_scaling_sigma_positive_tolerance_consistency():
    exps = ib.ScalingExponents(nu_exp=0.5, sigma_exp=0.6, r=1.5)
    p = np.array([0.5, 0.0])
    loose = ib.scaling_lhs(p, 1.0, 2.0, exps, GROSS)
    tight = ib.scaling_lhs(p, 1.0, 2.0, exps, GROSS,
                           epsabs=1e-11, epsrel=1e-10)
    assert abs(loose.value - tight.value) <= 1e-7 * abs(tight.value)


def test_loglog_slope_rejects_nonpositive():
    with pytest.raises(ValueError):
        ib.loglog_slope([1.0, 2.0], [1.0, -1.0])


# ---------------------------------------------------------------------------
# lattice twins

def test_grid_counterterm_converges_to_continuum():
    exact = ib.counterterm(np.zeros(2), 1.0, 1, GROSS).value
    errs, hs = [], []
    for n in (17, 33, 65, 129, 257):
        gr = ib.build_grid(2, 2.0, n)
        c = ib.point_index(gr, np.zeros(2))
        val = ib.counterterm_grid(np.array([c]), gr, 1.0, 1, GROSS)[0]
        errs.append(abs(val - exact))
        hs.append(gr.spacing)
    assert all(a > b for a, b in zip(errs[:-1], errs[1:]))
    assert ib.loglog_slope(hs, errs) >= 0.9


def test_grid_exchange_identities_exact():
    gr = ib.build_grid(2, 2.0, 33)
    ip = np.array([ib.point_index(gr, np.array([0.5, -0.25]))])
    e1 = ib.counterterm_grid(ip, gr, 1.0, 1, GROSS)
    e2 = ib.counterterm_grid(ip, gr, 1.0, 2, GROSS)
    j = ib.integral_j_grid(ip, gr, 1.0, GROSS)
    i0 = ib.integral_i_grid(ip, 0.0, gr, 1.0, GROSS)
    assert abs(e1 - e2 - j)[0] <= 1e-14
    assert abs(i0 + j)[0] <= 1e-14
    # an external shift and an equal spectator energy are the same number
    ia = ib.integral_i_grid(ip, 1.5, gr, 1.0, GROSS)
    ib_ = ib.integral_i_grid(ip, 0.0, gr, 1.0, GROSS, lambda_shift=1.5)
    assert abs(ia - ib_)[0] == 0.0


@settings(max_examples=25, deadline=None)
@given(flat=st.integers(min_value=0, max_value=120),
       lam=st.sampled_from([None, 0.5, 1.0, 2.5]))
def test_grid_identity_property(flat, lam):
    gr = ib.build_grid(2, 1.5, 11)
    ip = np.array([flat])
    e1 = ib.counterterm_grid(ip, gr, lam, 1, GROSS)
    e2 = ib.counterterm_grid(ip, gr, lam, 2, GROSS)
    j = ib.integral_j_grid(ip, gr, lam, GROSS)
    assert abs(e1 - e2 - j)[0] <= 1e-13


def test_grid_resolvent_decomposition():
    # integral_i_grid is exactly the resolvent sum minus the variant-1
    # counterterm at the same mask
    gr = ib.build_grid(2, 2.0, 17)
    ips = np.array([ib.point_index(gr, np.array([0.5, -0.25])),
                    ib.point_index(gr, np.zeros(2))])
    rests = np.array([0.7, 0.0])
    res = ib.resolvent_sum_grid(ips, rests, gr, 1.5, GROSS, lambda_shift=0.2)
    ref = ib.counterterm_grid(ips, gr, 1.5, 1, GROSS)
    ii = ib.integral_i_grid(ips, rests, gr, 1.5, GROSS, lambda_shift=0.2)
    assert np.max(np.abs(res - ref - ii)) <= 1e-14


def test_grid_mode_mask_conventions():
    gr = ib.build_grid(2, 2.0, 33)
    assert ib.grid_mode_mask(gr, None, GROSS).sum() == gr.size
    assert ib.grid_mode_mask(gr, 0.0, GROSS).sum() == 0
    inside = ib.grid_mode_mask(gr, 1.0, GROSS)
    assert 0 < inside.sum() < gr.size
    assert np.all(gr.norms()[inside] <= 1.0 + 1e-9)
    massless = ib.custom_model(d=2, alpha=0.5, beta=1.0, gamma=1.0,
                               coupling=1.0, mu=1.0, m_boson=0.0)
    assert ib.grid_mode_mask(gr, None, massless).sum() == gr.size - 1


def test_grid_massless_sum_is_finite():
    gr = ib.build_grid(2, 2.0, 17)
    massless = ib.custom_model(d=2, alpha=0.5, beta=1.0, gamma=1.0,
                               coupling=1.0, mu=1.0, m_boson=0.0)
    ip = np.array([ib.point_index(gr, np.array([0.5, 0.0]))])
    val = ib.counterterm_grid(ip, gr, None, 1, massless)
    assert np.isfinite(val[0]) and val[0] > 0.0


def test_grid_shift_constraint_matters_at_the_boundary():
    gr = ib.build_grid(2, 2.0, 33)
    corner = np.array([ib.point_index(gr, np.array([2.0, 2.0]))])
    constrained = ib.counterterm_grid(corner, gr, 1.0, 2, GROSS)[0]
    free = ib.counterterm_grid(corner, gr, 1.0, 2, GROSS,
                               constrain_shift=False)[0]
    assert free > constrained > 0.0


def test_grid_sums_vectorize():
    gr = ib.build_grid(2, 2.0, 33)
    c = ib.point_index(gr, np.zeros(2))
    ip = ib.point_index(gr, np.array([0.5, -0.25]))
    corner = ib.point_index(gr, np.array([2.0, 2.0]))
    block = ib.counterterm_grid(np.array([[c, ip], [corner, c]]),
                                gr, 1.0, 1, GROSS)
    assert block.shape == (2, 2)
    singles = [ib.counterterm_grid(np.array([i]), gr, 1.0, 1, GROSS)[0]
               for i in (c, ip, corner)]
    assert block[0, 0] == singles[0]
    assert block[0, 1] == singles[1]
    assert block[1, 0] == singles[2]
    rests = np.array([0.0, 1.0])
    iv = ib.integral_i_grid(np.array([c, ip]), rests, gr, 1.0, GROSS)
    assert iv.shape == (2,)
    assert iv[0] == 0.0 and iv[1] < 0.0


@pytest.mark.parametrize("constrain", [True, False])
def test_grid_sums_equal_per_index_evaluation(constrain):
    # the twins evaluate once per distinct lattice index; a repeated,
    # unsorted 2-D index array must give exactly the per-index values
    gr = ib.build_grid(3, 2.0, 5)
    ips = np.array([[7, 124, 62, 7], [0, 62, 124, 31], [31, 7, 0, 7]])
    rests = np.linspace(0.0, 2.0, ips.size).reshape(ips.shape)
    flat = list(zip(ips.ravel().tolist(), rests.ravel().tolist()))
    twins = [
        lambda p, r: ib.counterterm_grid(p, gr, 1.5, 1, ECK,
                                         constrain_shift=constrain),
        lambda p, r: ib.counterterm_grid(p, gr, 1.5, 2, ECK,
                                         constrain_shift=constrain),
        lambda p, r: ib.integral_j_grid(p, gr, None, ECK,
                                        constrain_shift=constrain),
        lambda p, r: ib.resolvent_sum_grid(p, r, gr, 1.5, ECK,
                                           lambda_shift=0.3,
                                           constrain_shift=constrain),
    ]
    for twin in twins:
        block = twin(ips, rests)
        singles = np.array([twin(p, r) for p, r in flat]).reshape(ips.shape)
        assert block.shape == ips.shape
        assert np.array_equal(block, singles)
