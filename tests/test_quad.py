"""Quadrature oracles: closed forms, exchange identities, lattice twins."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ibcfock as ib
from ibcfock import ops, quad
from ibcfock.errors import ExponentWindowViolated, QuadNotConverged

GROSS = ib.gross_model(coupling=1.0, mu=1.0, m_boson=1.0)
ECK = ib.eckmann_model(delta=0.0, coupling=1.0, mu=1.0, m_boson=1.0)


# ---------------------------------------------------------------------------
# engine sanity on exactly known integrals

def test_gaussian_integral_every_dimension():
    # int exp(-|k|^2) dk over R^d is pi^(d/2); a spurious angular break
    # point must not change the composite rule
    for d in (1, 2, 3):
        res = ib.axisymmetric_integral(lambda r, u: np.exp(-r * r), d,
                                       0.0, np.inf, u_kinks=(0.3,))
        exact = math.pi ** (d / 2.0)
        assert abs(res.value - exact) <= 1e-10 * exact
        assert res.value == res.inner_contribution + res.tail_contribution
        assert res.n_evals > 0


def test_non_power_tail_refused():
    # 1/(r log^2 r) decays too slowly for the power-law tail model
    with pytest.raises(QuadNotConverged):
        ib.axisymmetric_integral(
            lambda r, u: 1.0 / ((r + 2.0) * np.log(r + 2.0) ** 2),
            1, 0.0, np.inf)


def test_gauss_kronrod_pair_exactness():
    # K21 integrates polynomials to degree 31 and its G10 subset to
    # degree 19 exactly on [-1, 1]
    for k in range(32):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(quad._WK @ quad._XK ** k - exact) <= 1e-15
        if k < 20:
            assert abs(quad._WGAUSS @ quad._XK ** k - exact) <= 1e-15
    assert np.count_nonzero(quad._WGAUSS) == 10


def test_panel_budget_exhaustion_raises():
    # infinitely many oscillations at r = 0: no panel set reaches the
    # tolerance, and the engine must say so instead of returning
    with pytest.raises(QuadNotConverged, match="panels"):
        ib.axisymmetric_integral(
            lambda r, u: np.sin(1.0 / (r * r + 1e-300)) / (r + 1e-3),
            1, 0.0, 1.0)


def test_non_finite_integrand_raises():
    with pytest.raises(QuadNotConverged, match="not finite"):
        ib.axisymmetric_integral(
            lambda r, u: np.where(r > 0.5, np.inf, 1.0), 1, 0.0, 1.0)


@pytest.mark.parametrize("d, hi", [(1, np.inf), (2, np.inf), (3, 4.0)])
def test_n_evals_counts_every_point(d, hi):
    # tails included: the count is the number of (r, u) points the
    # integrand saw, over every angular level and tail sample
    seen = []

    def counting(r, u):
        assert r.shape == u.shape
        seen.append(r.size)
        return 1.0 / (1.0 + r * r) ** 3 * (1.5 + u)

    res = ib.axisymmetric_integral(counting, d, 0.5, hi,
                                   kinks=lambda u: (1.0 + u,))
    assert res.n_evals == sum(seen) > 0
    if hi == np.inf:
        assert res.tail_contribution > 0.0


def _modules_after(code: str, names) -> str:
    """Run code in a fresh interpreter on this checkout and return the
    printed list of the named modules it left in sys.modules."""
    code = ("import sys\n" + code +
            "print([m for m in %r if m in sys.modules])\n" % (tuple(names),))
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_leaves_scipy_integrate_and_optimize_out():
    # neither the package nor its continuum integrals need
    # scipy.integrate, which would also load scipy.optimize
    code = ("import numpy as np\n"
            "import ibcfock.cli\n"
            "import ibcfock as ib\n"
            "g = ib.gross_model()\n"
            "lams = (1.0, 2.0, 4.0)\n"
            "ib.divergence_fit(lams, [ib.counterterm(np.zeros(2), l, 1, g)"
            ".value for l in lams])\n"
            "ib.condition_b_lhs(np.array([1.0, 0.0]), 1.0, g)\n")
    assert _modules_after(code, ("scipy.integrate", "scipy.optimize")) == "[]"


def test_import_leaves_scipy_special_out():
    # the angular Gauss rules are numpy-only (Golub-Welsch, leggauss)
    assert _modules_after("import ibcfock.cli\n", ("scipy.special",)) == "[]"


def test_gauss_jacobi_integrates_polynomials_exactly():
    # an n-point rule is exact to degree 2n - 1; the moments of
    # (1-x)^a (1+x)^b against (1+x)^j are Beta functions
    for alpha, beta in ((-0.5, -0.5), (0.0, -0.5), (-0.5, 0.0), (0.0, 0.0),
                        (0.5, 0.5), (0.0, 0.5)):
        for n in (1, 2, 5, 16, 64, 128):
            x, w = quad._gauss_jacobi(n, alpha, beta)
            assert np.all(np.diff(x) > 0) and np.all(w > 0)
            assert -1.0 < x[0] and x[-1] < 1.0
            for j in sorted({0, 1, n, 2 * n - 1}):
                # in logs: the moment of degree 255 is about 2^256
                want = ((alpha + beta + j + 1) * math.log(2.0)
                        + math.lgamma(alpha + 1) + math.lgamma(beta + j + 1)
                        - math.lgamma(alpha + beta + j + 2))
                got = math.log(float(w @ (1.0 + x) ** j))
                assert abs(got - want) <= 1e-12, (alpha, beta, n, j)


# ---------------------------------------------------------------------------
# power tail

@settings(max_examples=40, deadline=None)
@given(q=st.floats(min_value=1.05, max_value=6.0, exclude_min=True),
       d=st.sampled_from([1, 2, 3]))
def test_power_tail_property(q, d):
    # the engine sees the radial profile r^(d-1) r^(-q), a power law of
    # exponent qe = q - d + 1, and tries its tail first at r0 = 8
    qe = q - d + 1.0
    r0 = 8.0
    inner = ((1.0 - r0 ** (1.0 - qe)) / (qe - 1.0) if qe != 1.0
             else math.log(r0))
    floor = 0.5 * max(quad.EPSABS_DEFAULT, quad.EPSREL_DEFAULT * abs(inner))
    tail, guess, usable = quad._power_tail(lambda r: r ** -qe,
                                           np.array([r0]), np.array([floor]))
    if usable[0]:
        exact = r0 ** (1.0 - qe) / (qe - 1.0)
        # guess covers the model error; its 1e-16 floor does not cover
        # the rounding of the measured exponent, which reaches a few
        # 1e-15 relative as qe nears 1.05
        assert abs(tail[0] - exact) <= guess[0] + 1e-13 * exact
        res = ib.axisymmetric_integral(lambda r, u: r ** -q, d, 1.0, np.inf)
        area = 2.0 if d == 1 else 2.0 * math.pi if d == 2 else 4.0 * math.pi
        whole = area / (qe - 1.0)
        assert abs(res.value - whole) <= res.abs_error_estimate
    else:
        with pytest.raises(QuadNotConverged):
            ib.axisymmetric_integral(lambda r, u: r ** -q, d, 1.0, np.inf)


def test_slow_power_tail_is_not_counted_negligible():
    # for r^-q with q below about 1.15 the crude bound 4 r0 (|f0|+|f1|+|f2|)
    # sits below the tail itself, so the tail must be measured, not dropped
    r0, q = 8.0, 1.06
    tail, guess, usable = quad._power_tail(lambda r: 1e-11 * r ** -q,
                                           np.array([r0]), np.array([5e-10]))
    exact = 1e-11 * r0 ** (1.0 - q) / (q - 1.0)
    assert usable[0]
    assert abs(tail[0] - exact) <= guess[0] + 1e-13 * exact


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


def tighten_engine(monkeypatch, **engine):
    """Run every later quadrature of the test with these engine settings:
    the integrals look axisymmetric_integral up when they are called."""
    plain = quad.axisymmetric_integral
    monkeypatch.setattr(quad, "axisymmetric_integral",
                        lambda *args, **kw: plain(*args, **{**kw, **engine}))


def test_condition_b_angular_test_clears_radial_noise(monkeypatch):
    # the first momentum `check` samples for gross at coupling 0.5, seed 0:
    # radial integrals that each met the whole epsabs summed to ~4e-9 of
    # noise, and every angular doubling up to n = 512 differed by
    # 1.5e-9 to 6.3e-9, above the 1e-9 angular tolerance
    params = ib.gross_model(coupling=0.5)
    p = np.array([0.18859533164008996, -0.19815729493695283])
    res = ib.condition_b_lhs(p, 1.0, params)
    tighten_engine(monkeypatch, epsabs=1e-12, epsrel=1e-11,
                   n_angular_max=2048)
    ref = ib.condition_b_lhs(p, 1.0, params)
    assert res.abs_error_estimate <= quad.EPSABS_DEFAULT
    assert abs(res.value - ref.value) <= quad.EPSABS_DEFAULT


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


def test_scaling_sigma_positive_tolerance_consistency(monkeypatch):
    exps = ib.ScalingExponents(nu_exp=0.5, sigma_exp=0.6, r=1.5)
    p = np.array([0.5, 0.0])
    loose = ib.scaling_lhs(p, 1.0, 2.0, exps, GROSS)
    tighten_engine(monkeypatch, epsabs=1e-11, epsrel=1e-10)
    tight = ib.scaling_lhs(p, 1.0, 2.0, exps, GROSS)
    assert abs(loose.value - tight.value) <= 1e-7 * abs(tight.value)


def test_error_estimate_bounds_every_closed_form_error():
    # the exactly known integrals of this file: the reported estimate
    # covers the true error of each
    line = math.pi ** 0.5
    cases = [(ib.axisymmetric_integral(lambda r, u: np.exp(-r * r), d, 0.0,
                                       np.inf, u_kinks=(0.3,)), line ** d)
             for d in (1, 2, 3)]
    cases += [(ib.counterterm(np.zeros(2), lam, 1, GROSS),
               0.5 * math.pi * math.log1p(lam * lam))
              for lam in (1.0, 2.0, 4.0, 8.0, 16.0)]
    cases += [(ib.counterterm(np.zeros(3), lam, 1, ECK),
               2.0 * math.pi * (math.asinh(lam) - lam / math.hypot(1.0, lam)))
              for lam in (1.0, 2.0)]
    cases += [(ib.scaling_lhs(0.0, om, 0.0, FLAT, CUSTOM_1D),
               math.pi / math.sqrt(2.0 * om)) for om in (0.5, 1.0, 4.0)]
    cases += [(ib.scaling_lhs(0.0, 2.0, lam, FLAT, CUSTOM_1D),
               math.pi / 2.0 - math.atan(lam)) for lam in (1.0, 3.0)]
    for res, exact in cases:
        assert abs(res.value - exact) <= res.abs_error_estimate, (res, exact)


FAMILIES = {"gross": GROSS, "eckmann": ib.eckmann_model(delta=0.2),
            "nelson": ib.nelson_model(mu=1.0)}


def improper_integrals(params, p_norm):
    """The growth integral at exterior cutoffs 0 and 2, and J and I
    (shift 1) over all of R^d, at momentum |p| = p_norm."""
    p = np.zeros(params.d)
    p[0] = p_norm
    return ([ib.condition_b_lhs(p, lam, params) for lam in (0.0, 2.0)]
            + [ib.integral_J(p, np.inf, params),
               ib.integral_I(p, None, np.inf, 0, params, lambda_shift=1.0)])


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_error_estimate_covers_improper_integrals(family, monkeypatch):
    # the power tail and the angular doubling of each family: the reported
    # estimate covers the distance to the same integral at a far tighter
    # engine
    params = FAMILIES[family]
    for p_norm in (0.5, 2.5):
        got = improper_integrals(params, p_norm)
        with monkeypatch.context() as tight:
            tighten_engine(tight, epsabs=1e-13, epsrel=1e-12,
                           n_angular_max=2048)
            ref = improper_integrals(params, p_norm)
        for g, r in zip(got, ref):
            assert abs(g.value - r.value) <= g.abs_error_estimate, (g, r)


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
    # the resolvent sum minus the variant-1 counterterm is the cell sum of I
    i0 = ib.resolvent_sum_grid(ip, 0.0, gr, 1.0, GROSS) - e1
    assert abs(e1 - e2 - j)[0] <= 1e-14
    assert abs(i0 + j)[0] <= 1e-14
    # an external shift and an equal spectator energy are the same number,
    # up to the order in which the denominator adds them
    ia = ib.resolvent_sum_grid(ip, 1.5, gr, 1.0, GROSS)
    ib_ = ib.resolvent_sum_grid(ip, 0.0, gr, 1.0, GROSS, lambda_shift=1.5)
    assert abs(ia - ib_)[0] <= 1e-14


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


@pytest.mark.parametrize("lam", [np.nan, -1.0, -np.inf])
def test_grid_mode_mask_refuses_nan_and_negative_cutoffs(lam):
    gr = ib.build_grid(2, 2.0, 5)
    with pytest.raises(ValueError, match="cutoff"):
        ib.grid_mode_mask(gr, lam, GROSS)
    with pytest.raises(ValueError):
        ib.counterterm_grid(np.array([0]), gr, lam, 1, GROSS)


def test_grid_massless_sum_is_finite():
    gr = ib.build_grid(2, 2.0, 17)
    massless = ib.custom_model(d=2, alpha=0.5, beta=1.0, gamma=1.0,
                               coupling=1.0, mu=1.0, m_boson=0.0)
    ip = np.array([ib.point_index(gr, np.array([0.5, 0.0]))])
    val = ib.counterterm_grid(ip, gr, None, 1, massless)
    assert np.isfinite(val[0]) and val[0] > 0.0


def test_grid_shift_constraint_matters_at_the_boundary():
    # at the (2, 2) corner the sum runs only over the modes whose recoil
    # p - q stays on the lattice; some modes inside the cutoff drop out
    gr = ib.build_grid(2, 2.0, 33)
    p = np.array([2.0, 2.0])
    corner = np.array([ib.point_index(gr, p)])
    want, dropped = 0.0, 0
    for q in gr.points[gr.norms() <= 1.0 + 1e-12]:
        if np.max(np.abs(p - q)) > gr.k_max + 1e-9:
            dropped += 1
            continue
        v = ib.form_factor(0, p - q, q, GROSS)
        want += gr.cell_weight * abs(v) ** 2 / (
            ib.dispersion_nucleon(p - q, GROSS)
            + ib.dispersion_boson(q, GROSS))
    assert dropped > 0
    got = ib.counterterm_grid(corner, gr, 1.0, 2, GROSS)[0]
    assert got > 0.0
    assert abs(got - want) <= 1e-12 * want


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
    iv = (ib.resolvent_sum_grid(np.array([c, ip]), rests, gr, 1.0, GROSS)
          - ib.counterterm_grid(np.array([c, ip]), gr, 1.0, 1, GROSS))
    assert iv.shape == (2,)
    assert iv[0] == 0.0 and iv[1] < 0.0


def test_grid_sums_equal_per_index_evaluation():
    # the twins evaluate once per distinct lattice index; a repeated,
    # unsorted 2-D index array must give exactly the per-index values
    gr = ib.build_grid(3, 2.0, 5)
    ips = np.array([[7, 124, 62, 7], [0, 62, 124, 31], [31, 7, 0, 7]])
    rests = np.linspace(0.0, 2.0, ips.size).reshape(ips.shape)
    flat = list(zip(ips.ravel().tolist(), rests.ravel().tolist()))
    twins = [
        lambda p, r: ib.counterterm_grid(p, gr, 1.5, 1, ECK),
        lambda p, r: ib.counterterm_grid(p, gr, 1.5, 2, ECK),
        lambda p, r: ib.integral_j_grid(p, gr, None, ECK),
        lambda p, r: ib.resolvent_sum_grid(p, r, gr, 1.5, ECK,
                                           lambda_shift=0.3),
    ]
    for twin in twins:
        block = twin(ips, rests)
        singles = np.array([twin(p, r) for p, r in flat]).reshape(ips.shape)
        assert block.shape == ips.shape
        assert np.array_equal(block, singles)


def test_kept_shift_data_give_the_sums_built_afresh():
    # inside a scope (nested here) every twin, at every cutoff, is bit for
    # bit what it is outside one; the store ends with the outer scope
    gr = ib.build_grid(2, 2.0, 9)
    ips = np.array([[7, 40, 40], [0, 80, 13]])
    rests = np.linspace(0.0, 2.0, ips.size).reshape(ips.shape)
    twins = [
        lambda lam: ib.counterterm_grid(ips, gr, lam, 1, ECK),
        lambda lam: ib.counterterm_grid(ips, gr, lam, 2, ECK),
        lambda lam: ib.integral_j_grid(ips, gr, lam, ECK),
        lambda lam: ib.resolvent_sum_grid(ips, rests, gr, lam, ECK,
                                          lambda_shift=0.3),
    ]
    lams = (0.0, 0.7, 1.5, None)
    fresh = [twin(lam) for twin in twins for lam in lams]
    with quad._shift_data_kept():
        with quad._shift_data_kept():
            kept = [twin(lam) for twin in twins for lam in lams]
        assert len(quad._KEPT_SHIFTS.get()) == 1
    assert quad._KEPT_SHIFTS.get() is None
    for a, b in zip(fresh, kept):
        assert np.array_equal(a, b)


def test_kept_shift_data_are_keyed_by_the_model_object():
    # equal CUSTOM models may differ in their callables, so two bases on
    # one grid must each get their own counterterm rows in one scope
    gr = ib.build_grid(2, 2.0, 9)

    def model(scale):
        return ib.custom_model(
            d=2, alpha=0.5, beta=1.0, gamma=1.0, mu=1.0,
            form_factor_fn=lambda p, k: scale / (1.0 + np.sum(k * k, axis=-1)))

    bases = [ib.enumerate_basis(model(s), gr, 1) for s in (1.0, 2.0)]
    assert bases[0].params == bases[1].params
    fresh = [ops._counterterm_rows(b, 1.5, 1) for b in bases]
    assert not np.array_equal(*fresh)
    with quad._shift_data_kept():
        kept = [ops._counterterm_rows(b, 1.5, 1) for b in bases]
    for a, b in zip(fresh, kept):
        assert np.array_equal(a, b)
