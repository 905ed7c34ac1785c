"""Tests for model parameters, dispersions, form factors and checkers."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import ibcfock as ib
from ibcfock.errors import (
    ConditionCViolated,
    EckmannMassless,
    EpsilonTooLarge,
    MasslessNucleon,
)


# ---------------------------------------------------------------------------
# dispersions

def test_nucleon_dispersion_values():
    g = ib.gross_model(mu=1.0)
    assert ib.dispersion_nucleon([0.0, 0.0], g) == 1.0
    g0 = ib.gross_model(mu=0.0)
    assert ib.dispersion_nucleon([3.0, 4.0], g0) == 5.0
    # nonrelativistic reference kind is quadratic
    n = ib.nelson_model(mu=0.0)
    assert ib.dispersion_nucleon([3.0, 4.0, 0.0], n) == 25.0


def test_nucleon_dispersion_lower_bound_sampled():
    rng = np.random.default_rng(0)
    p = rng.standard_normal((10000, 2)) * 5.0
    g = ib.gross_model(mu=1.0)
    theta = ib.dispersion_nucleon(p, g)
    assert np.all(theta >= np.linalg.norm(p, axis=-1))


def test_boson_dispersion_values():
    g = ib.gross_model()
    assert ib.dispersion_boson([0.0, 0.0], g) == 1.0
    g0 = ib.gross_model(m_boson=0.0)
    assert ib.dispersion_boson([0.0, 0.0], g0) == 0.0
    # massive case: omega(k) = (1+k^2)^(1/2) exactly for unit mass, beta=1
    rng = np.random.default_rng(1)
    k = rng.standard_normal((100, 2)) * 3.0
    omega = ib.dispersion_boson(k, g)
    np.testing.assert_allclose(omega, np.sqrt(1.0 + np.sum(k * k, axis=-1)), rtol=0, atol=0)


def test_norm_variants_agree_with_vector_forms():
    e = ib.eckmann_model()
    r = np.array([0.0, 0.5, 2.0, 7.5])
    p = np.zeros((4, 3))
    p[:, 0] = r
    np.testing.assert_allclose(ib.dispersion_nucleon_norm(r, e),
                               ib.dispersion_nucleon(p, e), rtol=1e-15)
    np.testing.assert_allclose(ib.dispersion_boson_norm(r, e),
                               ib.dispersion_boson(p, e), rtol=1e-15)


# ---------------------------------------------------------------------------
# form factors

def test_form_factor_values():
    g = ib.gross_model()
    assert ib.form_factor(0, [0.5, -0.5], [0.0, 0.0], g) == 1.0 + 0.0j
    e = ib.eckmann_model(mu=1.0, m_boson=1.0)
    assert ib.form_factor(0, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], e) == 1.0 + 0.0j


def test_form_factor_couplings_scale():
    g = ib.gross_model(coupling=2.0 - 1.0j)
    amp = ib.form_factor(0, [0.0, 0.0], [0.0, 0.0], g)
    assert amp == 2.0 - 1.0j


def test_eckmann_massless_rejected():
    with pytest.raises(EckmannMassless):
        ib.eckmann_model(mu=0.0)


def test_shift_symmetry_all_builtin_kinds():
    models = [ib.gross_model(), ib.eckmann_model(), ib.nelson_model(),
              ib.custom_model(d=2, alpha=0.475, beta=0.8, gamma=1.0, mu=1.0)]
    for m in models:
        rep = ib.check_condition_a(m, n_samples=4000, seed=3)
        assert rep.max_symmetry_violation <= 1e-12


def test_ff_sq_axial_matches_explicit_vectors():
    e = ib.eckmann_model(mu=1.0)
    p_norm, cos_angle = 1.5, 0.3
    k_norm = np.array([0.2, 1.0, 4.0])
    got = ib.ff_sq_axial(0, p_norm, k_norm, cos_angle, e)
    s = np.sqrt(1.0 - cos_angle ** 2)
    p = np.array([p_norm, 0.0, 0.0])
    k = np.stack([k_norm * cos_angle, k_norm * s, np.zeros(3)], axis=-1)
    want = np.abs(ib.form_factor(0, p, k, e)) ** 2
    np.testing.assert_allclose(got, want, rtol=1e-14)


# ---------------------------------------------------------------------------
# derived exponents

def test_ultraviolet_degree_named_models():
    assert ib.ultraviolet_degree(ib.gross_model()).uv_degree == 0.0
    assert ib.ultraviolet_degree(ib.eckmann_model(delta=0.0)).uv_degree == 0.0
    np.testing.assert_allclose(
        ib.ultraviolet_degree(ib.eckmann_model(delta=0.1)).uv_degree, 0.1, atol=1e-15)
    assert ib.ultraviolet_degree(ib.nelson_model()).uv_degree == 0.0


def test_ultraviolet_degree_is_exact_arithmetic():
    m = ib.custom_model(d=3, alpha=0.7, beta=0.9, gamma=1.1)
    ex = ib.ultraviolet_degree(m)
    assert ex.uv_degree + 2 * m.alpha + m.gamma - m.d == pytest.approx(0.0, abs=1e-15)


def test_check_condition_c():
    rep = ib.check_condition_c(ib.gross_model())
    assert rep.holds and rep.uv_degree == 0.0 and rep.bound == pytest.approx(1.0 / 3.0)
    # gamma=1, beta=0.8, uv_degree=0.05: bound = 0.64/2.64
    m = ib.custom_model(d=2, alpha=0.475, beta=0.8, gamma=1.0)
    rep = ib.check_condition_c(m)
    assert rep.holds and rep.bound == pytest.approx(8.0 / 33.0, rel=1e-15)
    # gamma=beta=1, uv_degree=0.4 >= 1/3 fails
    bad = ib.custom_model(d=3, alpha=0.8, beta=1.0, gamma=1.0)
    rep = ib.check_condition_c(bad)
    assert not rep.holds and rep.uv_degree == pytest.approx(0.4)


def test_u_map():
    ident = ib.custom_model(d=2, alpha=0.5, beta=1.0, gamma=1.0)  # uv_degree = 0
    assert ib.u_map(1.0, ident) == 1.0
    m = ib.custom_model(d=3, alpha=0.9, beta=1.0, gamma=1.0)  # uv_degree = 0.2
    assert ib.u_map(0.5, m) == pytest.approx(0.3)
    fam = ib.custom_model(d=2, alpha=0.475, beta=0.8, gamma=1.0)  # uv_degree = 0.05
    assert ib.u_map(1.3125, fam) == pytest.approx(1.0, abs=1e-14)


# ---------------------------------------------------------------------------
# sampled pointwise checks

def test_condition_a_gross():
    rep = ib.check_condition_a(ib.gross_model(), n_samples=10000, seed=0)
    assert rep.max_symmetry_violation == 0.0  # v independent of p
    assert rep.max_bound_violation <= 1e-12
    # |v| |k|^(1/2) = (k^2/(k^2+1))^(1/4) < 1
    assert rep.fitted_c <= 1.0 + 1e-12


def test_condition_a_eckmann_fitted_constant():
    rep = ib.check_condition_a(ib.eckmann_model(mu=1.0), n_samples=20000, seed=0)
    assert rep.max_symmetry_violation <= 1e-12
    assert rep.max_bound_violation <= 1e-12
    assert rep.fitted_c <= 2.0 ** 0.25 + 1e-12


def test_condition_a_detects_asymmetric_plugin():
    # constructed counterexample: v depends on p in a non-covariant way
    def skew(p, k):
        return 1.0 / (1.0 + np.sum(k * k, axis=-1)) + 0.1 * p[..., 0]

    m = ib.custom_model(d=2, alpha=0.5, beta=1.0, gamma=1.0, form_factor_fn=skew)
    rep = ib.check_condition_a(m, n_samples=500, seed=0)
    assert rep.max_symmetry_violation > 1e-3


def test_condition_a_reports_dispersion_shortfall():
    # omega = (k^2 + 0.25)^(1/2) drops below (1+k^2)^(1/2): massive bound fails
    m = ib.custom_model(d=2, alpha=0.5, beta=1.0, gamma=1.0, m_boson=0.5)
    rep = ib.check_condition_a(m, n_samples=2000, seed=0)
    assert rep.max_bound_violation > 0.1


def test_condition_a_deterministic_in_seed():
    a = ib.check_condition_a(ib.eckmann_model(), n_samples=1000, seed=7)
    b = ib.check_condition_a(ib.eckmann_model(), n_samples=1000, seed=7)
    assert a == b


# ---------------------------------------------------------------------------
# admissible auxiliary exponents

def test_admissible_s_range_interval():
    rng = ib.admissible_s_range(ib.gross_model())
    assert rng.is_interval and (rng.lower, rng.upper) == (0.0, 1.0)
    m = ib.custom_model(d=3, alpha=0.85, beta=1.0, gamma=1.0)  # uv_degree = 0.3
    rng = ib.admissible_s_range(m)
    assert rng.lower == pytest.approx(0.6) and rng.upper == pytest.approx(1.3)
    # endpoint images under the affine map
    assert ib.u_map(rng.lower, m) == pytest.approx(0.3)
    assert ib.u_map(rng.upper, m) == pytest.approx(1.0)


def test_admissible_s_range_rejects_bad_exponents():
    bad = ib.custom_model(d=3, alpha=0.8, beta=1.0, gamma=1.0)  # uv_degree = 0.4
    with pytest.raises(ConditionCViolated):
        ib.admissible_s_range(bad)


def test_admissible_s_range_family_descriptor():
    m = ib.custom_model(d=2, alpha=0.475, beta=0.8, gamma=1.0)
    rng = ib.admissible_s_range(m)
    assert not rng.is_interval
    assert rng.s1 == pytest.approx(1.3125) and rng.s2 == pytest.approx(4.25)


def test_appendix_family_worked_example():
    m = ib.custom_model(d=2, alpha=0.475, beta=0.8, gamma=1.0)
    fam = ib.appendix_parameter_family(m, 0.01)
    assert fam.case_id == 1
    assert fam.s == pytest.approx(1.3025) and fam.sigma == pytest.approx(1.3025)
    assert fam.delta1 == pytest.approx(0.3105)
    assert fam.delta2 == 0.0
    assert ib.u_map(fam.s, m) == pytest.approx(0.992)
    assert ib.u_map(ib.u_map(fam.s, m), m) == pytest.approx(0.7436)


def test_appendix_family_epsilon_too_large():
    m = ib.custom_model(d=2, alpha=0.475, beta=0.8, gamma=1.0)
    with pytest.raises(EpsilonTooLarge):
        ib.appendix_parameter_family(m, 2.0)


def test_appendix_family_requires_beta_below_gamma():
    with pytest.raises(ValueError):
        ib.appendix_parameter_family(ib.gross_model(), 0.01)


def test_appendix_family_degree_zero():
    # exact uv_degree = 0 with beta < gamma routes to case 1
    m = ib.custom_model(d=2, alpha=0.5, beta=0.8, gamma=1.0)
    assert ib.ultraviolet_degree(m).uv_degree == 0.0
    fam = ib.appendix_parameter_family(m, 1e-3)
    assert fam.case_id == 1
    assert fam.s == pytest.approx(1.25 - 1e-3)


@settings(max_examples=80, deadline=None)
@given(gamma=st.floats(0.5, 2.5),
       beta_frac=st.floats(0.35, 0.97),
       deg_frac=st.floats(0.0, 0.95))
def test_appendix_family_inequalities_hold(gamma, beta_frac, deg_frac):
    # sweep the admissible exponent region; a small epsilon must always work
    beta = gamma * beta_frac
    bound = gamma * beta ** 2 / (beta ** 2 + 2 * gamma ** 2)
    deg = bound * deg_frac
    alpha = (4.0 - gamma - deg) / 2.0
    m = ib.custom_model(d=4, alpha=alpha, beta=beta, gamma=gamma)
    # reconstructing alpha can push the degree a few ulp past the window edge
    assume(ib.check_condition_c(m).holds)
    fam = ib.appendix_parameter_family(m, 1e-6)
    assert fam.case_id in (1, 2, 3)
    assert fam.s > 0 and fam.sigma >= 0
    assert ib.u_map(fam.s, m) < 1
    assert ib.u_map(ib.u_map(fam.s, m), m) > 0
    assert fam.delta1 < 1 and fam.delta2 < 1


# ---------------------------------------------------------------------------
# kinematic bound for the momentum-dependent form factor

def test_kinematic_bound_constant():
    rep = ib.eckmann_kinematic_bound(1.0, n_samples=100000, seed=0)
    np.testing.assert_allclose(rep.c_analytic, 1.189207115002721, rtol=1e-15)
    assert rep.holds
    assert rep.max_ratio <= rep.c_analytic


def test_kinematic_bound_other_masses_and_delta():
    for mu in (0.5, 2.0):
        rep = ib.eckmann_kinematic_bound(mu, delta=0.2, n_samples=30000, seed=1)
        assert rep.holds
        np.testing.assert_allclose(rep.c_analytic, (mu ** -2 + mu ** -4) ** 0.25)


def test_kinematic_bound_rejects_massless():
    with pytest.raises(MasslessNucleon):
        ib.eckmann_kinematic_bound(0.0)


# ---------------------------------------------------------------------------
# parameter validation

def test_validate_rejects_bad_records():
    with pytest.raises(ValueError):
        ib.ModelParams(ib.ModelKind.GROSS, d=3, n_nucleons=1, alpha=0.5,
                       beta=1.0, gamma=1.0, mu=1.0, m_boson=1.0, couplings=(1.0,))
    with pytest.raises(ValueError):
        ib.custom_model(d=2, alpha=0.5, beta=1.5, gamma=1.0)  # beta > gamma
    with pytest.raises(ValueError):
        ib.custom_model(d=2, alpha=1.0, beta=1.0, gamma=1.0)  # alpha >= d/2
    with pytest.raises(ValueError):
        ib.ModelParams(ib.ModelKind.CUSTOM, d=2, n_nucleons=2, alpha=0.5,
                       beta=1.0, gamma=1.0, mu=0.0, m_boson=1.0, couplings=(1.0,))


@pytest.mark.parametrize("field", ["alpha", "beta", "gamma", "mu", "m_boson",
                                   "coupling"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validate_rejects_non_finite_records(field, bad):
    # nan fails every comparison, so "mu < 0" let it through
    kw = dict(d=3, alpha=0.5, beta=1.0, gamma=2.0, mu=1.0, m_boson=1.0,
              coupling=1.0)
    kw[field] = bad
    with pytest.raises(ValueError, match="finite"):
        ib.custom_model(**kw)
    if field in ("mu", "m_boson", "coupling"):
        with pytest.raises(ValueError, match="finite"):
            ib.gross_model(**{field: bad})
    with pytest.raises(ValueError, match="finite"):
        ib.nelson_model(coupling=[1.0, complex(0.0, bad)], n_nucleons=2)


def test_couplings_spread_and_explicit():
    m = ib.gross_model(coupling=0.5, n_nucleons=3)
    assert m.couplings == (0.5 + 0j,) * 3
    m = ib.nelson_model(coupling=[1.0, 1.0j], n_nucleons=2)
    assert m.couplings == (1.0 + 0j, 1.0j)
