"""Model definitions: dispersion relations, form factors, derived exponents.

A model couples M nucleons to a scalar boson field.  The nucleon
dispersion grows like |p|^gamma, the boson dispersion like |k|^beta, and
the form factor decays like |k|^(-alpha).  The ultraviolet degree

    uv_degree = d - 2*alpha - gamma

controls how singular the coupling is; the operator construction
downstream requires 0 <= uv_degree < gamma*beta^2/(beta^2 + 2*gamma^2).

This module holds the immutable parameter records, the built-in model
kinds, and executable checkers for the pointwise hypotheses (form-factor
symmetry and decay, dispersion lower bounds, exponent inequalities, and
the admissible-exponent bookkeeping used for the regularity analysis).
All checkers are pure functions of their arguments; sampled checks take
an explicit seed and are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import (
    ConditionCViolated,
    EckmannMassless,
    EpsilonTooLarge,
    MasslessNucleon,
)


class ModelKind(str, Enum):
    GROSS = "Gross"
    ECKMANN = "Eckmann"
    NELSON_REFERENCE = "NelsonReference"
    CUSTOM = "Custom"


@dataclass(frozen=True)
class ModelParams:
    """Immutable description of one nucleon-boson coupling model.

    couplings holds one complex constant per nucleon; different nucleons
    may couple with different strengths and phases.  For kind=CUSTOM the
    optional callables override the built-in dispersions / form factor:
    theta_fn(p) and omega_fn(k) map arrays of shape (..., d) to energies
    of shape (...), form_factor_fn(p, k) broadcasts p against k and
    returns the complex amplitude without the coupling constant.
    """

    kind: ModelKind
    d: int
    n_nucleons: int
    alpha: float
    beta: float
    gamma: float
    mu: float
    m_boson: float
    couplings: tuple
    theta_fn: Optional[Callable] = field(default=None, compare=False)
    omega_fn: Optional[Callable] = field(default=None, compare=False)
    form_factor_fn: Optional[Callable] = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "couplings", tuple(complex(g) for g in self.couplings))
        validate_params(self)


@dataclass(frozen=True)
class DerivedExponents:
    """Exponents derived from a parameter record.

    uv_degree = d - 2*alpha - gamma, u_slope = beta/gamma, and
    cond_c_bound = gamma*beta^2/(beta^2 + 2*gamma^2) is the strict upper
    bound on uv_degree required by the exponent condition.
    """

    uv_degree: float
    u_slope: float
    cond_c_bound: float


def validate_params(params: ModelParams) -> None:
    """Raise if the record violates a structural invariant."""
    if params.d < 1 or int(params.d) != params.d:
        raise ValueError("d must be a positive integer")
    if params.n_nucleons < 1:
        raise ValueError("n_nucleons must be a positive integer")
    if not np.isfinite([params.alpha, params.beta, params.gamma, params.mu,
                        params.m_boson, *params.couplings]).all():
        raise ValueError("exponents, masses and couplings must be finite")
    if not 0 <= params.alpha < params.d / 2:
        raise ValueError("alpha must lie in [0, d/2)")
    if not 0 < params.beta <= params.gamma:
        raise ValueError("beta must lie in (0, gamma]")
    if params.mu < 0 or params.m_boson < 0:
        raise ValueError("masses must be nonnegative")
    if len(params.couplings) != params.n_nucleons:
        raise ValueError("need one coupling constant per nucleon")
    if params.kind == ModelKind.GROSS and params.d != 2:
        raise ValueError("Gross kind requires d=2")
    if params.kind == ModelKind.ECKMANN:
        if params.d != 3:
            raise ValueError("Eckmann kind requires d=3")
        if params.mu <= 0:
            raise EckmannMassless("Eckmann form factor needs a positive nucleon mass")


# ---------------------------------------------------------------------------
# built-in model factories

def gross_model(coupling=1.0, mu=1.0, m_boson=1.0, n_nucleons=1):
    """d=2 model with relativistic nucleons and a p-independent form factor.

    theta(p) = sqrt(p^2 + mu^2), v(k) = omega(k)^(-1/2); alpha = 1/2,
    beta = gamma = 1, uv_degree = 0.  mu = 0 is allowed.
    """
    couplings = _spread(coupling, n_nucleons)
    return ModelParams(ModelKind.GROSS, d=2, n_nucleons=n_nucleons,
                       alpha=0.5, beta=1.0, gamma=1.0, mu=float(mu),
                       m_boson=float(m_boson), couplings=couplings)


def eckmann_model(delta=0.0, coupling=1.0, mu=1.0, m_boson=1.0, n_nucleons=1):
    """d=3 model with the momentum-dependent relativistic form factor.

    v_p(k) = theta(p)^(-1/2) theta(p+k)^(-1/2) omega(k)^(-1/2) with
    theta(p) = sqrt(p^2 + mu^2), mu > 0.  The kinematic factor improves
    the decay in k, so the effective exponent is alpha = 1 - delta/2 for
    any delta in [0, 1), giving uv_degree = delta.
    """
    check_eckmann_delta(delta)
    couplings = _spread(coupling, n_nucleons)
    return ModelParams(ModelKind.ECKMANN, d=3, n_nucleons=n_nucleons,
                       alpha=1.0 - delta / 2.0, beta=1.0, gamma=1.0,
                       mu=float(mu), m_boson=float(m_boson), couplings=couplings)


def check_eckmann_delta(delta) -> None:
    """The Eckmann decay improvement delta lies in [0, 1)."""
    if not 0 <= delta < 1:
        raise ValueError("delta must lie in [0, 1), got %r" % (delta,))


def nelson_model(coupling=1.0, mu=0.0, m_boson=1.0, n_nucleons=1):
    """d=3 reference model with nonrelativistic nucleons.

    theta(p) = p^2 + mu^2 (gamma = 2), v(k) = omega(k)^(-1/2)
    (alpha = 1/2, beta = 1), uv_degree = 0.
    """
    couplings = _spread(coupling, n_nucleons)
    return ModelParams(ModelKind.NELSON_REFERENCE, d=3, n_nucleons=n_nucleons,
                       alpha=0.5, beta=1.0, gamma=2.0, mu=float(mu),
                       m_boson=float(m_boson), couplings=couplings)


def custom_model(d, alpha, beta, gamma, coupling=1.0, mu=0.0, m_boson=1.0,
                 n_nucleons=1, theta_fn=None, omega_fn=None, form_factor_fn=None):
    """Model with free exponents and optional plugin callables.

    Defaults: theta(p) = (p^2 + mu^2)^(gamma/2),
    omega(k) = (k^2 + m_boson^2)^(beta/2), v(k) = (k^2 + m_boson^2)^(-alpha/2).
    Plugins replace these pointwise; the checkers below are the gate that
    decides whether a plugin model is admissible downstream.
    """
    couplings = _spread(coupling, n_nucleons)
    return ModelParams(ModelKind.CUSTOM, d=int(d), n_nucleons=n_nucleons,
                       alpha=float(alpha), beta=float(beta), gamma=float(gamma),
                       mu=float(mu), m_boson=float(m_boson), couplings=couplings,
                       theta_fn=theta_fn, omega_fn=omega_fn,
                       form_factor_fn=form_factor_fn)


def _spread(coupling, n_nucleons):
    if np.ndim(coupling) == 0:
        return (complex(coupling),) * n_nucleons
    return tuple(complex(g) for g in coupling)


# ---------------------------------------------------------------------------
# dispersions and form factors

def dispersion_nucleon(p, params: ModelParams):
    """Nucleon dispersion theta(p) for momenta p of shape (..., d)."""
    p = np.asarray(p, dtype=float)
    if params.theta_fn is not None:
        return np.asarray(params.theta_fn(p), dtype=float)
    p_sq = np.sum(p * p, axis=-1)
    return _theta_of_sq(p_sq, params)


def dispersion_boson(k, params: ModelParams):
    """Boson dispersion omega(k) for momenta k of shape (..., d)."""
    k = np.asarray(k, dtype=float)
    if params.omega_fn is not None:
        return np.asarray(params.omega_fn(k), dtype=float)
    k_sq = np.sum(k * k, axis=-1)
    return _omega_of_sq(k_sq, params)


def dispersion_nucleon_norm(r, params: ModelParams):
    """theta as a function of |p|; embeds r along the first axis for plugins."""
    r = np.asarray(r, dtype=float)
    if params.theta_fn is not None:
        return dispersion_nucleon(_embed(r, params.d), params)
    return _theta_of_sq(r * r, params)


def dispersion_boson_norm(r, params: ModelParams):
    """omega as a function of |k|; embeds r along the first axis for plugins."""
    r = np.asarray(r, dtype=float)
    if params.omega_fn is not None:
        return dispersion_boson(_embed(r, params.d), params)
    return _omega_of_sq(r * r, params)


def _theta_of_sq(p_sq, params):
    if params.kind in (ModelKind.GROSS, ModelKind.ECKMANN):
        return np.sqrt(p_sq + params.mu ** 2)
    if params.kind == ModelKind.NELSON_REFERENCE:
        return p_sq + params.mu ** 2
    return (p_sq + params.mu ** 2) ** (params.gamma / 2.0)


def _omega_of_sq(k_sq, params):
    if params.kind == ModelKind.CUSTOM:
        return (k_sq + params.m_boson ** 2) ** (params.beta / 2.0)
    return np.sqrt(k_sq + params.m_boson ** 2)


def _embed(r, d):
    r = np.asarray(r, dtype=float)
    vec = np.zeros(r.shape + (d,))
    vec[..., 0] = r
    return vec


def form_factor(i, p, k, params: ModelParams):
    """Coupling amplitude g_i * v_p(k) for nucleon i.

    p and k are arrays of shape (..., d) and broadcast against each
    other.  The built-in kinds satisfy the shift symmetry
    v_{p-k}(k) = v_p(-k) identically.
    """
    p = np.asarray(p, dtype=float)
    k = np.asarray(k, dtype=float)
    g = params.couplings[i]
    if params.form_factor_fn is not None:
        return g * np.asarray(params.form_factor_fn(p, k), dtype=complex)
    k_sq = np.sum(k * k, axis=-1)
    if params.kind == ModelKind.ECKMANN:
        theta_p = dispersion_nucleon(p, params)
        theta_pk = dispersion_nucleon(p + k, params)
        v = (theta_p * theta_pk) ** -0.5 * _omega_of_sq(k_sq, params) ** -0.5
    elif params.kind == ModelKind.CUSTOM:
        v = (k_sq + params.m_boson ** 2) ** (-params.alpha / 2.0)
    else:
        # Gross and the nonrelativistic reference: v = omega^(-1/2)
        v = _omega_of_sq(k_sq, params) ** -0.5
    return g * np.asarray(v, dtype=complex)


def ff_sq_axial(i, p_norm, k_norm, cos_angle, params: ModelParams):
    """|g_i v_p(k)|^2 as a function of |p|, |k| and the angle between them.

    Builds explicit momenta with p along the first axis and k tilted by
    the given cosine in the (first, second) plane, so plugin form factors
    work as long as they are rotation covariant.  k_norm and cos_angle
    may be arrays that broadcast together.
    """
    k_norm = np.asarray(k_norm, dtype=float)
    cos_angle = np.asarray(cos_angle, dtype=float)
    if params.d == 1:
        p = np.array([float(p_norm)])
        k = (k_norm * cos_angle)[..., None]
        amp = form_factor(i, p, k, params)
        return np.abs(amp) ** 2
    s = np.sqrt(np.maximum(0.0, 1.0 - cos_angle ** 2))
    p = np.zeros(params.d)
    p[0] = p_norm
    k = np.zeros(np.broadcast_shapes(k_norm.shape, cos_angle.shape) + (params.d,))
    k[..., 0] = k_norm * cos_angle
    k[..., 1] = k_norm * s
    amp = form_factor(i, p, k, params)
    return np.abs(amp) ** 2


# ---------------------------------------------------------------------------
# derived exponents and exponent conditions

def ultraviolet_degree(params: ModelParams) -> DerivedExponents:
    """Exact exponent arithmetic: uv_degree = d - 2*alpha - gamma."""
    b, g = params.beta, params.gamma
    return DerivedExponents(
        uv_degree=params.d - 2.0 * params.alpha - params.gamma,
        u_slope=b / g,
        cond_c_bound=g * b * b / (b * b + 2.0 * g * g),
    )


def u_map(s, params: ModelParams):
    """Affine exponent map u(s) = (beta/gamma) s - uv_degree/gamma."""
    ex = ultraviolet_degree(params)
    return ex.u_slope * np.asarray(s, dtype=float) - ex.uv_degree / params.gamma


@dataclass(frozen=True)
class ConditionCReport:
    holds: bool
    uv_degree: float
    bound: float


def check_condition_c(params: ModelParams) -> ConditionCReport:
    """Exponent window 0 <= uv_degree < gamma*beta^2/(beta^2+2*gamma^2)."""
    ex = ultraviolet_degree(params)
    holds = 0.0 <= ex.uv_degree < ex.cond_c_bound
    return ConditionCReport(holds=bool(holds), uv_degree=ex.uv_degree,
                            bound=ex.cond_c_bound)


@dataclass(frozen=True)
class ConditionAReport:
    """Sampled check of the pointwise form-factor and dispersion bounds.

    max_symmetry_violation: largest |v_{p-k}(k) - v_p(-k)| over samples.
    fitted_c: smallest constant with |v_p(k)| <= c |k|^(-alpha) on the
    sample, i.e. the sampled maximum of |v_p(k)| |k|^alpha.
    max_bound_violation: largest shortfall in the dispersion lower
    bounds theta(p) >= |p|^gamma and omega(k) >= (1+k^2)^(beta/2)
    (massive) or |k|^beta (massless); zero when both hold everywhere.
    """

    max_symmetry_violation: float
    max_bound_violation: float
    fitted_c: float
    n_samples: int
    seed: int


def check_condition_a(params: ModelParams, n_samples=10000, seed=0) -> ConditionAReport:
    """Sample (p, k) pairs and test the pointwise hypotheses.

    Radii are drawn from a half uniform-in-ball, half Pareto-tail
    mixture so that both the infrared and the ultraviolet regime are
    probed; directions are isotropic.  Deterministic for fixed seed.
    """
    rng = np.random.default_rng(seed)
    p = _heavy_tailed_sample(rng, n_samples, params.d)
    k = _heavy_tailed_sample(rng, n_samples, params.d)
    k_norm = np.linalg.norm(k, axis=-1)

    sym = 0.0
    fitted_c = 0.0
    for i in range(params.n_nucleons):
        left = form_factor(i, p - k, k, params)
        right = form_factor(i, p, -k, params)
        sym = max(sym, float(np.max(np.abs(left - right))))
        decay = np.abs(form_factor(i, p, k, params)) * k_norm ** params.alpha
        fitted_c = max(fitted_c, float(np.max(decay)))

    p_norm = np.linalg.norm(p, axis=-1)
    theta_short = p_norm ** params.gamma - dispersion_nucleon(p, params)
    if params.m_boson > 0:
        omega_floor = (1.0 + k_norm ** 2) ** (params.beta / 2.0)
    else:
        omega_floor = k_norm ** params.beta
    omega_short = omega_floor - dispersion_boson(k, params)
    violation = max(float(np.max(theta_short)), float(np.max(omega_short)), 0.0)
    return ConditionAReport(max_symmetry_violation=sym,
                            max_bound_violation=violation,
                            fitted_c=fitted_c, n_samples=n_samples, seed=seed)


def _heavy_tailed_sample(rng, n, d):
    # directions: isotropic; radii: 50/50 mixture of uniform-in-ball and
    # a Pareto tail, so |k| -> 0 and |k| -> infinity are both exercised
    direction = rng.standard_normal((n, d))
    direction /= np.maximum(np.linalg.norm(direction, axis=-1, keepdims=True), 1e-300)
    radius = np.where(rng.random(n) < 0.5,
                      rng.random(n) ** (1.0 / d),
                      1.0 + rng.pareto(1.5, n))
    return direction * radius[:, None]


# ---------------------------------------------------------------------------
# admissible auxiliary exponents for the regularity analysis

@dataclass(frozen=True)
class AdmissibleSRange:
    """Admissible auxiliary exponent s for the off-diagonal estimates.

    For beta = gamma this is the open interval (lower, upper) =
    (2*uv_degree/gamma, 1 + uv_degree/gamma).  For beta < gamma the
    admissible pairs (s, sigma) come from the two-parameter family
    below; s1 and s2 are the pivots (gamma+uv_degree)/beta and
    (1 - 3*uv_degree/gamma)/(gamma-beta) that family uses.
    """

    is_interval: bool
    lower: Optional[float] = None
    upper: Optional[float] = None
    s1: Optional[float] = None
    s2: Optional[float] = None


def admissible_s_range(params: ModelParams) -> AdmissibleSRange:
    """Admissible-s descriptor; requires the exponent window to hold."""
    rep = check_condition_c(params)
    if not rep.holds:
        raise ConditionCViolated(
            "uv_degree=%g outside [0, %g)" % (rep.uv_degree, rep.bound))
    uvd, g, b = rep.uv_degree, params.gamma, params.beta
    if b == g:
        return AdmissibleSRange(is_interval=True,
                                lower=2.0 * uvd / g, upper=1.0 + uvd / g)
    return AdmissibleSRange(is_interval=False,
                            s1=(g + uvd) / b,
                            s2=(1.0 - 3.0 * uvd / g) / (g - b))


@dataclass(frozen=True)
class ParameterFamily:
    s: float
    sigma: float
    delta1: float
    delta2: float
    case_id: int
    s1: float
    s2: float
    eta: float


def appendix_parameter_family(params: ModelParams, epsilon) -> ParameterFamily:
    """Auxiliary exponent pair (s, sigma) for beta < gamma.

    With s1 = (gamma+uv_degree)/beta, s2 = (1-3*uv_degree/gamma)/(gamma-beta)
    and x = gamma*s2, the pair is

        case 1: (s1-eps, s1-eps)        if x >= 3*s1 - eps,
        case 2: (s1-eps, x - 2*s1)      if 2*s1 < x < 3*s1 - eps,
        case 3: (x/2 - eps, 0)          if 1 < x <= 2*s1,

    and the returned record carries delta1 = max(0,1-s) + s - u(s) and
    delta2 = max(0,1-s) + max(0,1-sigma)/2.  All constraints (s > 0,
    sigma >= 0, u(s) < 1, u(u(s)) > 0, u(sigma) < 1, delta1 < 1,
    delta2 < 1, and s - u(s) + (sigma - u(sigma) - 1)/2 < 0) are
    verified; they hold for every admissible model once epsilon is small
    enough.
    """
    epsilon = float(epsilon)
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if params.beta >= params.gamma:
        raise ValueError("the parameter family applies only for beta < gamma")
    rng = admissible_s_range(params)
    s1, s2 = rng.s1, rng.s2
    x = params.gamma * s2
    if x >= 3.0 * s1 - epsilon:
        case_id, s, sigma = 1, s1 - epsilon, s1 - epsilon
    elif x > 2.0 * s1:
        case_id, s, sigma = 2, s1 - epsilon, x - 2.0 * s1
    elif x > 1.0:
        case_id, s, sigma = 3, x / 2.0 - epsilon, 0.0
    else:  # pragma: no cover - excluded by the exponent window
        raise ConditionCViolated("gamma*s2 <= 1 should not occur here")

    us = float(u_map(s, params))
    usig = float(u_map(sigma, params))
    delta1 = max(0.0, 1.0 - s) + s - us
    delta2 = max(0.0, 1.0 - s) + max(0.0, 1.0 - sigma) / 2.0
    checks = {
        "s > 0": s > 0,
        "sigma >= 0": sigma >= 0,
        "u(s) < 1": us < 1.0,
        "u(u(s)) > 0": float(u_map(us, params)) > 0.0,
        "u(sigma) < 1": usig < 1.0,
        "delta1 < 1": delta1 < 1.0,
        "delta2 < 1": delta2 < 1.0,
        "coupling estimate": s - us + (sigma - usig - 1.0) / 2.0 < 0.0,
    }
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        raise EpsilonTooLarge("epsilon=%g breaks: %s" % (epsilon, ", ".join(failed)))
    return ParameterFamily(s=s, sigma=sigma, delta1=delta1, delta2=delta2,
                           case_id=case_id, s1=s1, s2=s2,
                           eta=s - us + epsilon / 2.0)


# ---------------------------------------------------------------------------
# the d=3 kinematic bound behind the momentum-dependent form factor

@dataclass(frozen=True)
class KinematicBoundReport:
    c_analytic: float
    max_ratio: float
    holds: bool
    n_samples: int
    seed: int


def eckmann_kinematic_bound(mu, delta=0.0, n_samples=100000, seed=0) -> KinematicBoundReport:
    """Sampled check of theta(p)^(-1/2) theta(p+k)^(-1/2) <= c(mu) |k|^(-(1-delta)/2).

    c_analytic = (mu^-2 + mu^-4)^(1/4).  The intermediate estimate
    against (k^2+1)^(-1/4) only improves when replaced by the pure power
    |k|^(-(1-delta)/2) for delta in [0, 1), so the sampled maximum of
    theta(p)^(-1/2) theta(p+k)^(-1/2) |k|^((1-delta)/2) must stay at or
    below c_analytic up to roundoff.
    """
    mu = float(mu)
    if not mu > 0:
        raise MasslessNucleon("the kinematic bound requires mu > 0")
    check_eckmann_delta(delta)
    rng = np.random.default_rng(seed)
    p = _heavy_tailed_sample(rng, n_samples, 3)
    k = _heavy_tailed_sample(rng, n_samples, 3)
    theta = lambda q: np.sqrt(np.sum(q * q, axis=-1) + mu ** 2)
    k_norm = np.linalg.norm(k, axis=-1)
    ratio = (theta(p) * theta(p + k)) ** -0.5 * k_norm ** ((1.0 - delta) / 2.0)
    c_analytic = (mu ** -2 + mu ** -4) ** 0.25
    max_ratio = float(np.max(ratio))
    return KinematicBoundReport(c_analytic=c_analytic, max_ratio=max_ratio,
                                holds=bool(max_ratio <= c_analytic * (1 + 1e-12)),
                                n_samples=n_samples, seed=seed)
