"""Continuum quadrature for the renormalization integrals.

Every explicit integral used by the operator construction is evaluated
here: the counterterm, the regularized diagonal integrals, the scaling
bound, and the dispersion-difference integral behind the growth
condition.  All integrands are axisymmetric around the nucleon momentum,
so integrals reduce to a radial x angular product rule: Gauss nodes for
the angular weight (1-u^2)^((d-3)/2) and adaptive panels for the radial
direction, with the |k|^(-2*alpha) origin singularity tamed by the
r^(d-1) Jacobian.  Improper radial integrals are truncated at an
adaptive radius and finished with an analytic power-law tail whose
exponent is measured from the integrand itself.

Subtracted integrands are always combined into a single expression
before integration; the two separately divergent pieces never meet a
quadrature rule on their own.

A lattice twin of each integral (a plain cell sum over a MomentumGrid)
is provided so that the operator-identity tests can use the exact same
Riemann sum on both sides of an identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import integrate, special

from .errors import ExponentWindowViolated, QuadNotConverged
from .fockgrid import MomentumGrid, translate_indices
from .model import (
    ModelParams,
    dispersion_boson_norm,
    dispersion_nucleon,
    dispersion_nucleon_norm,
    ff_sq_axial,
    form_factor,
)

EPSABS_DEFAULT = 1e-9
EPSREL_DEFAULT = 1e-8


@dataclass(frozen=True)
class QuadResult:
    """Value and error bookkeeping of one adaptive integral."""

    value: float
    abs_error_estimate: float
    inner_contribution: float
    tail_contribution: float
    n_evals: int


@dataclass(frozen=True)
class ScalingExponents:
    """Exponents of the scaling-bound integrand.

    nu_exp and sigma_exp weight |k|^(-nu_exp) |p-k|^(-sigma_exp); r is
    the power of the denominator.  (nu/sigma are spelled out to avoid a
    collision with the counterterm variant index.)  The integrability
    window is d in (nu_exp+sigma_exp, nu_exp+sigma_exp+r*gamma).
    """

    nu_exp: float
    sigma_exp: float
    r: float

    def check_window(self, params: ModelParams) -> None:
        """Raise ValueError on a negative weight or a non-positive r, and
        ExponentWindowViolated unless d lies inside the window."""
        nu, sig, rr = self.nu_exp, self.sigma_exp, self.r
        if nu < 0 or sig < 0 or rr <= 0:
            raise ValueError("exponents must satisfy nu,sigma >= 0 and r > 0")
        lo, hi = nu + sig, nu + sig + rr * params.gamma
        if not lo < params.d < hi:
            raise ExponentWindowViolated(
                "need d in (%g, %g), got d=%d" % (lo, hi, params.d))


# ---------------------------------------------------------------------------
# axisymmetric product-rule engine

def _angular_rule(d: int, n: int, u_kinks: Sequence[float] = ()):
    """Nodes/weights for f(k) dk = sum_j w_j int r^(d-1) f(r, u_j) dr.

    The weight (1-u^2)^((d-3)/2) is integrated exactly by Gauss-Jacobi
    nodes.  Angular break points (cosines where the radial profile's
    shape changes, e.g. where an absolute-value interface crosses the
    radial boundary) split the rule into panels; panels touching an
    endpoint keep the matching Jacobi exponent, interior panels fall
    back to Legendre with the now-smooth weight in the integrand.
    """
    if d == 1:
        return np.array([1.0, -1.0]), np.array([1.0, 1.0])
    a = (d - 3) / 2.0
    # surface area of the (d-2)-sphere carried by the remaining angles
    s = 2.0 * np.pi ** ((d - 1) / 2.0) / special.gamma((d - 1) / 2.0)
    edges = [-1.0] + sorted({float(u) for u in u_kinks if -1.0 < u < 1.0}) + [1.0]
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        if lo == -1.0 and hi == 1.0:
            u, wt = special.roots_jacobi(n, a, a)
            wt = s * wt
        elif lo == -1.0:
            x, w = special.roots_jacobi(n, 0.0, a)
            u = mid + half * x
            wt = s * w * half ** (a + 1.0) * (1.0 - u) ** a
        elif hi == 1.0:
            x, w = special.roots_jacobi(n, a, 0.0)
            u = mid + half * x
            wt = s * w * half ** (a + 1.0) * (1.0 + u) ** a
        else:
            x, w = special.roots_legendre(n)
            u = mid + half * x
            wt = s * w * half * (1.0 - u * u) ** a
        nodes.append(u)
        weights.append(wt)
    return np.concatenate(nodes), np.concatenate(weights)


def _power_tail(f: Callable, r0: float, floor: float):
    """Integral of f over [r0, inf) assuming a local power law.

    The decay exponent is measured from evaluations at r0, 2*r0, 4*r0;
    returns (tail, error_guess, usable) where usable is False if the
    samples do not look like a settled decaying power.  A tail whose
    crude bound already sits below floor counts as zero (this catches
    super-power decay, where the exponent estimate never settles).
    """
    f0, f1, f2 = f(r0), f(2.0 * r0), f(4.0 * r0)
    crude = 4.0 * r0 * (abs(f0) + abs(f1) + abs(f2))
    if crude <= floor:
        return 0.0, crude, True
    if f0 == 0.0 or np.sign(f0) != np.sign(f1) or np.sign(f1) != np.sign(f2):
        return 0.0, np.inf, False
    q1 = np.log(abs(f0 / f1)) / np.log(2.0)
    q2 = np.log(abs(f1 / f2)) / np.log(2.0)
    if q2 <= 1.05 or abs(q1 - q2) > 0.2 * max(1.0, abs(q2)):
        return 0.0, np.inf, False
    tail = f0 * r0 / (q2 - 1.0)
    # spread between the two exponent estimates bounds the model error
    alt = f0 * r0 / (q1 - 1.0) if q1 > 1.05 else 2.0 * tail
    return tail, abs(tail - alt) + 1e-16 * abs(tail), True


def _radial_integral(f: Callable, lo: float, hi: float, kinks: Sequence[float],
                     epsabs: float, epsrel: float):
    """Adaptive integral of f over [lo, hi) with interior break points;
    hi may be inf, in which case an analytic power tail finishes the
    integral beyond an adaptively grown radius."""
    n_evals = 0
    pts = sorted({float(x) for x in kinks if lo < x < (hi if np.isfinite(hi) else np.inf)})
    if np.isfinite(hi):
        val, err, info = integrate.quad(f, lo, hi, points=pts or None,
                                        epsabs=epsabs, epsrel=epsrel,
                                        limit=300, full_output=True)[:3]
        return val, 0.0, err, info["neval"]

    r0 = max(8.0, lo * 2.0, *(4.0 * p for p in pts)) if pts else max(8.0, lo * 2.0)
    inner, err, info = integrate.quad(f, lo, r0, points=pts or None,
                                      epsabs=epsabs, epsrel=epsrel,
                                      limit=300, full_output=True)[:3]
    n_evals += info["neval"]
    for _ in range(60):
        floor = 0.5 * max(epsabs, epsrel * abs(inner))
        tail, tail_err, usable = _power_tail(f, r0, floor)
        n_evals += 3
        scale = max(abs(inner + tail), 1e-12)
        if usable and tail_err <= max(epsabs, epsrel * scale):
            return inner, tail, err + tail_err, n_evals
        piece, perr, info = integrate.quad(f, r0, 2.0 * r0, epsabs=epsabs,
                                           epsrel=epsrel, limit=200,
                                           full_output=True)[:3]
        inner += piece
        err += perr
        n_evals += info["neval"]
        r0 *= 2.0
    raise QuadNotConverged("radial tail did not settle into a power law")


def axisymmetric_integral(integrand: Callable, d: int, lo: float, hi: float,
                          kinks: Optional[Callable] = None,
                          u_kinks: Sequence[float] = (),
                          epsabs: float = EPSABS_DEFAULT,
                          epsrel: float = EPSREL_DEFAULT,
                          n_angular: int = 8,
                          n_angular_max: int = 128) -> QuadResult:
    """Integral over {lo <= |k| <= hi} of an axisymmetric integrand.

    integrand(r, u) is the integrand value at radius r and cosine u of
    the angle to the symmetry axis; kinks(u) may supply radii where the
    radial profile loses smoothness, u_kinks are cosines where the
    angular profile does.  The angular rule is refined by doubling
    until stable.
    """

    def evaluate(n_nodes: int):
        nodes, weights = _angular_rule(d, n_nodes, u_kinks)
        inner = tail = err = 0.0
        n_evals = 0
        for u, w in zip(nodes, weights):
            radial = lambda r, _u=u: r ** (d - 1) * integrand(r, _u)
            ks = kinks(u) if kinks is not None else ()
            a, b, e, n = _radial_integral(radial, lo, hi, ks, epsabs, epsrel)
            inner += w * a
            tail += w * b
            err += abs(w) * e
            n_evals += n
        return inner, tail, err, n_evals

    if d == 1:
        inner, tail, err, n_evals = evaluate(2)
        return QuadResult(inner + tail, err, inner, tail, n_evals)

    inner, tail, err, n_evals = evaluate(n_angular)
    n = n_angular
    while True:
        inner2, tail2, err2, ev2 = evaluate(2 * n)
        n_evals += ev2
        ang_err = abs((inner2 + tail2) - (inner + tail))
        inner, tail, err = inner2, tail2, err2
        n *= 2
        if ang_err <= max(epsabs, epsrel * max(abs(inner + tail), 1e-12)):
            return QuadResult(inner + tail, err + ang_err, inner, tail, n_evals)
        if 2 * n > n_angular_max:
            raise QuadNotConverged("angular rule did not converge by n=%d" % n)


# ---------------------------------------------------------------------------
# geometric helpers

def _norm_of(p) -> float:
    a = np.asarray(p, dtype=float)
    return float(abs(a)) if a.ndim == 0 else float(np.linalg.norm(a))


def _shift_norm(p_norm: float, r, u):
    """|p - k| for |k| = r at cosine u to p."""
    return np.sqrt(np.maximum(p_norm * p_norm + r * r - 2.0 * p_norm * r * u, 0.0))


def _default_kinks(p_norm: float):
    """Radii where |p-k|-dependent profiles lose smoothness: the closest
    approach r = p*u and the equal-norm radius r = p/(2u).  The latter
    runs off to infinity as u -> 0 while the kink it marks flattens out,
    so it is only reported while it stays within a few multiples of p.
    """

    def kinks(u):
        if p_norm == 0.0:
            return ()
        out = [p_norm * max(abs(u), 0.1)]
        if u > 0.05:
            out.append(p_norm / (2.0 * u))
        return tuple(out)

    return kinks


# ---------------------------------------------------------------------------
# the renormalization integrals (continuum)

def counterterm(p, lambda_uv: float, variant: int, params: ModelParams,
                i_nucleon: int = 0, epsabs: float = EPSABS_DEFAULT,
                epsrel: float = EPSREL_DEFAULT) -> QuadResult:
    """Single-nucleon counterterm at cutoff radius lambda_uv.

    Integrates |v_{p-k}(k)|^2 / (theta(k)+omega(k)) (variant 1) or with
    theta(p-k) in the denominator (variant 2) over the ball of radius
    lambda_uv.  Diverges as the cutoff grows, so an infinite cutoff is
    rejected.
    """
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    if lambda_uv < 0:
        raise ValueError("lambda_uv must be >= 0")
    if not np.isfinite(lambda_uv):
        raise ValueError("the counterterm diverges at infinite cutoff")
    if lambda_uv == 0.0:
        return QuadResult(0.0, 0.0, 0.0, 0.0, 0)
    p_norm = _norm_of(p)

    def integrand(r, u):
        w = float(ff_sq_axial(i_nucleon, p_norm, r, -u, params))
        if variant == 1:
            den = dispersion_nucleon_norm(r, params) + dispersion_boson_norm(r, params)
        else:
            rho = _shift_norm(p_norm, r, u)
            den = dispersion_nucleon_norm(rho, params) + dispersion_boson_norm(r, params)
        return w / float(den)

    return axisymmetric_integral(integrand, params.d, 0.0, float(lambda_uv),
                                 kinks=_default_kinks(p_norm),
                                 epsabs=epsabs, epsrel=epsrel)


def integral_J(p, lambda_uv: float, params: ModelParams, i_nucleon: int = 0,
               epsabs: float = EPSABS_DEFAULT,
               epsrel: float = EPSREL_DEFAULT) -> QuadResult:
    """Dispersion-shift integral: the difference of the two counterterm
    weights combined into one integrand,

        J(p) = int |v_p(-k)|^2 [ (theta(k)+omega(k))^(-1)
                                 - (theta(p-k)+omega(k))^(-1) ] dk,

    over |k| <= lambda_uv (inf allowed: the subtracted integrand decays).
    Equals counterterm(variant=1) - counterterm(variant=2) at equal cutoff.
    """
    if lambda_uv < 0:
        raise ValueError("lambda_uv must be >= 0")
    if lambda_uv == 0.0:
        return QuadResult(0.0, 0.0, 0.0, 0.0, 0)
    p_norm = _norm_of(p)

    def integrand(r, u):
        w = float(ff_sq_axial(i_nucleon, p_norm, r, -u, params))
        om = float(dispersion_boson_norm(r, params))
        d1 = float(dispersion_nucleon_norm(r, params)) + om
        rho = _shift_norm(p_norm, r, u)
        d2 = float(dispersion_nucleon_norm(rho, params)) + om
        return w * (d2 - d1) / (d1 * d2)

    return axisymmetric_integral(integrand, params.d, 0.0, float(lambda_uv),
                                 kinks=_default_kinks(p_norm),
                                 epsabs=epsabs, epsrel=epsrel)


def integral_I(P, K_hat, lambda_uv: float, ell: int, params: ModelParams,
               lambda_shift: float = 0.0, epsabs: float = EPSABS_DEFAULT,
               epsrel: float = EPSREL_DEFAULT) -> QuadResult:
    """Regularized diagonal integral for one nucleon of a configuration.

        I_ell(P, K) = int |v_ell_{p_ell}(-k)|^2 [ 1/(L(P - e_ell k, K+{k})
                    + lambda_shift) - 1/(theta(k)+omega(k)) ] dk

    with the spectator energies (other nucleons and the bosons K_hat)
    entering the first denominator.  The subtraction happens inside one
    integrand.  lambda_uv = inf is allowed.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    if K_hat is None:
        K_hat = np.zeros((0, params.d))
    K_hat = np.asarray(K_hat, dtype=float).reshape(-1, params.d)
    if lambda_uv < 0:
        raise ValueError("lambda_uv must be >= 0")
    if lambda_uv == 0.0:
        return QuadResult(0.0, 0.0, 0.0, 0.0, 0)
    theta_all = dispersion_nucleon(P, params)
    rest = float(np.sum(theta_all) - theta_all[ell]
                 + np.sum(dispersion_boson_norm(np.linalg.norm(K_hat, axis=-1), params))
                 + lambda_shift)
    p_norm = float(np.linalg.norm(P[ell]))

    def integrand(r, u):
        w = float(ff_sq_axial(ell, p_norm, r, -u, params))
        om = float(dispersion_boson_norm(r, params))
        ref = float(dispersion_nucleon_norm(r, params)) + om
        rho = _shift_norm(p_norm, r, u)
        shifted = float(dispersion_nucleon_norm(rho, params)) + rest + om
        return w * (ref - shifted) / (shifted * ref)

    return axisymmetric_integral(integrand, params.d, 0.0, float(lambda_uv),
                                 kinks=_default_kinks(p_norm),
                                 epsabs=epsabs, epsrel=epsrel)


def condition_b_lhs(p, lambda_uv: float, params: ModelParams, i_nucleon: int = 0,
                    epsabs: float = EPSABS_DEFAULT,
                    epsrel: float = EPSREL_DEFAULT,
                    n_angular: int = 8,
                    n_angular_max: int = 512) -> QuadResult:
    """Growth-condition integral with the exterior cutoff 1 - chi_Lambda:

        int_{|k| >= lambda_uv} |v_p(-k)|^2 |theta(k) - theta(p-k)|
            / ((theta(p-k)+omega(k)) (theta(k)+omega(k))) dk.

    The absolute value has a radial kink where |k| = |p-k|; the radial
    panels split there, and the angular rule splits where that interface
    crosses the inner boundary.  The angular budget is larger than the
    family default because the unsplit remnant of that kink slows the
    doubling rule in narrow bands of |p|.
    """
    if lambda_uv < 0:
        raise ValueError("lambda_uv must be >= 0")
    p_norm = _norm_of(p)

    def integrand(r, u):
        w = float(ff_sq_axial(i_nucleon, p_norm, r, -u, params))
        om = float(dispersion_boson_norm(r, params))
        d1 = float(dispersion_nucleon_norm(r, params))
        rho = _shift_norm(p_norm, r, u)
        d2 = float(dispersion_nucleon_norm(rho, params))
        return w * abs(d1 - d2) / ((d2 + om) * (d1 + om))

    u_kinks = [0.0]
    if p_norm > 0.0 and lambda_uv > 0.0 and p_norm / (2.0 * lambda_uv) < 1.0:
        u_kinks.append(p_norm / (2.0 * lambda_uv))
    return axisymmetric_integral(integrand, params.d, float(lambda_uv), np.inf,
                                 kinks=_default_kinks(p_norm), u_kinks=u_kinks,
                                 epsabs=epsabs, epsrel=epsrel,
                                 n_angular=n_angular,
                                 n_angular_max=n_angular_max)


# ---------------------------------------------------------------------------
# scaling bound

def scaling_lhs(p, omega_shift: float, lambda_uv: float, exps: ScalingExponents,
                params: ModelParams, epsabs: float = EPSABS_DEFAULT,
                epsrel: float = EPSREL_DEFAULT) -> QuadResult:
    """Left-hand side of the scaling bound:

        int_{|k| >= lambda_uv} |k|^(-nu) |p-k|^(-sigma)
            / (|p-k|^gamma + |k|^beta + omega_shift)^r dk

    with pure powers of the model exponents gamma and beta.  Requires
    the integrability window d in (nu+sigma, nu+sigma+r*gamma).
    """
    exps.check_window(params)
    nu, sig, rr = exps.nu_exp, exps.sigma_exp, exps.r
    d, gam, bet = params.d, params.gamma, params.beta
    if omega_shift < 0 or lambda_uv < 0:
        raise ValueError("omega_shift and lambda_uv must be >= 0")
    p_norm = _norm_of(p)

    def integrand(r, u):
        rho = _shift_norm(p_norm, r, u)
        num = r ** (-nu) if nu else 1.0
        if sig:
            if rho == 0.0:
                return 0.0  # measure-zero point; integrable since sigma < d
            num = num * rho ** (-sig)
        den = (rho ** gam + r ** bet + omega_shift) ** rr
        return num / den

    return axisymmetric_integral(integrand, d, float(lambda_uv), np.inf,
                                 kinks=_default_kinks(p_norm),
                                 epsabs=epsabs, epsrel=epsrel)


@dataclass(frozen=True)
class ScalingFitReport:
    fitted_c: float
    worst_ratio: float
    monotone_in_lambda: bool
    n_points: int
    ratios: tuple


def scaling_bound_fit(param_sweep, delta: float = 0.0,
                      epsabs: float = EPSABS_DEFAULT,
                      epsrel: float = EPSREL_DEFAULT) -> ScalingFitReport:
    """Fit the scaling-bound constant over a parameter sweep.

    Each sweep point is a mapping with keys p, omega_shift, lambda_uv,
    exps, params.  The compensated ratio is

        lhs * omega_shift^(r - (d-nu-sigma)/gamma - delta_L) * lambda^(beta*delta_L)

    with delta_L = delta for lambda_uv > 1 and 0 otherwise.  Reports the
    supremum (the fitted constant) and whether the ratio without the
    lambda compensation is nonincreasing along increasing lambda_uv > 1
    within each (p, omega_shift) group.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    ratios = []
    groups = {}
    for point in param_sweep:
        exps: ScalingExponents = point["exps"]
        params: ModelParams = point["params"]
        p_norm = _norm_of(point["p"])
        om = float(point["omega_shift"])
        lam = float(point["lambda_uv"])
        if om <= 0:
            raise ValueError("omega_shift must be > 0 in the fit")
        lhs = scaling_lhs(point["p"], om, lam, exps, params,
                          epsabs=epsabs, epsrel=epsrel).value
        d_lam = delta if lam > 1.0 else 0.0
        expo = exps.r - (params.d - exps.nu_exp - exps.sigma_exp) / params.gamma
        ratio = lhs * om ** (expo - d_lam)
        if d_lam > 0.0:
            ratio *= lam ** (params.beta * d_lam)
        ratios.append(ratio)
        key = (p_norm, om, exps.nu_exp, exps.sigma_exp, exps.r,
               params.d, params.gamma, params.beta)
        if lam > 1.0:
            groups.setdefault(key, []).append((lam, lhs * om ** (expo - d_lam)))

    monotone = True
    for seq in groups.values():
        seq.sort()
        vals = [v for _, v in seq]
        if any(b > a * (1.0 + 1e-6) for a, b in zip(vals[:-1], vals[1:])):
            monotone = False
    fitted = max(ratios) if ratios else 0.0
    return ScalingFitReport(fitted_c=fitted, worst_ratio=fitted,
                            monotone_in_lambda=monotone,
                            n_points=len(ratios), ratios=tuple(ratios))


def loglog_slope(x, y) -> float:
    """Least-squares slope of log(y) against log(x)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("log-log fit needs positive data")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


# ---------------------------------------------------------------------------
# lattice twins (exact cell sums used by the operator identities)

def grid_mode_mask(grid: MomentumGrid, lambda_uv, params: ModelParams) -> np.ndarray:
    """Which lattice modes participate at cutoff lambda_uv.

    lambda_uv = None means the native cutoff (every mode in the box);
    lambda_uv = 0 selects nothing.  For massless bosons the zero mode is
    always excluded, since the form factor is singular there.
    """
    norms = grid.norms()
    if lambda_uv is None:
        mask = np.ones(grid.size, dtype=bool)
    elif lambda_uv <= 0:
        mask = np.zeros(grid.size, dtype=bool)
    else:
        mask = norms <= float(lambda_uv) * (1.0 + 1e-12)
    if params.m_boson == 0.0:
        mask = mask & (norms > 0.0)
    return mask


def _grid_shift_data(p_indices, grid: MomentumGrid, params: ModelParams,
                     i_nucleon: int, lambda_uv):
    """Weights and masks shared by the lattice sums: for every p in
    p_indices and every mode q, the cell weight h^d |v_{p-q}(q)|^2, the
    shifted dispersion theta(p-q), and the participation mask (|q| within
    the cutoff and p-q on the lattice).

    All three depend on p only through its lattice index, so they are
    evaluated once per distinct index and gathered into the shape
    p_indices.shape + (modes,); repeated indices get identical values."""
    p_indices = np.asarray(p_indices)
    flat, inverse = np.unique(p_indices, return_inverse=True)
    mode_mask = grid_mode_mask(grid, lambda_uv, params)
    tgt, valid = translate_indices(grid, flat[:, None],
                                   np.arange(grid.size), sign=-1)
    mask = mode_mask & valid
    shifted = grid.points[tgt]                     # p - q (junk where invalid)
    q_pts = np.broadcast_to(grid.points, shifted.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.abs(form_factor(i_nucleon, shifted, q_pts, params)) ** 2
    w = np.where(mask, w, 0.0)
    theta_shift = np.where(mask, dispersion_nucleon(shifted, params), 1.0)
    inverse = inverse.reshape(p_indices.shape)
    return ((w * grid.cell_weight)[inverse], theta_shift[inverse],
            mask[inverse])


def counterterm_grid(p_indices, grid: MomentumGrid, lambda_uv, variant: int,
                     params: ModelParams, i_nucleon: int = 0) -> np.ndarray:
    """Lattice counterterm: cell sum over modes q with |q| <= lambda_uv
    and p-q still on the lattice of
    h^d |v_{p-q}(q)|^2 / denominator."""
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    w, theta_shift, mask = _grid_shift_data(p_indices, grid, params, i_nucleon,
                                            lambda_uv)
    norms = grid.norms()
    om = dispersion_boson_norm(norms, params)
    if variant == 1:
        den = dispersion_nucleon_norm(norms, params) + om
    else:
        den = theta_shift + om
    with np.errstate(invalid="ignore"):
        terms = np.where(mask, w / den, 0.0)
    return terms.sum(axis=-1)


def integral_j_grid(p_indices, grid: MomentumGrid, lambda_uv,
                    params: ModelParams, i_nucleon: int = 0) -> np.ndarray:
    """Lattice twin of the dispersion-shift integral; equals the
    difference of the two lattice counterterm variants exactly."""
    w, theta_shift, mask = _grid_shift_data(p_indices, grid, params, i_nucleon,
                                            lambda_uv)
    norms = grid.norms()
    om = dispersion_boson_norm(norms, params)
    d1 = dispersion_nucleon_norm(norms, params) + om
    d2 = theta_shift + om
    with np.errstate(invalid="ignore"):
        terms = np.where(mask, w * (d2 - d1) / (d1 * d2), 0.0)
    return terms.sum(axis=-1)


def resolvent_sum_grid(p_indices, rest_energies, grid: MomentumGrid, lambda_uv,
                       params: ModelParams, i_nucleon: int = 0,
                       lambda_shift: float = 0.0) -> np.ndarray:
    """Unsubtracted lattice resolvent sum

        sum_q h^d |v_{p-q}(q)|^2 / (theta(p-q) + rest + omega(q) + lambda).

    This is the raw quantity mediated by one virtual boson; subtracting
    the lattice counterterm of variant 1 yields integral_i_grid exactly.
    """
    p_indices = np.asarray(p_indices)
    rest = np.broadcast_to(np.asarray(rest_energies, dtype=float), p_indices.shape)
    w, theta_shift, mask = _grid_shift_data(p_indices, grid, params, i_nucleon,
                                            lambda_uv)
    om = dispersion_boson_norm(grid.norms(), params)
    den = theta_shift + rest[..., None] + om + lambda_shift
    with np.errstate(invalid="ignore"):
        terms = np.where(mask, w / den, 0.0)
    return terms.sum(axis=-1)


def integral_i_grid(p_indices, rest_energies, grid: MomentumGrid, lambda_uv,
                    params: ModelParams, i_nucleon: int = 0,
                    lambda_shift: float = 0.0) -> np.ndarray:
    """Lattice twin of the regularized diagonal integral.

    rest_energies holds the spectator energy (other nucleons plus the
    bosons of the configuration) for each entry of p_indices; the
    resolvent denominator gains rest + lambda_shift while the reference
    term does not.
    """
    p_indices = np.asarray(p_indices)
    rest = np.broadcast_to(np.asarray(rest_energies, dtype=float), p_indices.shape)
    w, theta_shift, mask = _grid_shift_data(p_indices, grid, params, i_nucleon,
                                            lambda_uv)
    norms = grid.norms()
    om = dispersion_boson_norm(norms, params)
    ref = dispersion_nucleon_norm(norms, params) + om
    shifted = theta_shift + rest[..., None] + om + lambda_shift
    with np.errstate(invalid="ignore"):
        terms = np.where(mask, w * (ref - shifted) / (shifted * ref), 0.0)
    return terms.sum(axis=-1)
