"""Continuum quadrature for the renormalization integrals.

Every explicit integral used by the operator construction is evaluated
here: the counterterm, the regularized diagonal integrals, the scaling
bound, and the dispersion-difference integral behind the growth
condition.  All integrands are axisymmetric around the nucleon momentum,
so integrals reduce to a radial x angular product rule: Gauss nodes for
the angular weight (1-u^2)^((d-3)/2) and adaptive panels for the radial
direction, with the |k|^(-2*alpha) origin singularity tamed by the
r^(d-1) Jacobian.  The radial engine is numpy only: adaptive
Gauss-Kronrod G10/K21 panels (QUADPACK's qk21 rule and error estimate),
split first at the kink radii, then bisected where the error sits.  The
radial integrals of all angular nodes advance together, so each
refinement round is one call of the integrand on arrays of radii and
cosines.  A finite radial range may use at most PANEL_BUDGET panels;
past that, QuadNotConverged is raised rather than a value returned.
Improper radial integrals are truncated at an adaptive radius and
finished with an analytic power-law tail whose exponent is measured from
the integrand itself.

Subtracted integrands are always combined into a single expression
before integration; the two separately divergent pieces never meet a
quadrature rule on their own.

The recoil integrals (counterterm, integral_J, integral_I,
condition_b_lhs) state their integrands once each, as terms functions of
|v_p(-k)|^2, theta(k), theta(p-k) and omega(k), evaluated by one front,
_recoil_integral.  The operators are built from lattice twins (cell sums
over a MomentumGrid by one body, _lattice_sum), so both sides of the
operator identity use the same Riemann sum: counterterm_grid and
integral_j_grid sum the terms of counterterm and integral_J, and
resolvent_sum_grid the unsubtracted resolvent sum, which minus
counterterm_grid of variant 1 is the twin of I, evaluated once per
distinct (p, rest energy) pair.  Inside a _shift_data_kept scope (the
convergence study's counterterm rows, the converge and identity
commands) the cutoff-free shift data of each p set are built once.
Only the engine, axisymmetric_integral, takes tolerances (epsabs,
epsrel, n_angular_max).

check_cutoff and check_shift state the cutoff and the shift rule once.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ExponentWindowViolated, MasslessWithoutShift, QuadNotConverged
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
        if not (nu >= 0 and sig >= 0 and rr > 0):
            raise ValueError("exponents must satisfy nu,sigma >= 0 and r > 0")
        lo, hi = nu + sig, nu + sig + rr * params.gamma
        if not lo < params.d < hi:
            raise ExponentWindowViolated(
                "need d in (%g, %g), got d=%d" % (lo, hi, params.d))


# ---------------------------------------------------------------------------
# axisymmetric product-rule engine

def _gauss_jacobi(n: int, alpha: float, beta: float):
    """Gauss-Jacobi nodes and weights for the weight
    (1-x)^alpha (1+x)^beta on [-1, 1] (alpha, beta > -1), by Golub-Welsch:
    the nodes are the eigenvalues of the n x n Jacobi matrix of the
    monic recurrence, and the weights mu0 times the squared first
    components of its eigenvectors.  The k = 0 diagonal and k = 1
    off-diagonal terms are written in their cancelled forms, which stay
    finite at alpha + beta = 0 and alpha + beta = -1."""
    ab = alpha + beta
    k = np.arange(n, dtype=float)
    t = 2.0 * k + ab
    diag = np.empty(n)
    diag[0] = (beta - alpha) / (ab + 2.0)
    diag[1:] = (beta * beta - alpha * alpha) / (t[1:] * (t[1:] + 2.0))
    off2 = np.empty(max(n - 1, 0))
    off2[:1] = 4.0 * (1.0 + alpha) * (1.0 + beta) / (
        (ab + 2.0) ** 2 * (ab + 3.0))
    k, t = k[2:], t[2:]
    off2[1:] = 4.0 * k * (k + alpha) * (k + beta) * (k + ab) / (
        t * t * (t + 1.0) * (t - 1.0))
    off = np.sqrt(off2)
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    mu0 = 2.0 ** (ab + 1.0) * math.gamma(alpha + 1.0) * math.gamma(
        beta + 1.0) / math.gamma(ab + 2.0)
    return x, mu0 * v[0] ** 2


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
    s = 2.0 * np.pi ** ((d - 1) / 2.0) / math.gamma((d - 1) / 2.0)
    edges = [-1.0] + sorted({float(u) for u in u_kinks if -1.0 < u < 1.0}) + [1.0]
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        if lo == -1.0 and hi == 1.0:
            u, wt = _gauss_jacobi(n, a, a)
            wt = s * wt
        elif lo == -1.0:
            x, w = _gauss_jacobi(n, 0.0, a)
            u = mid + half * x
            wt = s * w * half ** (a + 1.0) * (1.0 - u) ** a
        elif hi == 1.0:
            x, w = _gauss_jacobi(n, a, 0.0)
            u = mid + half * x
            wt = s * w * half ** (a + 1.0) * (1.0 + u) ** a
        else:
            x, w = np.polynomial.legendre.leggauss(n)
            u = mid + half * x
            wt = s * w * half * (1.0 - u * u) ** a
        nodes.append(u)
        weights.append(wt)
    return np.concatenate(nodes), np.concatenate(weights)


# Gauss-Kronrod G10/K21 pair (QUADPACK qk21, Piessens et al. 1983): the
# eleven nonnegative Kronrod abscissae, their weights, and the weights of
# the 10-point Gauss rule, whose nodes are every second Kronrod node.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.zeros(11)
_WG[1::2] = (0.066671344308688137593568809893332,
             0.149451349150580593145776339657697,
             0.219086362515982043995534934228163,
             0.269266719309996355091226921569469,
             0.295524224714752870173892994651338)
# the full 21-node rule on [-1, 1], in increasing order of the node
_XK = np.concatenate([-_XGK, _XGK[-2::-1]])
_WK = np.concatenate([_WGK, _WGK[-2::-1]])
_WGAUSS = np.concatenate([_WG, _WG[-2::-1]])

# most panels one finite radial range may be split into before the
# integral counts as not converged (QUADPACK's limit in the same role)
PANEL_BUDGET = 300

# share of epsabs that the weighted radial errors of one angular level
# may use together: the difference of two levels then carries at most
# half of epsabs of radial noise, and the angular test can still pass
RADIAL_SHARE = 0.25

# nodes of the first angular level of axisymmetric_integral, which
# doubles them until the value is stable
N_ANGULAR = 8


def _gk21(fv: np.ndarray, half: np.ndarray):
    """Value and QUADPACK error estimate of the K21 rule on each panel,
    from the integrand values fv (panels x 21) and the half-widths."""
    resk = fv @ _WK
    resg = fv @ _WGAUSS
    resabs = np.abs(fv) @ _WK * half
    resasc = np.abs(fv - 0.5 * resk[:, None]) @ _WK * half
    err = np.abs(resk - resg) * half
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.where((resasc != 0.0) & (err != 0.0),
                       resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5),
                       err)
    err = np.maximum(err, 50.0 * np.finfo(float).eps * resabs)
    return resk * half, err


def _gk_panels(f: Callable, lo, hi, owner, u, epsabs: float, epsrel: float):
    """Adaptive G10/K21 integrals of f(r, u) over unions of panels.

    Panel i, from lo[i] to hi[i], belongs to integral owner[i], which is
    taken at cosine u[owner[i]].  Each round evaluates f once, on the 21
    nodes of every new panel; an integral stops once its summed error
    estimate is within max(epsabs, epsrel*|value|), and otherwise bisects
    its largest-error panels until the rest hold under half that bound.
    Returns value, error estimate and evaluation count per integral;
    raises QuadNotConverged when an integral would need more than
    PANEL_BUDGET panels.
    """
    n = len(u)
    value, error = np.zeros(n), np.zeros(n)
    n_evals = np.zeros(n, dtype=np.int64)
    k_lo = k_hi = k_val = k_err = np.zeros(0)
    k_own = np.zeros(0, dtype=np.int64)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    owner = np.asarray(owner, dtype=np.int64)
    while lo.size:
        half = 0.5 * (hi - lo)
        r = (0.5 * (hi + lo))[:, None] + half[:, None] * _XK
        fv = f(r, np.broadcast_to(u[owner][:, None], r.shape))
        if not np.all(np.isfinite(fv)):
            raise QuadNotConverged("integrand is not finite on a radial panel")
        val, err = _gk21(fv, half)
        n_evals += _XK.size * np.bincount(owner, minlength=n)
        k_lo, k_hi = np.concatenate([k_lo, lo]), np.concatenate([k_hi, hi])
        k_own = np.concatenate([k_own, owner])
        k_val, k_err = np.concatenate([k_val, val]), np.concatenate([k_err, err])

        present = np.bincount(k_own, minlength=n) > 0
        total = np.bincount(k_own, k_val, minlength=n)
        total_err = np.bincount(k_own, k_err, minlength=n)
        value[present], error[present] = total[present], total_err[present]
        tol = np.maximum(epsabs, epsrel * np.abs(total))
        keep = (total_err > tol)[k_own]
        if not keep.any():
            break
        k_lo, k_hi, k_own = k_lo[keep], k_hi[keep], k_own[keep]
        k_val, k_err = k_val[keep], k_err[keep]

        # per integral, largest errors first: split each panel while it
        # and the smaller ones after it still sum to over half the tolerance
        order = np.lexsort((-k_err, k_own))
        e_sorted, o_sorted = k_err[order], k_own[order]
        before = np.cumsum(e_sorted) - e_sorted
        first = np.searchsorted(o_sorted, o_sorted)
        rest = total_err[o_sorted] - (before - before[first])
        split = np.zeros(k_err.size, dtype=bool)
        split[order] = rest > 0.5 * tol[o_sorted]
        counts = (np.bincount(k_own, minlength=n)
                  + np.bincount(k_own[split], minlength=n))
        if counts.max() > PANEL_BUDGET:
            raise QuadNotConverged(
                "radial integral needs more than %d panels" % PANEL_BUDGET)
        mid = 0.5 * (k_lo[split] + k_hi[split])
        lo = np.concatenate([k_lo[split], mid])
        hi = np.concatenate([mid, k_hi[split]])
        owner = np.tile(k_own[split], 2)
        k_lo, k_hi, k_own = k_lo[~split], k_hi[~split], k_own[~split]
        k_val, k_err = k_val[~split], k_err[~split]
    return value, error, n_evals


def _power_tail(f: Callable, r0, floor):
    """Integrals of f over [r0, inf) assuming a local power law.

    r0 and floor are arrays, one entry per integral; f maps radii of
    shape (m, 3) to values, and is called once on r0, 2*r0, 4*r0, from
    which the decay exponent is measured.  Returns arrays (tail,
    error_guess, usable) where usable is False if the samples do not look
    like a settled decaying power.  A tail whose crude bound already sits
    below floor counts as zero (this catches super-power decay, where the
    exponent estimate never settles), unless the measured exponent is
    below 1.2: for r^-q the crude bound covers the tail f0*r0/(q-1) only
    when 4(q-1)(1 + 2^-q + 4^-q) >= 1, i.e. q >= 1.15.
    """
    r0 = np.asarray(r0, dtype=float)
    f0, f1, f2 = f(r0[:, None] * np.array([1.0, 2.0, 4.0])).T
    crude = 4.0 * r0 * (np.abs(f0) + np.abs(f1) + np.abs(f2))
    with np.errstate(divide="ignore", invalid="ignore"):
        q1 = np.log(np.abs(f0 / f1)) / np.log(2.0)
        q2 = np.log(np.abs(f1 / f2)) / np.log(2.0)
        # all-zero samples give q2 = nan and stay negligible
        negligible = (crude <= floor) & ~(q2 < 1.2)
        settled = ((f0 != 0.0) & (np.sign(f0) == np.sign(f1))
                   & (np.sign(f1) == np.sign(f2)) & (q2 > 1.05)
                   & (np.abs(q1 - q2) <= 0.2 * np.maximum(1.0, np.abs(q2))))
        tail = np.where(settled, f0 * r0 / (q2 - 1.0), 0.0)
        # the spread between the two exponent estimates estimates the
        # model error but does not bound it: at r0 = 8 on the gross growth
        # integrand (|p| = 2.5, u = 0.9) it is 1.94e-4, the error 4.23e-4
        alt = np.where(q1 > 1.05, f0 * r0 / (q1 - 1.0), 2.0 * tail)
    guess = np.where(settled, np.abs(tail - alt) + 1e-16 * np.abs(tail), np.inf)
    return (np.where(negligible, 0.0, tail), np.where(negligible, crude, guess),
            negligible | settled)


def _radial_integrals(f: Callable, u, lo: float, hi: float, kinks,
                      epsabs: float, epsrel: float):
    """Integrals of f(r, u_j) over [lo, hi) for every cosine u_j, with the
    interior break points kinks[j]; hi may be inf, in which case an
    analytic power tail finishes each integral beyond an adaptively grown
    radius.  Returns arrays (inner, tail, error, n_evals) over j."""
    finite = np.isfinite(hi)
    p_lo, p_hi, p_own, r0 = [], [], [], []
    for j, ks in enumerate(kinks):
        pts = sorted({float(x) for x in ks if lo < x < hi})
        end = hi if finite else max(8.0, lo * 2.0, *(4.0 * p for p in pts))
        edges = [lo] + pts + [end]
        p_lo += edges[:-1]
        p_hi += edges[1:]
        p_own += [j] * (len(edges) - 1)
        r0.append(end)
    inner, err, n_evals = _gk_panels(f, p_lo, p_hi, p_own, u, epsabs, epsrel)
    tail = np.zeros(len(u))
    if finite:
        return inner, tail, err, n_evals

    r0 = np.array(r0)
    active = np.arange(len(u))
    for _ in range(60):
        ua = u[active]
        floor = 0.5 * np.maximum(epsabs, epsrel * np.abs(inner[active]))
        t, t_err, usable = _power_tail(
            lambda r: f(r, np.broadcast_to(ua[:, None], r.shape)),
            r0[active], floor)
        n_evals[active] += 3
        scale = np.maximum(np.abs(inner[active] + t), 1e-12)
        done = usable & (t_err <= np.maximum(epsabs, epsrel * scale))
        tail[active[done]] = t[done]
        err[active[done]] += t_err[done]
        active = active[~done]
        if not active.size:
            return inner, tail, err, n_evals
        ra = r0[active]
        piece, p_err, p_evals = _gk_panels(f, ra, 2.0 * ra,
                                           np.arange(active.size), u[active],
                                           epsabs, epsrel)
        inner[active] += piece
        err[active] += p_err
        n_evals[active] += p_evals
        r0[active] = 2.0 * ra
    raise QuadNotConverged("radial tail did not settle into a power law")


def axisymmetric_integral(integrand: Callable, d: int, lo: float, hi: float,
                          kinks: Optional[Callable] = None,
                          u_kinks: Sequence[float] = (),
                          epsabs: float = EPSABS_DEFAULT,
                          epsrel: float = EPSREL_DEFAULT,
                          n_angular_max: int = 128) -> QuadResult:
    """Integral over {lo <= |k| <= hi} of an axisymmetric integrand.

    integrand(r, u) is the integrand value at radius r and cosine u of
    the angle to the symmetry axis, evaluated elementwise on two float
    arrays of the same shape (a batch of radii, each with its cosine);
    kinks(u) may supply, for one cosine, radii where the radial profile
    loses smoothness, u_kinks are cosines where the angular profile does.
    The angular rule is refined by doubling until stable.  Each radial
    integral runs adaptive G10/K21 panels, split first at the kinks, to
    within max(RADIAL_SHARE*epsabs/sum|w|, epsrel*|value|), w being the
    angular weights, so that radial noise cannot hold the angular test
    above its tolerance; a finite range may use at most PANEL_BUDGET
    panels.  QuadNotConverged is raised when that budget runs out, when
    the integrand is not finite at a node, when a power tail does not
    settle, or when the angular rule has not converged by n_angular_max
    nodes.  An empty range (lo == hi) integrates to exactly zero.
    """
    if lo == hi:
        return QuadResult(0.0, 0.0, 0.0, 0.0, 0)

    def radial(r, u):
        v = np.broadcast_to(np.asarray(integrand(r, u), dtype=float), r.shape)
        return r ** (d - 1) * v if d > 1 else v

    def evaluate(n_nodes: int):
        nodes, weights = _angular_rule(d, n_nodes, u_kinks)
        ks = [kinks(u) if kinks is not None else () for u in nodes]
        radial_epsabs = RADIAL_SHARE * epsabs / np.abs(weights).sum()
        inner, tail, err, n_evals = _radial_integrals(
            radial, nodes, lo, hi, ks, radial_epsabs, epsrel)
        return (float(weights @ inner), float(weights @ tail),
                float(np.abs(weights) @ err), int(n_evals.sum()))

    if d == 1:
        inner, tail, err, n_evals = evaluate(2)
        return QuadResult(inner + tail, err, inner, tail, n_evals)

    inner, tail, err, n_evals = evaluate(N_ANGULAR)
    n = N_ANGULAR
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
# argument rules, one function each, called by every entry point

def check_cutoff(lambda_uv) -> None:
    """A cutoff radius is a number >= 0; inf passes, nan does not."""
    if not lambda_uv >= 0:
        raise ValueError("cutoff lambda_uv must be >= 0, got %r" % (lambda_uv,))


def check_shift(lambda_shift, params: Optional[ModelParams] = None) -> None:
    """An energy shift is finite and >= 0.  Given the model, as where
    L + lambda is inverted, massless bosons need a shift > 0."""
    if not 0 <= lambda_shift < np.inf:
        raise ValueError("energy shift must be finite and >= 0, got %r"
                         % (lambda_shift,))
    if params is not None and params.m_boson == 0.0 and lambda_shift == 0:
        raise MasslessWithoutShift(
            "massless bosons need a positive energy shift lambda")


def check_variants(variants) -> None:
    """Counterterm variants: at least one, distinct, each 1 or 2."""
    if not 0 < len(variants) == len(set(variants) & {1, 2}):
        raise ValueError("variants must be distinct values from {1, 2}")


# ---------------------------------------------------------------------------
# recoil integrals: terms(w, theta(k), theta(p-k), omega(k)), w = |v_p(-k)|^2

def _counterterm_terms(variant: int) -> Callable:
    """w / (theta(k)+omega) for variant 1, w / (theta(p-k)+omega) for 2."""
    if variant == 1:
        return lambda w, th_k, th_pk, om: w / (th_k + om)
    return lambda w, th_k, th_pk, om: w / (th_pk + om)


def _j_terms(w, th_k, th_pk, om):
    """The two counterterm weights subtracted inside one expression."""
    d1, d2 = th_k + om, th_pk + om
    return w * (d2 - d1) / (d1 * d2)


def _growth_terms(w, th_k, th_pk, om):
    return w * np.abs(th_k - th_pk) / ((th_pk + om) * (th_k + om))


def _recoil_integral(terms: Callable, p, i_nucleon: int, params: ModelParams,
                     lo: float, hi: float, **engine) -> QuadResult:
    """Integral of terms over lo <= |k| <= hi, radially split at the
    default kinks of |p|, by the engine with settings engine."""
    p_norm = _norm_of(p)

    def integrand(r, u):
        rho = _shift_norm(p_norm, r, u)
        return terms(ff_sq_axial(i_nucleon, p_norm, r, -u, params),
                     dispersion_nucleon_norm(r, params),
                     dispersion_nucleon_norm(rho, params),
                     dispersion_boson_norm(r, params))

    return axisymmetric_integral(integrand, params.d, float(lo), float(hi),
                                 kinks=_default_kinks(p_norm), **engine)


def counterterm(p, lambda_uv: float, variant: int, params: ModelParams,
                i_nucleon: int = 0) -> QuadResult:
    """Single-nucleon counterterm at cutoff radius lambda_uv.

    Integrates |v_{p-k}(k)|^2 / (theta(k)+omega(k)) (variant 1) or with
    theta(p-k) in the denominator (variant 2) over the ball of radius
    lambda_uv.  Diverges as the cutoff grows, so an infinite cutoff is
    rejected.
    """
    check_variants((variant,))
    check_cutoff(lambda_uv)
    if not np.isfinite(lambda_uv):
        raise ValueError("the counterterm diverges at infinite cutoff")
    return _recoil_integral(_counterterm_terms(variant), p, i_nucleon, params,
                            0.0, lambda_uv)


def integral_J(p, lambda_uv: float, params: ModelParams,
               i_nucleon: int = 0) -> QuadResult:
    """Dispersion-shift integral: the difference of the two counterterm
    weights combined into one integrand,

        J(p) = int |v_p(-k)|^2 [ (theta(k)+omega(k))^(-1)
                                 - (theta(p-k)+omega(k))^(-1) ] dk,

    over |k| <= lambda_uv (inf allowed: the subtracted integrand decays).
    Equals counterterm(variant=1) - counterterm(variant=2) at equal cutoff.
    """
    check_cutoff(lambda_uv)
    return _recoil_integral(_j_terms, p, i_nucleon, params, 0.0, lambda_uv)


def integral_I(P, K_hat, lambda_uv: float, ell: int, params: ModelParams,
               lambda_shift: float = 0.0) -> QuadResult:
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
    check_cutoff(lambda_uv)
    check_shift(lambda_shift)
    theta_all = dispersion_nucleon(P, params)
    rest = float(np.sum(theta_all) - theta_all[ell]
                 + np.sum(dispersion_boson_norm(np.linalg.norm(K_hat, axis=-1), params))
                 + lambda_shift)

    def terms(w, th_k, th_pk, om):
        ref, shifted = th_k + om, th_pk + rest + om
        return w * (ref - shifted) / (shifted * ref)

    return _recoil_integral(terms, P[ell], ell, params, 0.0, lambda_uv)


def condition_b_lhs(p, lambda_uv: float, params: ModelParams,
                    i_nucleon: int = 0) -> QuadResult:
    """Growth-condition integral with the exterior cutoff 1 - chi_Lambda:

        int_{|k| >= lambda_uv} |v_p(-k)|^2 |theta(k) - theta(p-k)|
            / ((theta(p-k)+omega(k)) (theta(k)+omega(k))) dk.

    The absolute value has a radial kink where |k| = |p-k|; the radial
    panels split there, and the angular rule splits where that interface
    crosses the inner boundary.  The angular budget (512 nodes) is larger
    than the engine default because the unsplit remnant of that kink
    slows the doubling rule in narrow bands of |p|.
    """
    check_cutoff(lambda_uv)
    p_norm = _norm_of(p)
    u_kinks = [0.0]
    if p_norm > 0.0 and lambda_uv > 0.0 and p_norm / (2.0 * lambda_uv) < 1.0:
        u_kinks.append(p_norm / (2.0 * lambda_uv))
    return _recoil_integral(_growth_terms, p_norm, i_nucleon, params,
                            lambda_uv, np.inf, u_kinks=u_kinks,
                            n_angular_max=512)


# ---------------------------------------------------------------------------
# scaling bound

def scaling_lhs(p, omega_shift: float, lambda_uv: float, exps: ScalingExponents,
                params: ModelParams) -> QuadResult:
    """Left-hand side of the scaling bound:

        int_{|k| >= lambda_uv} |k|^(-nu) |p-k|^(-sigma)
            / (|p-k|^gamma + |k|^beta + omega_shift)^r dk

    with pure powers of the model exponents gamma and beta.  Requires
    the integrability window d in (nu+sigma, nu+sigma+r*gamma).
    """
    exps.check_window(params)
    nu, sig, rr = exps.nu_exp, exps.sigma_exp, exps.r
    d, gam, bet = params.d, params.gamma, params.beta
    check_shift(omega_shift)
    check_cutoff(lambda_uv)
    p_norm = _norm_of(p)

    def integrand(r, u):
        rho = _shift_norm(p_norm, r, u)
        num = r ** (-nu) if nu else 1.0
        if sig:
            num = num * rho ** (-sig)
        den = (rho ** gam + r ** bet + omega_shift) ** rr
        return num / den

    return axisymmetric_integral(integrand, d, float(lambda_uv), np.inf,
                                 kinks=_default_kinks(p_norm))


@dataclass(frozen=True)
class ScalingFitReport:
    fitted_c: float
    worst_ratio: float
    monotone_in_lambda: bool
    n_points: int
    ratios: tuple


def scaling_bound_fit(param_sweep, delta: float = 0.0) -> ScalingFitReport:
    """Fit the scaling-bound constant over a parameter sweep.

    Each sweep point is a mapping with keys p, omega_shift, lambda_uv,
    exps, params.  The compensated ratio is

        lhs * omega_shift^(r - (d-nu-sigma)/gamma - delta_L) * lambda^(beta*delta_L)

    with delta_L = delta for lambda_uv > 1 and 0 otherwise.  Reports the
    supremum (the fitted constant) and whether the ratio without the
    lambda compensation is nonincreasing along increasing lambda_uv > 1
    within each (p, omega_shift) group.
    """
    if not delta >= 0:
        raise ValueError("delta must be >= 0")
    ratios = []
    groups = {}
    for point in param_sweep:
        exps: ScalingExponents = point["exps"]
        params: ModelParams = point["params"]
        p_norm = _norm_of(point["p"])
        om = float(point["omega_shift"])
        lam = float(point["lambda_uv"])
        if not om > 0:
            raise ValueError("omega_shift must be > 0 in the fit")
        lhs = scaling_lhs(point["p"], om, lam, exps, params).value
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

    lambda_uv = None means the native cutoff (every mode in the box), 0
    selects nothing, and check_cutoff refuses the rest.  Massless bosons
    always drop the zero mode, where the form factor is singular.
    """
    norms = grid.norms()
    if lambda_uv is None:
        mask = np.ones(grid.size, dtype=bool)
    else:
        check_cutoff(lambda_uv)
        mask = (norms <= float(lambda_uv) * (1.0 + 1e-12)) & (lambda_uv > 0)
    if params.m_boson == 0.0:
        mask = mask & (norms > 0.0)
    return mask


#: the unmasked shift data by (grid id, params id, nucleon, p set) while
#: a _shift_data_kept scope is open in this thread or task; None outside
_KEPT_SHIFTS = contextvars.ContextVar("_KEPT_SHIFTS", default=None)


@contextlib.contextmanager
def _shift_data_kept():
    """Scope (a with block or a decorator) inside which _grid_shift_data
    keeps what it builds from the cutoff-free part of its inputs, so the
    repeated lattice twins of one p set (a cutoff ladder, both variants)
    build it once.  A nested scope shares the outermost one's store, and
    the store is dropped when that scope ends."""
    if _KEPT_SHIFTS.get() is not None:
        yield
        return
    token = _KEPT_SHIFTS.set({})
    try:
        yield
    finally:
        _KEPT_SHIFTS.reset(token)


def _grid_shift_data(p_indices, grid: MomentumGrid, params: ModelParams,
                     i_nucleon: int, lambda_uv):
    """Weights and masks shared by the lattice sums: for every p in
    p_indices and every mode q, the cell weight h^d |v_{p-q}(q)|^2, the
    shifted dispersion theta(p-q), and the participation mask (|q| within
    the cutoff and p-q on the lattice).

    All three depend on p only through its lattice index, so they are
    evaluated once per distinct index and gathered into the shape
    p_indices.shape + (modes,); repeated indices get identical values.
    Only the cutoff mask depends on lambda_uv: inside a _shift_data_kept
    scope (the converge and identity commands hold one for their whole
    run) the (distinct p x modes) arrays before it are kept per grid and
    params object (by identity: equal CUSTOM models may differ in their
    callables), nucleon and set of distinct p, until the scope ends;
    outside one they are built on every call.  resolvent_sum_grid passes
    the p of each distinct (p, rest) pair, whose distinct p are those of
    its states, so its key is theirs."""
    p_indices = np.asarray(p_indices)
    flat, inverse = np.unique(p_indices, return_inverse=True)
    mode_mask = grid_mode_mask(grid, lambda_uv, params)
    store = _KEPT_SHIFTS.get()
    store = {} if store is None else store
    key = (id(grid), id(params), i_nucleon, flat.dtype.str, flat.tobytes())
    if key not in store:
        tgt, valid = translate_indices(grid, flat[:, None],
                                       np.arange(grid.size), sign=-1)
        shifted = grid.points[tgt]                 # p - q (junk where invalid)
        q_pts = np.broadcast_to(grid.points, shifted.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.abs(form_factor(i_nucleon, shifted, q_pts, params)) ** 2
            w *= grid.cell_weight
        # the kept grid and params keep their ids from being reused
        store[key] = (grid, params, w, dispersion_nucleon(shifted, params),
                      valid)
    w, theta_shift, valid = store[key][2:]
    mask = mode_mask & valid
    inverse = inverse.reshape(p_indices.shape)
    return (np.where(mask, w, 0.0)[inverse],
            np.where(mask, theta_shift, 1.0)[inverse], mask[inverse])


def _lattice_sum(terms: Callable, p_indices, grid: MomentumGrid, lambda_uv,
                 params: ModelParams, i_nucleon: int) -> np.ndarray:
    """Cell sum over the participating modes q of terms(h^d |v_{p-q}(q)|^2,
    theta(q), theta(p-q), omega(q)) for every p in p_indices, with theta(q)
    and omega(q) taken from |q|."""
    w, theta_shift, mask = _grid_shift_data(p_indices, grid, params, i_nucleon,
                                            lambda_uv)
    norms = grid.norms()
    with np.errstate(invalid="ignore"):
        vals = terms(w, dispersion_nucleon_norm(norms, params), theta_shift,
                     dispersion_boson_norm(norms, params))
        return np.where(mask, vals, 0.0).sum(axis=-1)


def counterterm_grid(p_indices, grid: MomentumGrid, lambda_uv, variant: int,
                     params: ModelParams, i_nucleon: int = 0) -> np.ndarray:
    """Lattice twin of counterterm: the cell sum of its terms over the
    modes q with |q| <= lambda_uv and p-q still on the lattice."""
    check_variants((variant,))
    return _lattice_sum(_counterterm_terms(variant), p_indices, grid,
                        lambda_uv, params, i_nucleon)


def integral_j_grid(p_indices, grid: MomentumGrid, lambda_uv,
                    params: ModelParams, i_nucleon: int = 0) -> np.ndarray:
    """Lattice twin of the dispersion-shift integral; equals the
    difference of the two lattice counterterm variants exactly."""
    return _lattice_sum(_j_terms, p_indices, grid, lambda_uv, params, i_nucleon)


def resolvent_sum_grid(p_indices, rest_energies, grid: MomentumGrid, lambda_uv,
                       params: ModelParams, i_nucleon: int = 0,
                       lambda_shift: float = 0.0) -> np.ndarray:
    """Unsubtracted lattice resolvent sum

        sum_q h^d |v_{p-q}(q)|^2 / (theta(p-q) + rest + omega(q) + lambda).

    This is the raw quantity mediated by one virtual boson; minus the
    lattice counterterm of variant 1 it is the cell sum of the
    regularized diagonal integral integral_I.

    The sum depends on a state only through its (p index, rest) pair, so
    it is evaluated once per distinct pair and gathered into the shape
    p_indices.shape.  Pairs are told apart by the bit pattern of rest:
    signed zeros and NaNs are never merged.
    """
    check_shift(lambda_shift)
    p_indices = np.asarray(p_indices)
    rest = np.broadcast_to(np.asarray(rest_energies, dtype=float),
                           p_indices.shape)
    # pair number p * (distinct rests) + rank of rest; an empty input
    # has no rest, and no pair
    bits, rest_of = np.unique(rest.ravel().view(np.int64), return_inverse=True)
    n_rest = max(bits.size, 1)
    pairs, inverse = np.unique(
        p_indices.ravel().astype(np.int64) * n_rest + rest_of.ravel(),
        return_inverse=True)
    p_u, rest_u = np.divmod(pairs, n_rest)
    rest_u = bits.view(float)[rest_u][:, None]
    sums = _lattice_sum(
        lambda w, th_q, th_pq, om: w / (th_pq + rest_u + om + lambda_shift),
        p_u, grid, lambda_uv, params, i_nucleon)
    return sums[inverse.ravel()].reshape(p_indices.shape)
