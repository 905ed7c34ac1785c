"""One rule per recurring argument, called by every public entry point.

The cutoff radius lambda_uv is a number >= 0 (quad.check_cutoff), the
energy shift lambda_shift a finite number >= 0, > 0 for massless bosons
where L + lambda is inverted (quad.check_shift), and a solver tolerance
a finite number > 0 (spectral.check_tol).  Each row of ROWS is a public
function that takes one of these, with the keyword arguments of one
valid call: a NaN or negative value of each such argument (and an
infinite shift, or a zero or infinite tolerance) must raise ValueError,
and the valid boundary values (cutoff 0, None on the lattice, inf for J
and I and for the exterior integrals, shift 0 on massive bosons) must
still pass.  A scan of the package's public signatures holds that every
function taking a cutoff or a shift has a row, so a new entry point
cannot skip the rule, and that the quadrature tolerances (epsabs,
epsrel, n_angular_max) are taken by the engine, axisymmetric_integral,
alone: the integrals built on it do not re-declare them.
"""

import functools
import inspect
import warnings

import numpy as np
import pytest

import ibcfock as ib
from ibcfock.errors import MasslessNucleon, MasslessWithoutShift

GROSS = ib.gross_model()
MASSLESS = ib.gross_model(m_boson=0.0)
P = np.array([0.5, 0.0])
EXPS = ib.ScalingExponents(nu_exp=0.0, sigma_exp=0.0, r=2.5)

CUTOFF, SHIFT = "lambda_uv", "lambda_shift"
TOLERANCES = ("tol", "eig_tol")


@functools.lru_cache(maxsize=None)
def basis(params=GROSS, n_nucleons=1, k_max=1.0, nax=3):
    """A small basis; cached, since the rows only read it."""
    if n_nucleons == 2:
        params = ib.gross_model(m_boson=params.m_boson, n_nucleons=2)
    return ib.enumerate_basis(params, ib.build_grid(2, k_max, nax), 1)


def ladder(params=GROSS):
    return [basis(params, 1, k, n) for k, n in ((0.5, 3), (1.0, 5), (1.5, 7))]


def grid():
    return basis().grid


# name -> keyword arguments of one valid call of ib.<name>
ROWS = {
    "grid_mode_mask": lambda: dict(grid=grid(), lambda_uv=1.0, params=GROSS),
    "counterterm_grid": lambda: dict(p_indices=np.arange(3), grid=grid(),
                                     lambda_uv=1.0, variant=1, params=GROSS),
    "integral_j_grid": lambda: dict(p_indices=np.arange(3), grid=grid(),
                                    lambda_uv=1.0, params=GROSS),
    "resolvent_sum_grid": lambda: dict(
        p_indices=np.arange(3), rest_energies=1.0, grid=grid(),
        lambda_uv=1.0, params=GROSS, lambda_shift=0.5),
    "counterterm": lambda: dict(p=P, lambda_uv=1.0, variant=1, params=GROSS),
    "integral_J": lambda: dict(p=P, lambda_uv=1.0, params=GROSS),
    "integral_I": lambda: dict(P=P, K_hat=None, lambda_uv=1.0, ell=0,
                               params=GROSS, lambda_shift=0.5),
    "condition_b_lhs": lambda: dict(p=P, lambda_uv=1.0, params=GROSS),
    "scaling_lhs": lambda: dict(p=np.zeros(2), omega_shift=1.0,
                                lambda_uv=1.0, exps=EXPS, params=GROSS),
    "assemble_creation": lambda: dict(basis=basis(), lambda_uv=1.0),
    "assemble_annihilation": lambda: dict(basis=basis(), lambda_uv=1.0),
    "assemble_H_direct": lambda: dict(basis=basis(), lambda_uv=1.0,
                                      variant=1),
    "assemble_G": lambda: dict(basis=basis(), lambda_uv=1.0,
                               lambda_shift=0.5),
    "assemble_T_cutoff": lambda: dict(basis=basis(), lambda_uv=1.0,
                                      lambda_shift=0.5),
    "assemble_Td": lambda: dict(basis=basis(), lambda_uv=1.0, variant=1,
                                lambda_shift=0.5),
    "assemble_theta": lambda: dict(basis=basis(n_nucleons=2), i=0, ell=1,
                                   lambda_uv=1.0, lambda_shift=0.5),
    "assemble_tau": lambda: dict(basis=basis(n_nucleons=2), i=0, ell=1,
                                 lambda_uv=1.0, lambda_shift=0.5),
    "assemble_T_od": lambda: dict(basis=basis(n_nucleons=2), lambda_uv=1.0,
                                  lambda_shift=0.5),
    "assemble_H_ibc": lambda: dict(basis=basis(), lambda_uv=1.0, variant=1,
                                   lambda_shift=0.5),
    "cutoff_convergence_study": lambda: dict(
        basis=basis(), lambda_list=[0.5, 1.0], variants=(1,),
        lambda_shift=0.5, eig_tol=1e-9),
    "regularity_diagnostic": lambda: dict(
        bases=ladder(), variant=1, eta_list=[0.25], lambda_shift=0.5,
        eig_tol=1e-8),
    "lowest_eigenpairs": lambda: dict(op=ib.assemble_L(basis()), tol=1e-9),
}

# cutoffs other than 0 that a row accepts: None selects the native
# cutoff on the lattice, J and I converge at infinite cutoff, and the
# exterior integrals are empty there
LATTICE = {"grid_mode_mask", "counterterm_grid", "integral_j_grid",
           "resolvent_sum_grid"} | {n for n in ROWS if n.startswith("assemble")}
EXTRA_CUTOFFS = {**{n: (None,) for n in LATTICE},
                 **{n: (np.inf,) for n in ("integral_J", "integral_I",
                                           "condition_b_lhs", "scaling_lhs")}}


def rule_args(name):
    """The rule arguments of ib.<name>: a cutoff, a shift (scaling_lhs
    calls its omega_shift one) or a solver tolerance."""
    names = inspect.signature(getattr(ib, name)).parameters
    return [a for a in (CUTOFF, SHIFT, "omega_shift") + TOLERANCES
            if a in names]


def call(name, **override):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return getattr(ib, name)(**{**ROWS[name](), **override})


BAD_VALUES = {CUTOFF: (np.nan, -1.0), SHIFT: (np.nan, -1.0, np.inf),
              "omega_shift": (np.nan, -1.0, np.inf),
              **{tol: (np.nan, -1.0, -1e-9, 0.0, np.inf) for tol in TOLERANCES}}
BAD = [(name, arg, value) for name in ROWS for arg in rule_args(name)
       for value in BAD_VALUES[arg]]


@pytest.mark.parametrize("name, arg, value", BAD,
                         ids=["%s-%s=%r" % case for case in BAD])
def test_bad_rule_argument_is_a_value_error(name, arg, value):
    with pytest.raises(ValueError, match=arg if arg in TOLERANCES else None):
        call(name, **{arg: value})


GOOD = ([(name, CUTOFF, value) for name in ROWS if CUTOFF in rule_args(name)
         for value in (0.0,) + EXTRA_CUTOFFS.get(name, ())]
        + [(name, SHIFT, 0.0) for name in ROWS if SHIFT in rule_args(name)])


@pytest.mark.parametrize("name, arg, value", GOOD,
                         ids=["%s-%s=%r" % case for case in GOOD])
def test_boundary_value_still_passes(name, arg, value):
    call(name, **{arg: value})


@pytest.mark.parametrize("name, lam", [
    ("counterterm", 0.0), ("integral_J", 0.0), ("integral_I", 0.0),
    ("condition_b_lhs", np.inf), ("scaling_lhs", np.inf)])
def test_empty_range_integrates_to_exact_zero(name, lam):
    res = call(name, lambda_uv=lam)
    assert res.value == 0.0 and res.n_evals == 0


def test_every_cutoff_or_shift_taker_has_a_row():
    takers = {name for name, obj in vars(ib).items()
              if inspect.isfunction(obj) and not name.startswith("_")
              and {CUTOFF, SHIFT} & set(inspect.signature(obj).parameters)}
    assert takers - set(ROWS) == set()
    assert all(rule_args(name) for name in ROWS)


def test_only_the_engine_takes_quadrature_tolerances():
    engine = {"epsabs", "epsrel", "n_angular_max"}
    takers = {name for name, obj in vars(ib).items()
              if callable(obj) and not name.startswith("_")
              and engine & set(inspect.signature(obj).parameters)}
    assert takers == {"axisymmetric_integral"}


# the massless rule applies only where L + lambda is inverted
INVERTS = {"assemble_G", "assemble_T_cutoff", "assemble_H_ibc",
           "cutoff_convergence_study", "regularity_diagnostic"}


def massless_row(name):
    kwargs = ROWS[name]()
    if "basis" in kwargs:
        n_nucleons = kwargs["basis"].params.n_nucleons
        kwargs["basis"] = basis(MASSLESS, n_nucleons)
    if "bases" in kwargs:
        kwargs["bases"] = ladder(MASSLESS)
    if "params" in kwargs:
        kwargs["params"] = MASSLESS
    return kwargs


@pytest.mark.parametrize("name", sorted(n for n in ROWS
                                        if SHIFT in rule_args(n)))
def test_massless_shift_zero_is_refused_only_where_inverted(name):
    kwargs = {**massless_row(name), SHIFT: 0.0}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if name in INVERTS:
            with pytest.raises(MasslessWithoutShift):
                getattr(ib, name)(**kwargs)
        else:
            getattr(ib, name)(**kwargs)


# scalars of the model and the scaling bound outside the three rules
SWEEP = [dict(p=np.zeros(2), omega_shift=1.0, lambda_uv=2.0, exps=EXPS,
              params=GROSS)]
SCALARS = {
    "kinematic mu nan": (lambda: ib.eckmann_kinematic_bound(
        np.nan, n_samples=10), MasslessNucleon),
    "kinematic delta nan": (lambda: ib.eckmann_kinematic_bound(
        1.0, delta=np.nan, n_samples=10), ValueError),
    "eckmann delta nan": (lambda: ib.eckmann_model(delta=np.nan),
                          ValueError),
    "family epsilon nan": (lambda: ib.appendix_parameter_family(
        ib.nelson_model(), np.nan), ValueError),
    "fit delta nan": (lambda: ib.scaling_bound_fit(SWEEP, delta=np.nan),
                      ValueError),
    "fit omega nan": (lambda: ib.scaling_bound_fit(
        [{**SWEEP[0], "omega_shift": np.nan}]), ValueError),
    "window r nan": (lambda: ib.ScalingExponents(0.0, 0.0, np.nan)
                     .check_window(GROSS), ValueError),
}


@pytest.mark.parametrize("case", sorted(SCALARS))
def test_nan_scalar_raises_the_named_error(case):
    run, error = SCALARS[case]
    with pytest.raises(error) as info:
        run()
    assert type(info.value) is error
