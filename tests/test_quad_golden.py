"""Golden panel of the continuum integrals.

The values were recorded with the previous radial engine (QUADPACK's
adaptive 21-point rule through scipy.integrate.quad, one scalar callback
per point) at the default tolerances (epsabs 1e-9, epsrel 1e-8).  The
vectorized G10/K21 engine must reproduce each within 1e-8 relative or
1e-9 absolute: both engines stop every radial integral under the same
tolerance, and the angular rule, kinks and tail model are shared.
"""

import numpy as np
import pytest

import ibcfock as ib

INF = np.inf
MODELS = {
    "gross": (ib.gross_model(coupling=1.0, mu=1.0, m_boson=1.0),
              (0.7, -0.3), (0.5, 0.6, 1.5)),
    "eckmann": (ib.eckmann_model(delta=0.2, coupling=1.0, mu=1.0,
                                 m_boson=1.0),
                (0.4, -0.2, 0.1), (0.5, 0.6, 2.5)),
    "nelson": (ib.nelson_model(coupling=1.0, mu=1.0, m_boson=1.0),
               (0.5, 0.0, 0.3), (0.5, 0.6, 1.5)),
}

# (model, integral, momentum, cutoff, value); p0 is zero, p1 the model's
# momentum above and p2.5 the same direction at |p| = 2.5
GOLDEN = [
    ("gross", "counterterm v1", "p0", 1.0, 1.088793045151801),
    ("gross", "counterterm v2", "p0", 1.0, 1.088793045151801),
    ("gross", "counterterm v1", "p0", 4.0, 4.4504011138697885),
    ("gross", "counterterm v2", "p0", 4.0, 4.4504011138697885),
    ("gross", "counterterm v1", "p1", 1.0, 1.088793045151801),
    ("gross", "counterterm v2", "p1", 1.0, 1.0114272371106021),
    ("gross", "counterterm v1", "p1", 4.0, 4.4504011138697885),
    ("gross", "counterterm v2", "p1", 4.0, 4.342669727759172),
    ("gross", "integral_J", "p1", 3.0, 0.10693597433476883),
    ("gross", "integral_I shift1", "p0", 3.0, -0.8126432776789685),
    ("gross", "integral_I K", "p1", 3.0, -1.1937105947734228),
    ("gross", "integral_J", "p1", INF, 0.1081461863223276),
    ("gross", "integral_I shift1", "p0", INF, -1.2738062032875344),
    ("gross", "integral_I K", "p1", INF, -1.9112925943922348),
    ("gross", "condition_b", "p0", 0.0, 0.0),
    ("gross", "condition_b", "p0", 2.0, 0.0),
    ("gross", "condition_b", "p1", 0.0, 0.5912094013569904),
    ("gross", "condition_b", "p1", 2.0, 0.32728142846682984),
    ("gross", "condition_b", "p2.5", 0.0, 1.7811830225295833),
    ("gross", "condition_b", "p2.5", 2.0, 1.0033762115226772),
    ("gross", "scaling", "p0", 0.0, 6.0462421034509255),
    ("gross", "scaling", "p0", 2.0, 2.153816438120527),
    ("gross", "scaling", "p1", 2.0, 2.173061333426022),
    ("gross", "scaling sigma0", "p1", 1.0, 2.4177854028552734),
    ("eckmann", "counterterm v1", "p0", 1.0, 1.094950633938995),
    ("eckmann", "counterterm v2", "p0", 1.0, 1.094950633938995),
    ("eckmann", "counterterm v1", "p0", 4.0, 7.065881996932057),
    ("eckmann", "counterterm v2", "p0", 4.0, 7.065881996932057),
    ("eckmann", "counterterm v1", "p1", 1.0, 0.9482054615991071),
    ("eckmann", "counterterm v2", "p1", 1.0, 0.9281641749292848),
    ("eckmann", "counterterm v1", "p1", 4.0, 6.345627643571972),
    ("eckmann", "counterterm v2", "p1", 4.0, 6.323563708577646),
    ("eckmann", "integral_J", "p1", 3.0, 0.023403689111172993),
    ("eckmann", "integral_I shift1", "p0", 3.0, -1.1523015448232063),
    ("eckmann", "integral_I K", "p1", 3.0, -1.4724756975174473),
    ("eckmann", "integral_J", "p1", INF, 0.019507597008800552),
    ("eckmann", "integral_I shift1", "p0", INF, -2.059585976205754),
    ("eckmann", "integral_I K", "p1", INF, -2.750184759815197),
    ("eckmann", "condition_b", "p0", 0.0, 0.0),
    ("eckmann", "condition_b", "p0", 2.0, 0.0),
    ("eckmann", "condition_b", "p1", 0.0, 0.4308376474187997),
    ("eckmann", "condition_b", "p1", 2.0, 0.27291127876124205),
    ("eckmann", "condition_b", "p2.5", 0.0, 0.7528967119422669),
    ("eckmann", "condition_b", "p2.5", 2.0, 0.5631709685838061),
    ("eckmann", "scaling", "p0", 0.0, 3.627745262096185),
    ("eckmann", "scaling", "p0", 2.0, 1.99142414545309),
    ("eckmann", "scaling", "p1", 2.0, 1.9930653919065198),
    ("eckmann", "scaling sigma0", "p1", 1.0, 2.1547543200675996),
    ("nelson", "counterterm v1", "p0", 1.0, 1.2060627431053643),
    ("nelson", "counterterm v2", "p0", 1.0, 1.2060627431053643),
    ("nelson", "counterterm v1", "p0", 4.0, 9.662218070715056),
    ("nelson", "counterterm v2", "p0", 4.0, 9.662218070715056),
    ("nelson", "counterterm v1", "p1", 1.0, 1.206062743105364),
    ("nelson", "counterterm v2", "p1", 1.0, 1.0985018349809827),
    ("nelson", "counterterm v1", "p1", 4.0, 9.662218070715054),
    ("nelson", "counterterm v2", "p1", 4.0, 9.442344920807656),
    ("nelson", "integral_J", "p1", 3.0, 0.21756153504912623),
    ("nelson", "integral_I shift1", "p0", 3.0, -1.1006504283576548),
    ("nelson", "integral_I K", "p1", 3.0, -1.7375875319018115),
    ("nelson", "integral_J", "p1", INF, 0.20829061488613645),
    ("nelson", "integral_I shift1", "p0", INF, -1.5092870756274814),
    ("nelson", "integral_I K", "p1", INF, -2.3827479571851433),
    ("nelson", "condition_b", "p0", 0.0, 0.0),
    ("nelson", "condition_b", "p0", 2.0, 0.0),
    ("nelson", "condition_b", "p1", 0.0, 2.8086619236113224),
    ("nelson", "condition_b", "p1", 2.0, 2.132754394654333),
    ("nelson", "condition_b", "p2.5", 0.0, 10.849101279673377),
    ("nelson", "condition_b", "p2.5", 2.0, 8.515032822991481),
    ("nelson", "scaling", "p0", 0.0, 7.760160874438593),
    ("nelson", "scaling", "p0", 2.0, 3.5625243405161515),
    ("nelson", "scaling", "p1", 2.0, 3.60625167433017),
    ("nelson", "scaling sigma0", "p1", 1.0, 2.6326977499048523),
]


def _evaluate(model, family, p_name, lam):
    params, p1, (nu, sigma, r) = MODELS[model]
    p1 = np.array(p1)
    p = {"p0": np.zeros(params.d), "p1": p1,
          "p2.5": 2.5 * p1 / np.linalg.norm(p1)}[p_name]
    one_boson = np.zeros((1, params.d))
    one_boson[0, 0] = 0.5
    calls = {
        "counterterm v1": lambda: ib.counterterm(p, lam, 1, params),
        "counterterm v2": lambda: ib.counterterm(p, lam, 2, params),
        "integral_J": lambda: ib.integral_J(p, lam, params),
        "integral_I shift1": lambda: ib.integral_I(
            p, None, lam, 0, params, lambda_shift=1.0),
        "integral_I K": lambda: ib.integral_I(
            p, one_boson, lam, 0, params, lambda_shift=0.5),
        "condition_b": lambda: ib.condition_b_lhs(p, lam, params),
        "scaling": lambda: ib.scaling_lhs(
            p, 1.0, lam, ib.ScalingExponents(nu, sigma, r), params),
        "scaling sigma0": lambda: ib.scaling_lhs(
            p, 1.0, lam, ib.ScalingExponents(nu, 0.0, r + 0.5), params),
    }
    return calls[family]()


@pytest.mark.parametrize("model", sorted(MODELS))
def test_golden_panel(model):
    rows = [row for row in GOLDEN if row[0] == model]
    assert len(rows) == 24
    for _, family, p_name, lam, want in rows:
        got = _evaluate(model, family, p_name, lam).value
        assert abs(got - want) <= max(1e-8 * abs(want), 1e-9), \
            (family, p_name, lam, got, want)
