"""Output gate: decides whether one benchmark run of the CLI was correct.

A run fails on a nonzero exit code, on an exception, or when its
artifacts fail the workload's check below.  Golden values were recorded
at the seed commit (fe6c97b) with the settings in `golden.json`'s
`recorded_with`.  The seed only moves the condition gate's pointwise
samples, so the golden values hold for every seed.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN = json.loads((Path(__file__).with_name("golden.json")).read_text())

# The entrywise identity gate of the paper; never loosened.
IDENTITY_TOL = 1e-10
# Lanczos runs at eig_tol = 1e-9 (relative accuracy of a Ritz value); a
# factor 10 leaves room for another solver meeting the same tolerance.
EIG_RTOL = 1e-8
# Fits that are differences or slopes of ground energies.
EIG_FIT_ATOL = 1e-7
# Resolvent and weighted-T distances come from power iteration stopped
# at a relative step of norm_tol = 1e-4, which bounds the step and not
# the error; 5 % accepts an exact norm in place of the estimate.
NORM_RTOL = 5e-2
NORM_FIT_ATOL = 5e-2
# Continuum quadrature runs at epsrel = 1e-8; a factor 10 leaves room
# for angular-refinement error and for another engine at the same epsrel.
QUAD_RTOL = 1e-7


def _close(what: str, got: float, want: float, rtol=0.0, atol=0.0):
    if abs(got - want) <= atol + rtol * abs(want):
        return []
    return ["%s = %r, golden %r (rtol %g, atol %g)"
            % (what, got, want, rtol, atol)]


def _load(out: Path, name: str) -> dict:
    with open(out / name) as fh:
        return json.load(fh)


def _identity(out: Path, golden: dict) -> list:
    rep = _load(out, "identity_report.json")
    problems = []
    if rep["all_pass"] is not True:
        problems.append("identity report says all_pass = false")
    if len(rep["rows"]) != golden["rows"]:
        problems.append("%d identity rows, expected %d"
                        % (len(rep["rows"]), golden["rows"]))
    worst = max([rep["worst_rel_diff"]]
                + [r["max_rel_diff"] for r in rep["rows"]])
    if not worst <= IDENTITY_TOL:
        problems.append("worst relative deviation %r > %g"
                        % (worst, IDENTITY_TOL))
    if rep["basis_sha256"] != golden["basis_sha256"]:
        problems.append("basis digest differs from golden")
    return problems


def _converge(out: Path, golden: dict) -> list:
    problems = []
    if _load(out, "variant_difference_check.json")["holds"] is not True:
        problems.append("variant_difference_check.holds is false")
    for variant, want in golden["tables"].items():
        tab = _load(out, "converge_%s.json" % variant)
        if tab["basis_sha256"] != golden["basis_sha256"]:
            problems.append("%s: basis digest differs from golden" % variant)
        if len(tab["rows"]) != len(want["rows"]):
            problems.append("%s: %d rows, expected %d"
                            % (variant, len(tab["rows"]), len(want["rows"])))
            continue
        for row, ref in zip(tab["rows"], want["rows"]):
            tag = "%s lambda=%g " % (variant, ref["lambda_uv"])
            for key in ("ground_energy", "control_ground_energy"):
                problems += _close(tag + key, row[key], ref[key],
                                   rtol=EIG_RTOL)
            for key in ("resolvent_diff_to_finest", "opnorm_t_diff"):
                problems += _close(tag + key, row[key], ref[key],
                                   rtol=NORM_RTOL)
        for key in ("control_drift_slope", "renormalized_top_variation"):
            problems += _close("%s %s" % (variant, key), tab["fits"][key],
                               want["fits"][key], atol=EIG_FIT_ATOL)
        problems += _close("%s resolvent_rate" % variant,
                           tab["fits"]["resolvent_rate"],
                           want["fits"]["resolvent_rate"],
                           atol=NORM_FIT_ATOL)
    fit = _load(out, "divergence_fit.json")
    ref = golden["divergence_fit"]
    for i, (got, want) in enumerate(zip(fit["counterterm_values"],
                                        ref["counterterm_values"])):
        problems += _close("counterterm[%d]" % i, got, want, rtol=QUAD_RTOL)
    for key in ("slope_log", "slope_log1p"):
        problems += _close(key, fit[key], ref[key], atol=10 * QUAD_RTOL)
    return problems


CHECKS = {
    "identity-gross": _identity,
    "converge-gross": _converge,
}


def check(workload: str, out_dir, exit_code) -> list:
    """Problems found in one run; an empty list means the run passed."""
    if exit_code != 0:
        return ["exit code %r" % (exit_code,)]
    try:
        return CHECKS[workload](Path(out_dir), GOLDEN[workload])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return ["unreadable output: %r" % (exc,)]
