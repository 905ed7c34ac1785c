"""Command-line front end: configuration, orchestration, reporting.

Subcommands wire the library into reproducible verification suites:

* check       model/exponent condition gate plus integral-bound sweeps
* identity    direct-vs-decomposed assembly agreement over a cutoff,
              counterterm-variant and shift matrix
* converge    cutoff convergence study and divergence-rate fits
* regularity  ground-state regularity ladder across box refinements
* bounds      kinematic/scaling/growth bound sweeps with fitted constants

Configs are flat INI text ([model]/[grid]/[study]/[output] sections);
the packaged presets (gross, gross_converge, gross_regularity, eckmann,
nelson) can be named in place of a path.  Every run writes a manifest
with the config hash, and every data file embeds that hash.  Numerical
outputs are byte-deterministic for a fixed config and seed.

Exit codes, mapped once in main: 0 success; 1 configuration error (a
value refused at load, or BasisTooLarge); 2 condition failure (a failed
gate or a ConditionFailure); 3 identity failure; 4 NonConvergence.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import datetime
import hashlib
import json
import sys
from importlib import resources

import numpy as np
from scipy import sparse

from . import __version__
from .errors import (
    BasisTooLarge,
    ConditionFailure,
    EvenAxisCount,
    ExponentWindowViolated,
    InsufficientPoints,
    NonConvergence,
)
from .fockgrid import (
    FockBasis,
    build_grid,
    check_n_max,
    enumerate_basis,
    ladder_axis_counts,
)
from .model import (
    ModelKind,
    ModelParams,
    check_condition_a,
    check_condition_c,
    custom_model,
    eckmann_kinematic_bound,
    eckmann_model,
    gross_model,
    nelson_model,
    ultraviolet_degree,
)
from .ops import (
    assemble_H_direct,
    assemble_H_ibc,
    assemble_T_od,
    basis_digest,
    export_triplets,
    verify_identity,
)
from .quad import (
    ScalingExponents,
    _shift_data_kept,
    check_shift,
    condition_b_lhs,
    counterterm,
    integral_j_grid,
    scaling_bound_fit,
)
from .spectral import (
    ConvergenceRow,
    RegularityRow,
    check_fit_cutoffs,
    check_ladder,
    check_study,
    cutoff_convergence_study,
    divergence_fit,
    regularity_diagnostic,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CONDITION = 2
EXIT_IDENTITY = 3
EXIT_NUMERIC = 4


class CommandError(Exception):
    """Carries the process exit code alongside the message."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# configuration

@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Validated run configuration plus its canonical content hash."""

    params: ModelParams
    k_max: float
    n_per_axis: int
    n_max: int
    basis_cap: int
    lambda_list: tuple
    variants: tuple
    lambda_shifts: tuple
    eta_list: tuple
    ladder_k_max: tuple
    fit_lambda_list: tuple
    scaling_exponents: ScalingExponents
    tol_identity: float
    eig_tol: float
    seed: int
    n_samples: int
    n_p_samples: int
    formats: tuple
    dump_operators: bool
    config_sha256: str


def _floats(text: str) -> tuple:
    values = tuple(float(x) for x in text.replace(",", " ").split())
    if not np.isfinite(values).all():
        raise ValueError("non-finite value in %r" % text.strip())
    return values


def _complexes(text: str) -> tuple:
    return tuple(complex(x) for x in text.replace(",", " ").split())


def _preset_path(name: str):
    ref = resources.files("ibcfock").joinpath("presets", name + ".cfg")
    return ref if ref.is_file() else None


def _build_model(raw: dict) -> ModelParams:
    sect = raw["model"]
    kind = sect.get("kind", "").strip().lower()
    m = int(sect.get("m", sect.get("n_nucleons", "1")))
    couplings = _complexes(sect.get("couplings", sect.get("coupling", "1.0")))
    if len(couplings) == 1 and m > 1:
        couplings = couplings * m
    mu = float(sect.get("mu", "1.0"))
    m_boson = float(sect.get("m_boson", "1.0"))
    if kind == "gross":
        return gross_model(coupling=couplings, mu=mu, m_boson=m_boson,
                           n_nucleons=m)
    if kind == "eckmann":
        return eckmann_model(delta=float(sect.get("delta", "0.0")),
                             coupling=couplings, mu=mu, m_boson=m_boson,
                             n_nucleons=m)
    if kind == "nelson":
        return nelson_model(coupling=couplings, mu=mu, m_boson=m_boson,
                            n_nucleons=m)
    if kind == "custom":
        return custom_model(d=int(sect["d"]), alpha=float(sect["alpha"]),
                            beta=float(sect["beta"]),
                            gamma=float(sect["gamma"]),
                            coupling=couplings, mu=mu, m_boson=m_boson,
                            n_nucleons=m)
    raise KeyError("unknown model kind %r" % kind)


def load_config(path: str, seed_override=None, tol_override=None) -> RunConfig:
    """Parse and validate a config file (or packaged preset name).

    Malformed input, or a value that a library rule refuses, is a
    configuration error (exit 1).  A model that violates a structural
    condition raises its ConditionFailure (exit 2, in main).
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        preset = _preset_path(path)
        if preset is not None:
            parser.read_string(preset.read_text())
        else:
            with open(path) as fh:
                parser.read_file(fh)
    except OSError as exc:
        raise CommandError(EXIT_CONFIG, "cannot read config: %s" % exc)
    except configparser.Error as exc:
        raise CommandError(EXIT_CONFIG, "config parse error: %s" % exc)

    raw = {s: dict(parser.items(s)) for s in parser.sections()}
    try:
        grid = raw.get("grid", {})
        study = raw.get("study", {})
        output = raw.get("output", {})
        k_max = float(grid.get("k_max", "1.0"))
        n_per_axis = int(grid.get("n_per_axis", "3"))
        n_max = int(grid.get("n_max", "1"))
        basis_cap = int(float(grid.get("basis_cap", "2000000")))
        lambda_list = _floats(study.get("lambda_list", "1.0"))
        variants = tuple(int(v) for v in
                         study.get("variants", "1").replace(",", " ").split())
        lambda_shifts = _floats(study.get("lambda_shifts", "0.0"))
        eta_list = _floats(study.get("eta_list", "0.25, 0.5, 0.75"))
        ladder = _floats(study.get("ladder_k_max", "")) or (
            k_max, 2 * k_max, 4 * k_max)
        fit_lambdas = _floats(study.get("fit_lambda_list", "8, 16, 32, 64"))
        scaling = _floats(study.get("scaling_exponents", ""))
        tol_identity = float(study.get("tol_identity", "1e-10"))
        if tol_override is not None:
            tol_identity = float(tol_override)
        eig_tol = float(study.get("eig_tol", "1e-9"))
        seed = int(study.get("seed", "0"))
        if seed_override is not None:
            seed = int(seed_override)
        n_samples = int(float(study.get("n_samples", "20000")))
        n_p_samples = int(study.get("n_p_samples", "20"))
        formats = tuple(output.get("formats", "csv, json")
                        .replace(",", " ").split())
        dump_ops = output.get("dump_operators", "false").strip().lower() \
            in ("1", "true", "yes")
        if "model" not in raw:
            raise KeyError("missing [model] section")
        # the library's own rules, then this front end's, for every command
        ladder_axis_counts(k_max, n_per_axis, ladder)
        check_n_max(n_max)
        check_ladder(ladder, eta_list)
        check_study(lambda_list, variants, eig_tol)
        check_fit_cutoffs(fit_lambdas)
        if not lambda_shifts:
            raise ValueError("lambda_shifts must not be empty")
        check_shift(min(lambda_shifts))
        if scaling and len(scaling) != 3:
            raise ValueError("scaling_exponents needs exactly three values")
        if min(lambda_list) <= 0:
            raise ValueError("lambda_list cutoffs must be > 0")
        # numpy's generators refuse a negative seed
        if seed < 0:
            raise ValueError("seed (or --seed) must be >= 0")
        if n_samples < 1 or n_p_samples < 1:
            raise ValueError("n_samples and n_p_samples must be >= 1")
        if not 0 <= tol_identity < np.inf:
            raise ValueError("tol_identity (or --tol) must be finite and >= 0")
    except (KeyError, ValueError, EvenAxisCount, InsufficientPoints) as exc:
        raise CommandError(EXIT_CONFIG, "invalid config: %s" % exc)

    digest_src = json.dumps({"raw": raw, "seed": seed,
                             "tol_identity": tol_identity}, sort_keys=True)
    sha = hashlib.sha256(digest_src.encode()).hexdigest()

    try:
        params = _build_model(raw)
    except KeyError as exc:
        raise CommandError(EXIT_CONFIG, "invalid config: %s" % exc)
    except ValueError as exc:
        raise CommandError(EXIT_CONDITION, "condition failure: %s" % exc)

    # configured scaling exponents are checked here, before any sweep;
    # the default keeps d < r*gamma with half a gamma to spare
    if scaling:
        exps = ScalingExponents(*scaling)
        try:
            exps.check_window(params)
        except (ExponentWindowViolated, ValueError) as exc:
            raise CommandError(EXIT_CONFIG, "invalid config: scaling "
                               "exponents outside the window: %s" % exc)
    else:
        exps = ScalingExponents(nu_exp=0.0, sigma_exp=0.0,
                                r=params.d / params.gamma + 0.5)

    return RunConfig(params=params, k_max=k_max, n_per_axis=n_per_axis,
                     n_max=n_max, basis_cap=basis_cap,
                     lambda_list=lambda_list, variants=variants,
                     lambda_shifts=lambda_shifts, eta_list=eta_list,
                     ladder_k_max=ladder, fit_lambda_list=fit_lambdas,
                     scaling_exponents=exps, tol_identity=tol_identity,
                     eig_tol=eig_tol, seed=seed,
                     n_samples=n_samples, n_p_samples=n_p_samples,
                     formats=formats, dump_operators=dump_ops,
                     config_sha256=sha)


# ---------------------------------------------------------------------------
# manifest and output helpers

class RunManifest:
    """Accumulates run metadata; identical config+seed reproduces the
    numerical outputs byte for byte (timestamps live only here)."""

    def __init__(self, command: str, cfg: RunConfig, out_dir,
                 override_conditions: bool):
        self.data = {
            "command": command,
            "config_sha256": cfg.config_sha256,
            "tool_version": __version__,
            "seed": cfg.seed,
            "tol_identity": cfg.tol_identity,
            "override_conditions": override_conditions,
            "started_at": datetime.datetime.now(
                datetime.timezone.utc).isoformat(),
            "outputs": [],
            "checker_reports": {},
        }
        self.out_dir = out_dir

    def register(self, name: str):
        self.data["outputs"].append(name)

    def write(self):
        self.data["finished_at"] = datetime.datetime.now(
            datetime.timezone.utc).isoformat()
        path = self.out_dir / "manifest.json"
        with open(path, "w") as fh:
            json.dump(self.data, fh, sort_keys=True, indent=1)
            fh.write("\n")


def _write_json(manifest: RunManifest, name: str, payload: dict):
    payload = dict(payload)
    payload["config_sha256"] = manifest.data["config_sha256"]
    with open(manifest.out_dir / name, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, default=str)
        fh.write("\n")
    manifest.register(name)


def _write_csv(manifest: RunManifest, name: str, columns, rows,
               meta: dict | None = None):
    meta = dict(meta or {})
    meta["config_sha256"] = manifest.data["config_sha256"]
    with open(manifest.out_dir / name, "w") as fh:
        fh.write("# %s\n" % json.dumps(meta, sort_keys=True))
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(
                ("%.17g" % v) if isinstance(v, float) else str(v)
                for v in row) + "\n")
    manifest.register(name)


def _write_table(manifest: RunManifest, formats, stem: str, columns, rows,
                 meta: dict, **json_only):
    """stem.csv and stem.json in the configured formats: the metadata,
    the rows, and in the JSON also the json_only entries."""
    if "csv" in formats:
        _write_csv(manifest, stem + ".csv", columns, rows, meta)
    if "json" in formats:
        _write_json(manifest, stem + ".json",
                    {**meta, **json_only,
                     "rows": [dict(zip(columns, r)) for r in rows]})


def _make_basis(cfg: RunConfig) -> FockBasis:
    grid = build_grid(cfg.params.d, cfg.k_max, cfg.n_per_axis)
    return enumerate_basis(cfg.params, grid, cfg.n_max, max_dim=cfg.basis_cap)


# ---------------------------------------------------------------------------
# condition gate

def _gate_reports(cfg: RunConfig) -> dict:
    """Fast model-level checkers run before any assembly command."""
    reports = {}
    cond_c = check_condition_c(cfg.params)
    reports["condition_exponent_window"] = {
        "holds": cond_c.holds, "uv_degree": cond_c.uv_degree,
        "bound": cond_c.bound}
    # The massive dispersion floor (1+k^2)^(beta/2) is unit-normalized,
    # so a boson mass below 1 falls short of it by exactly 1 - m^beta at
    # k = 0; that slack absorbs into the constants of the estimates and
    # is allowed here.  Beyond it the thresholds only admit float
    # rounding on the heavy-tailed samples (the massless floors are met
    # with equality); a genuine violation registers at unit scale.
    cond_a = check_condition_a(cfg.params, n_samples=min(cfg.n_samples, 20000),
                               seed=cfg.seed)
    m_b = cfg.params.m_boson
    slack = max(0.0, 1.0 - min(m_b, 1.0) ** cfg.params.beta) if m_b > 0 \
        else 0.0
    a_holds = (cond_a.max_bound_violation <= slack + 1e-7
               and cond_a.max_symmetry_violation <= 1e-8
               and np.isfinite(cond_a.fitted_c))
    reports["condition_pointwise_bounds"] = {
        "holds": bool(a_holds),
        "max_symmetry_violation": cond_a.max_symmetry_violation,
        "max_bound_violation": cond_a.max_bound_violation,
        "mass_floor_slack": slack,
        "fitted_c": cond_a.fitted_c}
    if cfg.params.kind is ModelKind.ECKMANN:
        delta = max(ultraviolet_degree(cfg.params).uv_degree, 0.0)
        kin = eckmann_kinematic_bound(cfg.params.mu, delta=delta,
                                      n_samples=min(cfg.n_samples, 100000),
                                      seed=cfg.seed)
        reports["kinematic_bound"] = {
            "holds": kin.holds, "c_analytic": kin.c_analytic,
            "max_ratio": kin.max_ratio}
    return reports


def _scaling_sweep(cfg: RunConfig, lam_list) -> list:
    """Fixed-shift ladder (exercises the monotonicity check) plus
    cutoff-scaled shifts (exercises the compensated ratio)."""
    exps = cfg.scaling_exponents
    pts = [dict(p=np.zeros(cfg.params.d), omega_shift=1.0, lambda_uv=lam,
                exps=exps, params=cfg.params) for lam in lam_list]
    pts += [dict(p=np.zeros(cfg.params.d),
                 omega_shift=lam ** cfg.params.gamma, lambda_uv=lam,
                 exps=exps, params=cfg.params) for lam in lam_list]
    return pts


def _growth_sweep(params: ModelParams, p_sample, lam_ladder):
    """Growth-condition integral at every sampled momentum over the
    cutoff ladder: rows (|p|, value per cutoff) and whether every row
    decays in the exterior cutoff."""
    rows = []
    monotone = True
    for p in p_sample:
        vals = [condition_b_lhs(p, lam, params).value for lam in lam_ladder]
        monotone &= all(a >= b for a, b in zip(vals[:-1], vals[1:]))
        rows.append((float(np.linalg.norm(p)),) + tuple(vals))
    return rows, monotone


def _envelope(rows) -> float:
    """Envelope constant of the smallest-cutoff values against |p|^0.1."""
    return max(r[1] / (r[0] ** 0.1 + 1.0) for r in rows)


def _apply_gate(cfg: RunConfig, manifest: RunManifest,
                override: bool) -> None:
    reports = _gate_reports(cfg)
    manifest.data["checker_reports"].update(reports)
    failed = [k for k, v in reports.items() if not v["holds"]]
    if failed and not override:
        raise CommandError(EXIT_CONDITION,
                           "condition gate failed: %s" % ", ".join(failed))


# ---------------------------------------------------------------------------
# subcommands

def cmd_check(cfg: RunConfig, manifest: RunManifest, args) -> int:
    """Full condition gate: model checkers plus integral-bound sweeps."""
    reports = _gate_reports(cfg)

    # growth-condition integral: finite at sampled momenta and decaying
    # in the exterior cutoff
    rng = np.random.default_rng(cfg.seed)
    n_p = max(3, min(cfg.n_p_samples, 8))
    p_sample = rng.standard_normal((n_p, cfg.params.d)) * 1.5
    rows, monotone = _growth_sweep(cfg.params, p_sample, (1.0, 2.0, 4.0))
    envelope = _envelope(rows)
    reports["condition_growth_integral"] = {
        "holds": bool(monotone and np.isfinite(envelope)),
        "monotone_in_cutoff": bool(monotone),
        "envelope_constant": float(envelope),
        "n_momenta": n_p}

    # scaling bound: compensated ratios bounded and nonincreasing
    fit = scaling_bound_fit(_scaling_sweep(cfg, (2.0, 4.0, 8.0)), delta=0.1)
    reports["scaling_bound"] = {
        "holds": bool(fit.monotone_in_lambda and np.isfinite(fit.fitted_c)),
        "fitted_c": fit.fitted_c,
        "monotone_in_lambda": fit.monotone_in_lambda}

    manifest.data["checker_reports"].update(reports)
    failed = [k for k, v in reports.items() if not v["holds"]]
    _write_json(manifest, "check_report.json",
                {"reports": reports, "all_hold": not failed})
    if failed:
        print("condition failure: %s" % ", ".join(failed), file=sys.stderr)
        if not args.override_conditions:
            return EXIT_CONDITION
        print("override requested: reporting the failure without gating")
        return EXIT_OK
    print("all conditions hold (%d checkers)" % len(reports))
    return EXIT_OK


def cmd_identity(cfg: RunConfig, manifest: RunManifest, args) -> int:
    """Direct-vs-decomposed assembly agreement over the configured
    cutoff/variant/shift matrix, plus shift invariance rows."""
    _apply_gate(cfg, manifest, args.override_conditions)
    basis = _make_basis(cfg)
    manifest.data["basis_sha256"] = basis_digest(basis)
    corrupt = bool(getattr(args, "corrupt_offdiag_sign", False))

    rows = []
    worst = 0.0
    all_pass = True
    for lam in cfg.lambda_list:
        # shift-outer, so every variant reuses the (cutoff, shift) part
        # that assemble_H_ibc keeps; rows are still written per variant
        direct = [assemble_H_direct(basis, lam, v) for v in cfg.variants]
        baseline = [None] * len(cfg.variants)
        lam_rows = [[] for _ in cfg.variants]
        for shift in cfg.lambda_shifts:
            for j, variant in enumerate(cfg.variants):
                ibc = assemble_H_ibc(basis, lam, variant, shift)
                if corrupt:
                    # negative-control hook: flip the sign of the
                    # exchange block; when the truncation leaves that
                    # block structurally empty (one nucleon, one boson
                    # sector) flip every off-diagonal entry instead so
                    # the control still bites
                    t_od = assemble_T_od(basis, lam, lambda_shift=shift)
                    if t_od.nnz:
                        bad = (ibc.matrix - 2 * t_od.matrix).tocsr()
                    else:
                        dg = sparse.diags_array(ibc.matrix.diagonal(),
                                                format="csr")
                        bad = (2 * dg - ibc.matrix).tocsr()
                    ibc = dataclasses.replace(ibc, matrix=bad)
                rep = verify_identity(direct[j], ibc, tol=cfg.tol_identity)
                lam_rows[j].append(("direct-vs-ibc", lam, variant, shift,
                                    rep.max_abs_diff, rep.max_rel_diff,
                                    rep.opnorm_diff_bound, rep.passed))
                worst = max(worst, rep.max_rel_diff)
                all_pass &= rep.passed
                if baseline[j] is None:
                    baseline[j] = ibc
                else:
                    rep2 = verify_identity(baseline[j], ibc,
                                           tol=cfg.tol_identity)
                    lam_rows[j].append(("shift-invariance", lam, variant,
                                        shift, rep2.max_abs_diff,
                                        rep2.max_rel_diff,
                                        rep2.opnorm_diff_bound, rep2.passed))
                    all_pass &= rep2.passed
                del ibc         # not alive while the next one is built
        rows += [row for block in lam_rows for row in block]
    _write_table(manifest, cfg.formats, "identity_report",
                 ("kind", "lambda_uv", "variant", "lambda_shift",
                  "max_abs_diff", "max_rel_diff", "opnorm_diff_bound",
                  "passed"), rows,
                 {"basis_sha256": basis_digest(basis),
                  "tol": cfg.tol_identity},
                 worst_rel_diff=worst, all_pass=all_pass)
    if cfg.dump_operators:
        op = assemble_H_direct(basis, max(cfg.lambda_list), cfg.variants[0])
        export_triplets(op, manifest.out_dir / "hamiltonian_direct.triplets")
        manifest.register("hamiltonian_direct.triplets")
    if not all_pass:
        print("identity failure: worst relative deviation %.3e (tol %.1e)"
              % (worst, cfg.tol_identity), file=sys.stderr)
        return EXIT_IDENTITY
    print("all identities hold: worst relative deviation %.3e over %d rows"
          % (worst, len(rows)))
    return EXIT_OK


@_shift_data_kept()
def cmd_converge(cfg: RunConfig, manifest: RunManifest, args) -> int:
    """Cutoff convergence study per variant plus divergence-rate fits."""
    _apply_gate(cfg, manifest, args.override_conditions)
    basis = _make_basis(cfg)
    manifest.data["basis_sha256"] = basis_digest(basis)
    try:
        tables = cutoff_convergence_study(basis, cfg.lambda_list,
                                          cfg.variants,
                                          lambda_shift=cfg.lambda_shifts[0],
                                          eig_tol=cfg.eig_tol)
    except ValueError as exc:
        raise CommandError(EXIT_CONFIG, "cutoff ladder: %s" % exc)
    for variant, tab in tables.items():
        _write_table(manifest, cfg.formats, "converge_v%d" % variant,
                     [f.name for f in dataclasses.fields(ConvergenceRow)],
                     [dataclasses.astuple(r) for r in tab.rows],
                     {"variant": variant, "basis_sha256": tab.basis_sha256,
                      "fits": tab.fits})

    # counterterm divergence fit from continuum quadrature at p = 0
    e_vals = [counterterm(np.zeros(cfg.params.d), lam, 1, cfg.params).value
              for lam in cfg.fit_lambda_list]
    fit = divergence_fit(cfg.fit_lambda_list, e_vals)
    _write_json(manifest, "divergence_fit.json",
                {"lambda_list": list(cfg.fit_lambda_list),
                 "counterterm_values": e_vals,
                 **dataclasses.asdict(fit)})

    # variant cross-check: the two renormalized assemblies differ by the
    # dispersion-shift lattice diagonal alone
    if set(cfg.variants) == {1, 2}:
        lam = max(cfg.lambda_list)
        h1 = assemble_H_direct(basis, lam, 1)
        h2 = assemble_H_direct(basis, lam, 2)
        diff = (h1.matrix - h2.matrix).tocoo()
        off_diag = float(np.abs(diff.data[diff.row != diff.col]).max()) \
            if np.any(diff.row != diff.col) else 0.0
        j_rows, table = np.zeros(basis.nuc_dim), basis.nucleon_mode_table()
        for ell in range(cfg.params.n_nucleons):
            j_rows += integral_j_grid(table[:, ell], basis.grid, lam,
                                      cfg.params, i_nucleon=ell)
        j_diag = basis.nucleon_diagonal(j_rows)
        j_dev = float(np.abs(np.real(diff.tocsr().diagonal()) - j_diag).max())
        _write_json(manifest, "variant_difference_check.json",
                    {"lambda_uv": lam, "max_offdiagonal": off_diag,
                     "max_deviation_from_shift_diagonal": j_dev,
                     "holds": bool(off_diag == 0.0 and j_dev < 1e-12)})

    # plot data: cutoff against energies/differences with the control
    # drift overlay evaluated from the fitted log law
    v0 = cfg.variants[0]
    tab = tables[v0]
    drift = tab.fits.get("control_drift_slope")
    ctrl = tab.column("control_ground_energy")
    lams = tab.lambda_values()
    if drift is not None and np.all(lams > 0):
        intercept = float(np.mean(ctrl - drift * np.log(lams)))
        overlay = drift * np.log(lams) + intercept
    else:
        overlay = np.full_like(ctrl, np.nan)
    _write_csv(manifest, "plot_converge.csv",
               ("lambda_uv", "ground_energy", "control_ground_energy",
                "control_log_fit", "resolvent_diff_to_finest"),
               [(float(l), float(g), float(c), float(o), float(r))
                for l, g, c, o, r in zip(
                    lams, tab.column("ground_energy"), ctrl, overlay,
                    tab.column("resolvent_diff_to_finest"))],
               {"variant": v0})
    _emit_plot_script(manifest, "plot_converge.py", "plot_converge.csv",
                      "lambda_uv", ["ground_energy", "control_ground_energy",
                                    "control_log_fit"],
                      logx=True, title="cutoff convergence")
    print("convergence study complete: %d cutoffs, variants %s"
          % (len(cfg.lambda_list), list(cfg.variants)))
    return EXIT_OK


def cmd_regularity(cfg: RunConfig, manifest: RunManifest, args) -> int:
    """Ground-state regularity ladder across box refinements."""
    _apply_gate(cfg, manifest, args.override_conditions)
    counts = ladder_axis_counts(cfg.k_max, cfg.n_per_axis, cfg.ladder_k_max)
    bases = [enumerate_basis(cfg.params, build_grid(cfg.params.d, km, n),
                             cfg.n_max, max_dim=cfg.basis_cap)
             for km, n in zip(cfg.ladder_k_max, counts)]
    rep = regularity_diagnostic(bases, cfg.variants[0], cfg.eta_list,
                                lambda_shift=cfg.lambda_shifts[0],
                                eig_tol=cfg.eig_tol)
    _write_table(manifest, cfg.formats, "regularity",
                 [f.name for f in dataclasses.fields(RegularityRow)],
                 [dataclasses.astuple(r) for r in rep.rows],
                 {"threshold": rep.threshold, "variant": rep.variant,
                  "slopes": {str(k): v for k, v in rep.slopes.items()},
                  "basis_digests": rep.basis_digests},
                 ground_energies=rep.ground_energies)
    _write_csv(manifest, "growth_exponents.csv",
               ("eta", "growth_slope", "threshold"),
               [(float(e), float(s), rep.threshold)
                for e, s in sorted(rep.slopes.items())])
    _emit_plot_script(manifest, "plot_regularity.py", "regularity.csv",
                      "k_max", ["norm_singular"], logx=True, logy=True,
                      title="singular-part growth")
    print("regularity ladder complete: slopes %s (threshold %.3g)"
          % ({round(k, 4): round(v, 4) for k, v in rep.slopes.items()},
             rep.threshold))
    return EXIT_OK


def cmd_bounds(cfg: RunConfig, manifest: RunManifest, args) -> int:
    """Kinematic, scaling, and growth bound sweeps with fitted constants."""
    report = {}

    if cfg.params.kind is ModelKind.ECKMANN:
        delta = max(ultraviolet_degree(cfg.params).uv_degree, 0.0)
        kin = eckmann_kinematic_bound(cfg.params.mu, delta=delta,
                                      n_samples=cfg.n_samples, seed=cfg.seed)
        report["kinematic_bound"] = {
            "holds": kin.holds, "applicable": True,
            "c_analytic": kin.c_analytic,
            "max_ratio": kin.max_ratio, "n_samples": kin.n_samples}
    else:
        report["kinematic_bound"] = {
            "holds": True, "applicable": False,
            "reason": "relativistic d=3 form factor only"}

    fit = scaling_bound_fit(_scaling_sweep(cfg, (2.0, 4.0, 8.0, 16.0)),
                            delta=0.1)
    report["scaling_bound"] = {
        "holds": bool(fit.monotone_in_lambda and np.isfinite(fit.fitted_c)),
        "fitted_c": fit.fitted_c, "worst_ratio": fit.worst_ratio,
        "monotone_in_lambda": fit.monotone_in_lambda,
        "n_points": fit.n_points}

    # growth-condition sweep: monotone decay in the exterior cutoff and
    # a refinement-stable envelope constant
    rng = np.random.default_rng(cfg.seed)
    lam_ladder = (1.0, 2.0, 4.0, 8.0)
    p_sample = [rng.standard_normal(cfg.params.d) * 2.0
                for _ in range(cfg.n_p_samples)]
    rows, monotone = _growth_sweep(cfg.params, p_sample, lam_ladder)
    half = rows[: max(2, len(rows) // 2)]
    env_full, env_half = _envelope(rows), _envelope(half)
    stability = abs(env_full - env_half) / max(env_full, 1e-300)
    report["growth_condition"] = {
        "holds": bool(monotone and np.isfinite(env_full)),
        "monotone_in_cutoff": bool(monotone),
        "envelope_constant": env_full,
        "envelope_half_sample": env_half,
        "envelope_stability": stability,
        "n_momenta": len(rows)}

    _write_csv(manifest, "condition_b_sweep.csv",
               ("p_norm",) + tuple("lam_%g" % l for l in lam_ladder),
               rows)
    failed = [k for k, v in report.items() if not v["holds"]]
    _write_json(manifest, "bounds_report.json",
                {"reports": report, "all_hold": not failed})
    if failed:
        print("bound failure: %s" % ", ".join(failed), file=sys.stderr)
        return EXIT_CONDITION
    print("all bounds hold (%d sweeps)" % len(report))
    return EXIT_OK


def _emit_plot_script(manifest: RunManifest, name: str, data_name: str,
                      x_col: str, y_cols, logx=False, logy=False,
                      title=""):
    lines = [
        "#!/usr/bin/env python3",
        '"""Generated plotting script; reads %s next to this file."""' % data_name,
        "import csv, pathlib",
        "import matplotlib.pyplot as plt",
        "",
        "rows = []",
        "with open(pathlib.Path(__file__).parent / %r) as fh:" % data_name,
        "    fh.readline()  # metadata comment",
        "    for rec in csv.DictReader(fh):",
        "        rows.append({k: float(v) for k, v in rec.items()"
        " if v not in ('True', 'False')})",
        "x = [r[%r] for r in rows]" % x_col,
    ]
    for col in y_cols:
        lines.append("plt.plot(x, [r[%r] for r in rows], marker='o', label=%r)"
                     % (col, col))
    if logx:
        lines.append("plt.xscale('log')")
    if logy:
        lines.append("plt.yscale('log')")
    lines += ["plt.xlabel(%r)" % x_col, "plt.legend()",
              "plt.title(%r)" % title,
              "plt.savefig(pathlib.Path(__file__).with_suffix('.png'), dpi=150)"]
    with open(manifest.out_dir / name, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    manifest.register(name)


# ---------------------------------------------------------------------------
# entry point

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CommandError(EXIT_CONFIG, message)


_COMMANDS = {
    "check": cmd_check,
    "identity": cmd_identity,
    "converge": cmd_converge,
    "regularity": cmd_regularity,
    "bounds": cmd_bounds,
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ibcfock",
                     description="renormalized nucleon-boson Hamiltonians "
                                 "on truncated Fock grids")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__, add_help=True)
        p.add_argument("--config", required=True,
                       help="config file path or packaged preset name "
                            "(gross, gross_converge, gross_regularity, "
                            "eckmann, nelson)")
        p.add_argument("--out", default=None,
                       help="output directory (default runs/<command>-<hash>)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the sampling seed")
        p.add_argument("--tol", type=float, default=None,
                       help="override the identity tolerance")
        p.add_argument("--override-conditions", action="store_true",
                       help="run assembly commands even if the condition "
                            "gate fails (recorded in the manifest)")
        if name == "identity":
            p.add_argument("--corrupt-offdiag-sign", action="store_true",
                           help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    import pathlib
    import warnings
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config, seed_override=args.seed,
                          tol_override=args.tol)
        out_dir = pathlib.Path(args.out) if args.out else pathlib.Path(
            "runs") / ("%s-%s" % (args.command, cfg.config_sha256[:8]))
        out_dir.mkdir(parents=True, exist_ok=True)
        manifest = RunManifest(args.command, cfg, out_dir,
                               args.override_conditions)
        caught = []
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = _COMMANDS[args.command](cfg, manifest, args)
        finally:
            manifest.data["warnings"] = sorted(
                {str(w.message) for w in caught})
            manifest.write()
        return code
    except CommandError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except ConditionFailure as exc:
        print("condition failure (%s): %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return EXIT_CONDITION
    except NonConvergence as exc:
        print("numerical non-convergence (%s): %s"
              % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_NUMERIC
    except BasisTooLarge as exc:
        print("configuration error (BasisTooLarge): %s" % exc, file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
