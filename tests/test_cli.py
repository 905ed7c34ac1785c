"""End-to-end tests of the command-line front end: exit codes, output
files, manifests, determinism."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from ibcfock import cli, errors, ops
from ibcfock.model import ModelKind


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


TINY_GROSS = """\
    [model]
    kind = gross
    mu = 1.0
    m_boson = 1.0
    coupling = 1.0

    [grid]
    k_max = 2.0
    n_per_axis = 5
    n_max = 1

    [study]
    lambda_list = 1, 2
    variants = 1, 2
    lambda_shifts = 0, 1
    n_p_samples = 4
    n_samples = 4000

    [output]
    formats = csv, json
    """

TINY_REGULARITY = """\
    [model]
    kind = gross
    mu = 1.0
    m_boson = 1.0
    coupling = 0.5

    [grid]
    k_max = 1.0
    n_per_axis = 3
    n_max = 1

    [study]
    ladder_k_max = 1, 2, 4
    eta_list = 0.25, 0.75
    variants = 1
    lambda_shifts = 0
    """


# ---------------------------------------------------------------------------
# configuration loading

def test_preset_names_resolve():
    kinds = {"gross": ModelKind.GROSS, "gross_converge": ModelKind.GROSS,
             "gross_regularity": ModelKind.GROSS,
             "eckmann": ModelKind.ECKMANN,
             "nelson": ModelKind.NELSON_REFERENCE}
    for name, kind in kinds.items():
        cfg = cli.load_config(name)
        assert cfg.params.kind is kind
        assert len(cfg.config_sha256) == 64


def test_unknown_preset_name_is_config_error():
    with pytest.raises(cli.CommandError) as err:
        cli.load_config("no_such_preset")
    assert err.value.code == cli.EXIT_CONFIG


def test_seed_and_tol_overrides_change_hash(tmp_path):
    path = write_cfg(tmp_path, TINY_GROSS)
    base = cli.load_config(path)
    reseeded = cli.load_config(path, seed_override=7)
    retol = cli.load_config(path, tol_override=1e-8)
    assert base.config_sha256 != reseeded.config_sha256
    assert base.config_sha256 != retol.config_sha256
    assert reseeded.seed == 7
    assert retol.tol_identity == 1e-8


def test_invalid_variant_is_config_error(tmp_path):
    path = write_cfg(tmp_path, """\
        [model]
        kind = gross

        [study]
        variants = 3
        """)
    with pytest.raises(cli.CommandError) as err:
        cli.load_config(path)
    assert err.value.code == cli.EXIT_CONFIG


@pytest.mark.parametrize("variants", ["1.5, 2", "1, 2.5", "2, 2", "1, 1.0"])
def test_fractional_or_repeated_variant_is_config_error(tmp_path, variants):
    # variants are integers: 1.5 must not be read as 1; a repeated variant
    # would repeat identity rows and overwrite a converge table
    path = write_cfg(tmp_path, TINY_GROSS.replace("variants = 1, 2",
                                                  "variants = " + variants))
    with pytest.raises(cli.CommandError, match="invalid config") as err:
        cli.load_config(path)
    assert err.value.code == cli.EXIT_CONFIG
    assert cli.main(["identity", "--config", path,
                     "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("command, old, new", [
    ("identity", "lambda_shifts = 0, 1", "lambda_shifts = -1, 1"),
    ("regularity", "lambda_shifts = 0, 1", "lambda_shifts = -1, 1"),
    ("converge", "lambda_list = 1, 2", "lambda_list = 2, 1"),
    # the k_max = 2 box reaches 2*sqrt(2) < 3 in d = 2
    ("converge", "lambda_list = 1, 2", "lambda_list = 1, 3"),
    # an empty study list would make the sweep pass over zero rows
    ("identity", "lambda_list = 1, 2", "lambda_list ="),
    ("identity", "variants = 1, 2", "variants ="),
    ("identity", "lambda_shifts = 0, 1", "lambda_shifts ="),
    ("regularity", "variants = 1, 2", "variants ="),
    # a regularity ladder needs three or more increasing positive rungs
    ("regularity", "n_p_samples = 4", "ladder_k_max = 4, 2, 1"),
    ("regularity", "n_p_samples = 4", "ladder_k_max = 1, 2"),
    ("regularity", "n_p_samples = 4", "eta_list = -0.25, 0.75"),
    # the divergence fit needs three or more positive cutoffs
    ("converge", "n_p_samples = 4", "fit_lambda_list ="),
    ("converge", "n_p_samples = 4", "fit_lambda_list = 8, 16"),
    ("converge", "n_p_samples = 4", "fit_lambda_list = 0, 8, 16"),
    ("bounds", "n_p_samples = 4", "n_p_samples = 0"),
    ("check", "n_samples = 4000", "n_samples = 0"),
    ("identity", "n_samples = 4000", "n_samples = -5"),
    # a non-finite or non-positive tolerance switches a certificate off
    ("converge", "n_p_samples = 4", "n_p_samples = 4\n    eig_tol = nan"),
    ("converge", "n_p_samples = 4", "n_p_samples = 4\n    eig_tol = inf"),
    ("identity", "n_samples = 4000",
     "n_samples = 4000\n    tol_identity = nan"),
    ("identity", "n_samples = 4000",
     "n_samples = 4000\n    tol_identity = -1e-10"),
    # a non-finite or non-positive cutoff would select no mode, or every
    # mode, without saying so
    ("identity", "lambda_list = 1, 2", "lambda_list = nan, 2"),
    ("identity", "lambda_list = 1, 2", "lambda_list = -1, 2"),
    ("identity", "lambda_list = 1, 2", "lambda_list = 1, inf"),
    ("converge", "lambda_list = 1, 2", "lambda_list = nan, 2"),
    # every other study or grid value must be finite too
    ("identity", "lambda_shifts = 0, 1", "lambda_shifts = 0, nan"),
    ("converge", "n_p_samples = 4", "fit_lambda_list = 8, nan, 32"),
    ("regularity", "n_p_samples = 4", "ladder_k_max = 1, 2, nan"),
    ("regularity", "n_p_samples = 4", "eta_list = 0.25, nan"),
    ("identity", "k_max = 2.0", "k_max = nan"),
    ("regularity", "k_max = 2.0", "k_max = nan"),
    # check and bounds build no grid, so load_config refuses it for them
    ("check", "k_max = 2.0", "k_max = nan"),
    ("bounds", "k_max = 2.0", "k_max = nan"),
    ("check", "k_max = 2.0", "k_max = 0"),
    ("bounds", "k_max = 2.0", "k_max = inf"),
    ("check", "n_per_axis = 5", "n_per_axis = 4"),
    ("bounds", "n_per_axis = 5", "n_per_axis = 0"),
    ("check", "n_max = 1", "n_max = -1"),
    ("bounds", "n_max = 1", "n_max = -1"),
    # a ladder rung must sit on the base spacing (1 here): k_max 2.2 would
    # run 5 points at spacing 1.1
    ("regularity", "n_p_samples = 4", "ladder_k_max = 1, 2.2, 4"),
    # numpy's generators refuse a negative seed
    ("check", "n_samples = 4000", "n_samples = 4000\n    seed = -5"),
    ("bounds", "n_samples = 4000", "n_samples = 4000\n    seed = -1"),
    ("identity", "n_samples = 4000", "n_samples = 4000\n    seed = -1"),
    # an empty exponent list would write tables with no rows, and a
    # repeated one crashed the slope fit
    ("regularity", "n_p_samples = 4", "eta_list ="),
    ("regularity", "n_p_samples = 4", "eta_list = 0.25, 0.25"),
    # a basis beyond the cap (650 states here) is refused where it is
    # enumerated, and main maps BasisTooLarge
    ("identity", "n_max = 1", "n_max = 1\n    basis_cap = 10"),
    ("converge", "n_max = 1", "n_max = 1\n    basis_cap = 10"),
    ("regularity", "n_max = 1", "n_max = 1\n    basis_cap = 10"),
])
def test_out_of_range_study_values_exit_one(tmp_path, capsys, command, old,
                                            new):
    path = write_cfg(tmp_path, TINY_GROSS.replace(old, new))
    assert cli.main([command, "--config", path,
                     "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command, old, new", [
    # the study has no norm_tol (its resolvent distance is exact); like
    # any unknown key it is ignored, whatever its value
    ("converge", "n_p_samples = 4", "n_p_samples = 4\n    norm_tol = -1e-4"),
])
def test_ignored_study_keys_load_and_run(tmp_path, command, old, new):
    path = write_cfg(tmp_path, TINY_GROSS.replace(old, new))
    assert cli.main([command, "--config", path,
                     "--out", str(tmp_path / "o")]) == cli.EXIT_OK


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-10"])
def test_out_of_range_tol_flag_exits_one(tmp_path, tol):
    path = write_cfg(tmp_path, TINY_GROSS)
    assert cli.main(["identity", "--config", path, "--tol=" + tol,
                     "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("command", ["check", "bounds", "identity"])
def test_negative_seed_flag_exits_one(tmp_path, command):
    # run as a process: a seed that reached numpy used to end in a
    # traceback with exit 1 from the interpreter, not from the parser
    path = write_cfg(tmp_path, TINY_GROSS)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(cli.__file__).parents[1]),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "ibcfock.cli", command, "--config", path,
         "--seed", "-1", "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == cli.EXIT_CONFIG
    assert "invalid config" in proc.stderr
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# exit codes

def test_check_tiny_gross_exits_zero(tmp_path):
    path = write_cfg(tmp_path, TINY_GROSS)
    out = tmp_path / "out"
    assert cli.main(["check", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "check_report.json").read_text())
    assert report["all_hold"] is True
    assert report["reports"]["condition_exponent_window"]["holds"] is True
    assert report["reports"]["condition_growth_integral"]["monotone_in_cutoff"]


def test_eckmann_massless_config_exits_two(tmp_path):
    path = write_cfg(tmp_path, """\
        [model]
        kind = eckmann
        mu = 0.0
        """)
    assert cli.main(["check", "--config", path,
                     "--out", str(tmp_path / "o")]) == cli.EXIT_CONDITION


def test_alpha_at_upper_boundary_exits_two(tmp_path):
    path = write_cfg(tmp_path, """\
        [model]
        kind = custom
        d = 2
        alpha = 1.0
        beta = 1.0
        gamma = 1.0
        """)
    assert cli.main(["check", "--config", path,
                     "--out", str(tmp_path / "o")]) == cli.EXIT_CONDITION


@pytest.mark.parametrize("command, old, new", [
    ("check", "m_boson = 1.0", "m_boson = inf"),
    ("identity", "m_boson = 1.0", "m_boson = nan"),
    ("identity", "mu = 1.0", "mu = inf"),
    ("identity", "coupling = 1.0", "coupling = nan"),
])
def test_non_finite_model_values_exit_two(tmp_path, command, old, new):
    path = write_cfg(tmp_path, TINY_GROSS.replace(old, new))
    assert cli.main([command, "--config", path,
                     "--out", str(tmp_path / "o")]) == cli.EXIT_CONDITION


def test_malformed_and_missing_configs_exit_one(tmp_path):
    garbage = tmp_path / "garbage.cfg"
    garbage.write_text("not an ini file {{{\n")
    assert cli.main(["check", "--config", str(garbage),
                     "--out", str(tmp_path / "a")]) == cli.EXIT_CONFIG
    assert cli.main(["check", "--config", str(tmp_path / "missing.cfg"),
                     "--out", str(tmp_path / "b")]) == cli.EXIT_CONFIG
    assert cli.main(["frobnicate", "--config", str(garbage)]) \
        == cli.EXIT_CONFIG


def test_scaling_window_violation_exits_one(tmp_path):
    path = write_cfg(tmp_path, """\
        [model]
        kind = gross

        [study]
        scaling_exponents = 0, 0, 0.5
        """)
    assert cli.main(["check", "--config", path,
                     "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("exps, message", [
    ("0, 0, 0.5", "scaling exponents outside the window"),
    ("0, -1, 2", "invalid config"),
])
def test_scaling_exponents_are_checked_at_load(tmp_path, exps, message):
    path = write_cfg(tmp_path, """\
        [model]
        kind = gross

        [study]
        scaling_exponents = %s
        """ % exps)
    with pytest.raises(cli.CommandError) as info:
        cli.load_config(path)
    assert info.value.code == cli.EXIT_CONFIG
    assert message in str(info.value)


@pytest.mark.parametrize("command", ["identity", "converge", "regularity"])
def test_massless_shift_zero_exits_two_through_the_assembly(tmp_path, capsys,
                                                           command):
    # the override passes the gate; the boundary map (or the study, before
    # it assembles) refuses shift 0 for massless bosons, and main reports
    # it in one message
    path = write_cfg(tmp_path, TINY_GROSS.replace(
        "m_boson = 1.0", "m_boson = 0.0").replace(
        "lambda_shifts = 0, 1", "lambda_shifts = 0"))
    out = tmp_path / "o"
    assert cli.main([command, "--config", path, "--out", str(out),
                     "--override-conditions"]) == cli.EXIT_CONDITION
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["override_conditions"] is True
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("condition failure (MasslessWithoutShift): ")


NAMED_ERRORS = [
    (errors.ConditionCViolated, cli.EXIT_CONDITION, "condition failure"),
    (errors.EckmannMassless, cli.EXIT_CONDITION, "condition failure"),
    (errors.EpsilonTooLarge, cli.EXIT_CONDITION, "condition failure"),
    (errors.MasslessNucleon, cli.EXIT_CONDITION, "condition failure"),
    (errors.MasslessWithoutShift, cli.EXIT_CONDITION, "condition failure"),
    (errors.NotConverged, cli.EXIT_NUMERIC, "numerical non-convergence"),
    (errors.QuadNotConverged, cli.EXIT_NUMERIC, "numerical non-convergence"),
    (errors.SolveNotConverged, cli.EXIT_NUMERIC, "numerical non-convergence"),
    (errors.BasisTooLarge, cli.EXIT_CONFIG, "configuration error"),
]


@pytest.mark.parametrize("error, code, label", NAMED_ERRORS,
                         ids=[e.__name__ for e, _, _ in NAMED_ERRORS])
def test_named_errors_exit_with_their_documented_code(tmp_path, capsys,
                                                      monkeypatch, error,
                                                      code, label):
    def stub(cfg, manifest, args):
        raise error("stubbed")

    monkeypatch.setitem(cli._COMMANDS, "check", stub)
    path = write_cfg(tmp_path, TINY_GROSS)
    out = tmp_path / "o"
    assert cli.main(["check", "--config", path, "--out", str(out)]) == code
    assert capsys.readouterr().err == "%s (%s): stubbed\n" % (
        label, error.__name__)
    assert (out / "manifest.json").is_file()


def test_every_condition_and_convergence_error_is_documented():
    for base, code in ((errors.ConditionFailure, cli.EXIT_CONDITION),
                       (errors.NonConvergence, cli.EXIT_NUMERIC)):
        assert set(base.__subclasses__()) == {
            e for e, c, _ in NAMED_ERRORS if c == code}


def test_failing_conditions_gate_and_override_semantics(tmp_path):
    # negative ultraviolet degree fails the exponent-window checker
    path = write_cfg(tmp_path, """\
        [model]
        kind = custom
        d = 1
        alpha = 0.25
        beta = 1.0
        gamma = 1.0
        mu = 1.0
        m_boson = 1.0

        [grid]
        k_max = 1.0
        n_per_axis = 3
        n_max = 1

        [study]
        lambda_list = 1
        variants = 1
        lambda_shifts = 0
        n_p_samples = 2
        n_samples = 2000
        """)
    # check: strict gate, unless the override asks for report-only mode
    strict = tmp_path / "strict"
    assert cli.main(["check", "--config", path,
                     "--out", str(strict)]) == cli.EXIT_CONDITION
    report = json.loads((strict / "check_report.json").read_text())
    assert report["all_hold"] is False
    assert report["reports"]["condition_exponent_window"]["holds"] is False

    forced = tmp_path / "forced"
    assert cli.main(["check", "--config", path, "--out", str(forced),
                     "--override-conditions"]) == 0
    manifest = json.loads((forced / "manifest.json").read_text())
    assert manifest["override_conditions"] is True

    # assembly commands: the gate blocks; the override bypasses only the
    # gate, never the library's own enforcement inside the decomposition
    blocked = tmp_path / "blocked"
    assert cli.main(["identity", "--config", path,
                     "--out", str(blocked)]) == cli.EXIT_CONDITION
    manifest = json.loads((blocked / "manifest.json").read_text())
    assert manifest["checker_reports"]["condition_exponent_window"]["holds"] \
        is False

    still = tmp_path / "still"
    assert cli.main(["identity", "--config", path, "--out", str(still),
                     "--override-conditions"]) == cli.EXIT_CONDITION
    manifest = json.loads((still / "manifest.json").read_text())
    assert manifest["override_conditions"] is True


# ---------------------------------------------------------------------------
# identity command

def test_identity_tiny_gross_outputs_and_hash(tmp_path):
    path = write_cfg(tmp_path, TINY_GROSS)
    out = tmp_path / "out"
    assert cli.main(["identity", "--config", path, "--out", str(out)]) == 0

    manifest = json.loads((out / "manifest.json").read_text())
    listing = sorted(os.listdir(out))
    assert listing == sorted(manifest["outputs"] + ["manifest.json"])

    # every output embeds the config hash
    first = (out / "identity_report.csv").read_text().splitlines()[0]
    meta = json.loads(first.lstrip("# "))
    assert meta["config_sha256"] == manifest["config_sha256"]
    payload = json.loads((out / "identity_report.json").read_text())
    assert payload["config_sha256"] == manifest["config_sha256"]
    assert payload["all_pass"] is True
    # cutoff x variant x shift rows plus one invariance row per pair
    assert len(payload["rows"]) == 2 * 2 * 2 + 2 * 2 * 1
    assert all(r["passed"] for r in payload["rows"])

    # the norm column is a bound on ||D||_2 >= max |d_ij|
    header = (out / "identity_report.csv").read_text().splitlines()[1]
    assert header.split(",") == [
        "kind", "lambda_uv", "variant", "lambda_shift", "max_abs_diff",
        "max_rel_diff", "opnorm_diff_bound", "passed"]
    for r in payload["rows"]:
        assert "opnorm_diff_estimate" not in r
        assert r["opnorm_diff_bound"] >= r["max_abs_diff"]


def test_identity_report_keeps_its_row_order(tmp_path):
    # the sweep runs shift-outer so that every variant shares one
    # (cutoff, shift) part; the report still lists cutoff, then variant,
    # then shift, the direct-vs-ibc row before the shift-invariance row
    d, s = "direct-vs-ibc", "shift-invariance"
    want = [(d, 1.0, 1, 0.0), (d, 1.0, 1, 1.0), (s, 1.0, 1, 1.0),
            (d, 1.0, 2, 0.0), (d, 1.0, 2, 1.0), (s, 1.0, 2, 1.0),
            (d, 2.0, 1, 0.0), (d, 2.0, 1, 1.0), (s, 2.0, 1, 1.0),
            (d, 2.0, 2, 0.0), (d, 2.0, 2, 1.0), (s, 2.0, 2, 1.0)]
    for flags, code in (([], cli.EXIT_OK),
                        (["--corrupt-offdiag-sign"], cli.EXIT_IDENTITY)):
        out = tmp_path / ("out%d" % code)
        assert cli.main(["identity", "--config", "nelson", "--out", str(out)]
                        + flags) == code
        rows = json.loads((out / "identity_report.json").read_text())["rows"]
        assert [(r["kind"], r["lambda_uv"], r["variant"], r["lambda_shift"])
                for r in rows] == want


def test_identity_builds_one_creation_matrix_per_cutoff(tmp_path,
                                                        monkeypatch):
    # both routes and every (variant, shift) at one cutoff share the
    # creation matrix kept on the basis
    build = ops._creation_matrix.__wrapped__
    builds = []
    monkeypatch.setattr(ops._creation_matrix, "__wrapped__", lambda *a: (
        builds.append(a[1]), build(*a))[1])
    assert cli.main(["identity", "--config", "nelson",
                     "--out", str(tmp_path / "o")]) == cli.EXIT_OK
    assert builds == [1.0, 2.0]


def test_identity_corrupt_hook_exits_three(tmp_path):
    path = write_cfg(tmp_path, TINY_GROSS)
    out = tmp_path / "out"
    code = cli.main(["identity", "--config", path, "--out", str(out),
                     "--corrupt-offdiag-sign"])
    assert code == cli.EXIT_IDENTITY
    payload = json.loads((out / "identity_report.json").read_text())
    assert payload["all_pass"] is False
    assert payload["worst_rel_diff"] > 1e-6


@pytest.mark.parametrize("command, config", [
    ("identity", TINY_GROSS), ("converge", TINY_GROSS),
    ("regularity", TINY_REGULARITY)], ids=["identity", "converge",
                                           "regularity"])
def test_runs_are_byte_deterministic(tmp_path, command, config):
    # every artifact but the manifest (which carries timestamps)
    path = write_cfg(tmp_path, config)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main([command, "--config", path, "--out", str(out_a)]) == 0
    assert cli.main([command, "--config", path, "--out", str(out_b)]) == 0
    names = sorted(os.listdir(out_a))
    assert names == sorted(os.listdir(out_b))
    assert len(names) > 2
    for name in set(names) - {"manifest.json"}:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_identity_dump_operators_registers_file(tmp_path):
    path = write_cfg(tmp_path, TINY_GROSS + "dump_operators = true\n")
    out = tmp_path / "out"
    assert cli.main(["identity", "--config", path, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert "hamiltonian_direct.triplets" in manifest["outputs"]
    header = json.loads(
        (out / "hamiltonian_direct.triplets").read_text().splitlines()[0])
    assert header["hermitian"] is True


# ---------------------------------------------------------------------------
# converge command

def test_converge_tiny_gross_outputs(tmp_path):
    path = write_cfg(tmp_path, TINY_GROSS)
    out = tmp_path / "out"
    assert cli.main(["converge", "--config", path, "--out", str(out)]) == 0

    manifest = json.loads((out / "manifest.json").read_text())
    listing = sorted(os.listdir(out))
    assert listing == sorted(manifest["outputs"] + ["manifest.json"])
    for name in ("converge_v1.csv", "converge_v2.csv", "divergence_fit.json",
                 "variant_difference_check.json", "plot_converge.csv",
                 "plot_converge.py"):
        assert name in manifest["outputs"]

    fit = json.loads((out / "divergence_fit.json").read_text())
    assert fit["config_sha256"] == manifest["config_sha256"]
    assert fit["slope_log"] > 0 and fit["slope_log1p"] > 0
    # unit coupling, unit masses: the cutoff derivative of the
    # counterterm approaches pi on the window 8..64
    assert fit["slope_log"] == pytest.approx(np.pi, rel=0.02)
    assert fit["slope_log1p"] == pytest.approx(np.pi / 2.0, rel=1e-6)

    diff = json.loads((out / "variant_difference_check.json").read_text())
    assert diff["holds"] is True
    assert diff["max_offdiagonal"] == 0.0
    assert diff["max_deviation_from_shift_diagonal"] < 1e-12

    meta = json.loads((out / "converge_v1.csv").read_text()
                      .splitlines()[0].lstrip("# "))
    assert meta["config_sha256"] == manifest["config_sha256"]
    assert meta["basis_sha256"] == manifest["basis_sha256"]
    payload = json.loads((out / "converge_v1.json").read_text())
    assert payload["basis_sha256"] == manifest["basis_sha256"]


def test_converge_single_cutoff_is_trivial_table(tmp_path):
    path = write_cfg(tmp_path, TINY_GROSS.replace(
        "lambda_list = 1, 2", "lambda_list = 2").replace(
        "variants = 1, 2", "variants = 1"))
    out = tmp_path / "out"
    assert cli.main(["converge", "--config", path, "--out", str(out)]) == 0
    payload = json.loads((out / "converge_v1.json").read_text())
    assert len(payload["rows"]) == 1
    assert payload["rows"][0]["resolvent_diff_to_finest"] == 0.0


# ---------------------------------------------------------------------------
# regularity command

def test_regularity_tiny_ladder(tmp_path):
    path = write_cfg(tmp_path, TINY_REGULARITY)
    out = tmp_path / "out"
    assert cli.main(["regularity", "--config", path, "--out", str(out)]) == 0
    payload = json.loads((out / "regularity.json").read_text())
    assert payload["threshold"] == pytest.approx(0.5)
    assert set(float(k) for k in payload["slopes"]) == {0.25, 0.75}
    assert len(payload["rows"]) == 3 * 2
    meta = json.loads((out / "regularity.csv").read_text()
                      .splitlines()[0].lstrip("# "))
    assert meta["basis_digests"] == payload["basis_digests"]
    assert len(set(meta["basis_digests"])) == 3
    table = (out / "growth_exponents.csv").read_text().splitlines()
    assert table[1] == "eta,growth_slope,threshold"
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(os.listdir(out)) == sorted(manifest["outputs"]
                                             + ["manifest.json"])


def test_regularity_incompatible_ladder_exits_one(tmp_path):
    path = write_cfg(tmp_path, """\
        [model]
        kind = gross

        [grid]
        k_max = 1.0
        n_per_axis = 3
        n_max = 1

        [study]
        ladder_k_max = 1, 1.5, 2
        """)
    assert cli.main(["regularity", "--config", path,
                     "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG


# ---------------------------------------------------------------------------
# bounds command

def test_bounds_tiny_gross(tmp_path):
    path = write_cfg(tmp_path, TINY_GROSS)
    out = tmp_path / "out"
    assert cli.main(["bounds", "--config", path, "--out", str(out)]) == 0
    payload = json.loads((out / "bounds_report.json").read_text())
    assert payload["all_hold"] is True
    assert payload["reports"]["kinematic_bound"]["applicable"] is False
    growth = payload["reports"]["growth_condition"]
    assert growth["monotone_in_cutoff"] is True
    assert growth["envelope_constant"] > 0
    assert growth["envelope_stability"] >= 0.0
    sweep = (out / "condition_b_sweep.csv").read_text().splitlines()
    assert sweep[1] == "p_norm,lam_1,lam_2,lam_4,lam_8"
    assert len(sweep) == 2 + 4


def test_bounds_eckmann_kinematic_applicable(tmp_path):
    path = write_cfg(tmp_path, """\
        [model]
        kind = eckmann
        mu = 1.0
        m_boson = 1.0

        [study]
        n_p_samples = 2
        n_samples = 2000
        """)
    out = tmp_path / "out"
    assert cli.main(["bounds", "--config", path, "--out", str(out)]) == 0
    payload = json.loads((out / "bounds_report.json").read_text())
    kin = payload["reports"]["kinematic_bound"]
    assert kin["applicable"] is True
    assert kin["holds"] is True
    assert kin["max_ratio"] <= kin["c_analytic"] + 1e-12
