"""Self-test of the benchmark harness (not part of the package's suite).

    PYTHONPATH=src python3 -m pytest -q perfbench

Uses the small `nelson` preset, so it takes a few seconds.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

NELSON = ("identity", "--config", "nelson")


def test_negative_control_counts_as_failed(tmp_path):
    argv = [*NELSON, "--corrupt-offdiag-sign"]
    rec = run.cli_run(tmp_path, "identity-gross", argv, 0, False, 120)
    assert rec["exit_code"] == 3
    assert rec["problems"] == ["exit code 3"]
    res = run.summarize([rec], [0.5], trace=False)
    assert (res["attempted"], res["failed"], res["correct"]) == (1, 1, False)


def test_gate_rejects_corrupted_report_even_with_exit_zero(tmp_path):
    out = tmp_path / "out"
    rec, err = run.spawn(tmp_path, [], [*NELSON, "--corrupt-offdiag-sign",
                                        "--out", str(out)], 120)
    assert err is None and rec["exit_code"] == 3
    problems = gate.check("identity-gross", out, 0)
    assert "identity report says all_pass = false" in problems


def test_traced_self_times_add_up_and_counts_repeat(tmp_path):
    # the nelson basis is not the gross one, so the gate flags these runs;
    # only the exit code and the spans matter here
    runs = [run.cli_run(tmp_path, "identity-gross", NELSON, 0, traced, 120)
            for traced in (False, True, True)]
    assert all(r["exit_code"] == 0 for r in runs)
    m = spans.summarize(runs[1])
    layers = sum(m[layer + ".self_s"] for layer in spans.TRACED)
    assert layers == pytest.approx(m["cli.main.s"], rel=1e-9)
    assert m["ops.assemble_H_ibc.calls"] == 8
    assert m["ops.assemble_H_direct.calls"] == 4
    assert m["ops.nnz_direct"] > 0 and m["ops.nnz_ibc"] >= m["ops.nnz_direct"]
    assert m["fockgrid.total_dim"] > 0
    _, repeat = spans.combine([m, spans.summarize(runs[2])])
    assert repeat
    res = run.summarize(runs, [0.5], trace=True)
    assert res["metrics"].keys() == spans.units().keys()


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == spans.units()


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload",
         "identity-gross", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _child_cmdlines(root: Path) -> list:
    """Command lines of live processes that mention `root`."""
    found = []
    for path in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            text = path.read_bytes().decode(errors="replace")
        except OSError:
            continue
        if str(root) in text:
            found.append(text)
    return found


def test_sigterm_stops_the_child_and_cleans_up(tmp_path):
    bench = tmp_path / HERE.name
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src").symlink_to(HERE.parent / "src")
    proc = subprocess.Popen(
        [sys.executable, str(bench / "run.py"), "--workload", "identity-gross",
         "--seconds", "1"], cwd=tmp_path, stdout=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not any("child.py" in p for p in _child_cmdlines(tmp_path)):
            assert time.monotonic() < deadline and proc.poll() is None
            time.sleep(0.2)
        proc.terminate()
        assert proc.wait(timeout=30) != 0
    finally:
        proc.kill()
    assert _child_cmdlines(tmp_path) == []
    assert list((tmp_path / ".bench_work").iterdir()) == []
