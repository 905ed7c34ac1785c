"""Span tracer for one benchmark process, attached from outside the package.

`install(recorder)` wraps the public functions in TRACED at every
`ibcfock.*` namespace that binds them.  Patching only the defining module
would lose spans: `cli` imports with `from .ops import ...`, `spectral`
reaches `assemble_H_direct` through its own globals, and `ops` reaches
`resolvent_sum_grid` through its own globals.

Per-point model functions (`form_factor`, `ff_sq_axial`, `dispersion_*`)
are deliberately not wrapped: they run about 10^6 times per quadrature
run and wrapping them would make the tracer dominate.  Their cost shows
up as `quad.us_per_eval` instead.

Each span is `[run_id, name, parent, start, end, counts]`, where parent
is the index of the enclosing span; spans stay in memory and are written
out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import uuid

TRACED = {
    "fockgrid": ("enumerate_basis",),
    "model": ("check_condition_a",),
    "ops": ("assemble_H_ibc", "assemble_H_direct", "assemble_G",
            "assemble_Td", "assemble_T_od", "assemble_tau",
            "assemble_T_cutoff", "verify_identity"),
    "quad": ("resolvent_sum_grid", "counterterm_grid", "counterterm",
             "axisymmetric_integral"),
    "spectral": ("lowest_eigenpairs", "cutoff_convergence_study"),
    "cli": ("main",),
}


def _operator_counts(op) -> dict:
    m = op.matrix
    return {"nnz": op.nnz,
            "bytes": int(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)}


# counts taken from return values, at the same boundary as the span
_COUNTS = {
    "fockgrid.enumerate_basis": lambda b: {"total_dim": int(b.total_dim)},
    "ops.assemble_H_direct": _operator_counts,
    "ops.assemble_H_ibc": _operator_counts,
    "quad.axisymmetric_integral": lambda q: {"n_evals": int(q.n_evals)},
    "spectral.lowest_eigenpairs": lambda e: {"lanczos":
                                            int(e.method == "lanczos")},
}


class Recorder:
    """In-memory span store with the stack of currently open spans."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex[:12]
        self.spans = []
        self._open = []

    def wrap(self, name: str, fn):
        counts_of = _COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [self.run_id, name, self._open[-1] if self._open else None,
                   time.perf_counter(), None, None]
            self._open.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                self._open.pop()
            if counts_of is not None:
                rec[5] = counts_of(out)
            return out

        return traced


def install(recorder: Recorder) -> None:
    """Replace every binding of a TRACED function inside `ibcfock`."""
    import ibcfock.cli  # noqa: F401  (loads every layer module)

    modules = [m for k, m in sys.modules.items()
               if k == "ibcfock" or k.startswith("ibcfock.")]
    for layer, names in TRACED.items():
        defining = sys.modules["ibcfock." + layer]
        for fn_name in names:
            original = getattr(defining, fn_name)
            wrapped = recorder.wrap("%s.%s" % (layer, fn_name), original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)


# derived counters: name -> unit; every other metric is `<layer>.<fn>.s`,
# `.self_s`, `.calls` per traced function plus `<layer>.self_s` per layer
COUNTERS = {
    "fockgrid.total_dim": "count",
    "ops.nnz_direct": "count",
    "ops.nnz_ibc": "count",
    "ops.ibc_nnz_ratio": "ratio",
    "ops.operator_mb": "MB",
    "quad.n_evals": "count",
    "quad.us_per_eval": "us",
    "spectral.lanczos_calls": "count",
    "cli.output_bytes": "bytes",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def units() -> dict:
    """Unit of every per-layer metric, in report order."""
    out = {}
    for layer, names in TRACED.items():
        for fn_name in names:
            key = "%s.%s" % (layer, fn_name)
            out.update({key + ".s": "s", key + ".self_s": "s",
                        key + ".calls": "count"})
        out[layer + ".self_s"] = "s"
    out.update(COUNTERS)
    return out


def summarize(run: dict) -> dict:
    """Per-layer metrics of one traced run (all but trace.overhead_s)."""
    spans = run["spans"]
    dur = [end - start for _, _, _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, parent, *_rest) in enumerate(spans):
        if parent is not None:
            child[parent] += dur[i]
    out = {k: 0.0 if u == "s" else 0 for k, u in units().items()
           if k != "trace.overhead_s"}
    counts = {}
    for i, (_, name, _, _, _, c) in enumerate(spans):
        out[name + ".s"] += dur[i]
        out[name + ".self_s"] += dur[i] - child[i]
        out[name + ".calls"] += 1
        out[name.split(".")[0] + ".self_s"] += dur[i] - child[i]
        for key, value in (c or {}).items():
            counts.setdefault((name, key), []).append(value)

    def largest(name, key):
        return max(counts.get((name, key), [0]))

    out["fockgrid.total_dim"] = largest("fockgrid.enumerate_basis",
                                        "total_dim")
    out["ops.nnz_direct"] = largest("ops.assemble_H_direct", "nnz")
    out["ops.nnz_ibc"] = largest("ops.assemble_H_ibc", "nnz")
    if out["ops.nnz_direct"] and out["ops.nnz_ibc"]:
        out["ops.ibc_nnz_ratio"] = out["ops.nnz_direct"] / out["ops.nnz_ibc"]
    out["ops.operator_mb"] = max(largest("ops.assemble_H_direct", "bytes"),
                                 largest("ops.assemble_H_ibc", "bytes")) / 1e6
    n_evals = sum(counts.get(("quad.axisymmetric_integral", "n_evals"), []))
    out["quad.n_evals"] = n_evals
    if n_evals:
        out["quad.us_per_eval"] = (
            out["quad.axisymmetric_integral.self_s"] / n_evals * 1e6)
    out["spectral.lanczos_calls"] = sum(
        counts.get(("spectral.lowest_eigenpairs", "lanczos"), []))
    out["cli.output_bytes"] = run["output_bytes"]
    out["trace.spans"] = len(spans)
    return out


def combine(per_run: list):
    """Median of each time over runs, and whether every count repeated."""
    if not per_run:
        return {}, True
    kinds = units()
    merged, repeat = {}, True
    for key in per_run[0]:
        values = [r[key] for r in per_run]
        if kinds[key] == "count":
            repeat &= len(set(values)) == 1
            merged[key] = values[0]
        else:
            merged[key] = statistics.median(values)
    return merged, repeat
