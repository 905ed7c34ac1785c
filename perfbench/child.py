"""One benchmark process: import ibcfock, run `ibcfock.cli.main(argv)`, report.

    python3 child.py RESULT.json [--trace] [--probe] -- CLI_ARGV...

Writes RESULT.json with the monotonic time at which `main` is about to
start (the parent subtracts its own spawn time to get `setup_s`), the
wall and CPU time of `main`, the process's peak RSS, the exit code and,
with --trace, the spans of the run.  With --probe it exits right after
the import, so the parent gets one more set-up sample at little cost.
"""

import json
import os
import resource
import sys
import time
import traceback

import ibcfock.cli

ready = time.monotonic()


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def main() -> None:
    args = sys.argv[1:]
    result_path = args[0]
    sep = args.index("--")
    flags, argv = args[1:sep], args[sep + 1:]
    result = {"ready": ready}
    if "--probe" not in flags:
        recorder = None
        if "--trace" in flags:
            import spans
            recorder = spans.Recorder()
            spans.install(recorder)
        cpu0, t0 = _cpu(), time.perf_counter()
        try:
            code = ibcfock.cli.main(argv)
            error = None
        except Exception:
            code, error = None, traceback.format_exc()
        result.update(wall_s=time.perf_counter() - t0, cpu_s=_cpu() - cpu0,
                      exit_code=code, error=error,
                      output_bytes=_tree_bytes(argv[argv.index("--out") + 1]))
        if recorder is not None:
            result["spans"] = recorder.spans
    result["peak_rss_kb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
