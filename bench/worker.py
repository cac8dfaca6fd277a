"""Run one pass over a workload's operations in this (fresh) process.

Usage: python3 bench/worker.py PLAN.json RESULT.json

The plan holds the operations and whether to trace.  Each operation is one
call of ``stokesqp.cli.run``, timed alone; nothing else runs between the
calls.  The result holds the time this fresh process took to import
``stokesqp.cli``, each operation's exit code and wall time, the process's
peak RSS, the BLAS thread count, and with tracing the spans.
"""

import ctypes
import json
import resource
import sys
import time


def run_pass(ops, tracer=None):
    """Call ``stokesqp.cli.run`` once per operation, in order."""
    from stokesqp import cli

    results = []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = index
        start = time.perf_counter()
        try:
            code = cli.run(op["argv"])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash fails this operation, not the pass
            code = f"{type(exc).__name__}: {exc}"
        results.append({"name": op["name"], "code": code,
                        "wall_s": time.perf_counter() - start})
    return results


def blas_threads():
    """Thread count of each OpenBLAS loaded into this process."""
    counts = {}
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                counts[path.rsplit("/", 1)[-1]] = getter()
                break
    return counts


def main(plan_path, result_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    start = time.perf_counter()
    import stokesqp.cli
    import_s = time.perf_counter() - start

    if not stokesqp.cli.__file__.startswith(plan["src"]):
        raise SystemExit(f"stokesqp imported from {stokesqp.cli.__file__}, "
                         f"not from {plan['src']}")
    tracer = installation = None
    if plan["trace"]:
        import spans

        tracer = spans.Tracer()
        installation = spans.install(tracer)
    ops = run_pass(plan["ops"], tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if installation is not None:
        installation.uninstall()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"ops": ops, "import_s": import_s,
                   "peak_rss_mb": peak_rss_mb,
                   "blas_threads": blas_threads(),
                   "spans": tracer.spans if tracer else None}, fh)


if __name__ == "__main__":
    main(*sys.argv[1:])
