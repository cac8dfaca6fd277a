"""stokesqp benchmark: end-to-end metrics per workload, or a traced
per-module breakdown.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload stokes-ladder --seed 1 --seconds 20 --trace 0

The load is a closed loop with one client: one CLI operation at a time, in a
fixed order.  Each pass over the workload's operations runs in a fresh
worker process, so its peak RSS belongs to that workload.  Passes repeat
until ``--seconds`` is spent (at least MIN_PASSES of them) and the metrics
are medians over passes.  Every operation's output is checked after its pass,
outside the timing.

``--trace 0`` reports the end-to-end metrics, with nothing wrapped.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (see spans.py), with the tracing
overhead as traced minus untraced pass wall time.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``correct`` is false when an
operation that returned its expected exit code wrote a wrong result, or when
a traced pass wrote other bytes than an untraced one; operations with an
unexpected exit code count as failed.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKER = Path(__file__).resolve().with_name("worker.py")

MIN_PASSES = {False: 3, True: 2}    # untraced, traced run
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0   # the whole run, worker processes included

SETUP_SNIPPET = ("import time; t = time.perf_counter(); import stokesqp.cli; "
                 "t = time.perf_counter() - t; "
                 "print(repr(t)); print(stokesqp.cli.__file__)")


class BenchError(RuntimeError):
    """The benchmark cannot produce a measurement."""


def _env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def _remaining(started):
    left = TIME_LIMIT_S - (time.monotonic() - started)
    if left <= 1.0:
        raise BenchError("out of time")
    return left


def measure_setup(started):
    """Import times of ``stokesqp.cli`` in fresh processes.

    One unmeasured import first compiles the bytecode of a fresh checkout.
    Each pass's worker adds its own import as one more sample.
    """
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET],
                              cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=_remaining(started))
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 2:
            raise BenchError(f"cannot import stokesqp.cli: {proc.stderr}")
        if not lines[1].startswith(str(SRC)):
            raise BenchError(f"stokesqp.cli came from {lines[1]}, not {SRC}")
        if k:
            samples.append(float(lines[0]))
    return samples


def run_worker(ops, trace, work, label, started):
    """One pass in a fresh worker process; returns the worker's result."""
    plan_path = work / f"plan-{label}.json"
    result_path = work / f"result-{label}.json"
    plan_path.write_text(json.dumps({"ops": ops, "trace": trace,
                                     "src": str(SRC)}))
    with open(work / f"worker-{label}.log", "w") as log:
        proc = subprocess.run([sys.executable, str(WORKER), str(plan_path),
                               str(result_path)], cwd=ROOT, env=_env(),
                              stdout=log, stderr=subprocess.STDOUT,
                              timeout=_remaining(started))
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}; "
                         f"see {work / f'worker-{label}.log'}")
    return json.loads(result_path.read_text())


def _output_digests(out):
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def run_passes(ops, work, seconds, trace, started, reference):
    """Repeat passes until ``seconds`` are spent; check each pass."""
    out = work / "out"
    passes = []
    problems = []
    measuring = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        result = run_worker(ops, traced, work, str(len(passes)), started)
        result["traced"] = traced
        found = {op["name"]: check.check_operation(op, r["code"], reference)
                 for op, r in zip(ops, result["ops"])}
        check.check_agreement(ops, found)
        result["problems"] = found
        if trace:
            digests = _output_digests(out)
            if traced and digests != passes[-1]["digests"]:
                problems.append("traced pass wrote other bytes than the "
                                "untraced pass before it")
            result["digests"] = digests
        passes.append(result)
        spent = time.monotonic() - measuring
        if len(passes) >= MIN_PASSES[trace] and \
                spent * (len(passes) + 1) / len(passes) > seconds:
            return passes, problems


def _wrong_result(passes, ops):
    """Whether an operation that returned its expected code was wrong."""
    return any(r["code"] == op["expect"] and p["problems"][op["name"]]
               for p in passes for op, r in zip(ops, p["ops"]))


def end_to_end(passes, setup_samples):
    setup_samples = setup_samples + [p["import_s"] for p in passes]
    walls = [sum(r["wall_s"] for r in p["ops"]) for p in passes]
    # each operation's median over passes first: the rungs of a ladder sit
    # far apart, so a pooled median would jump with one slowed sample
    op_walls = [statistics.median(p["ops"][k]["wall_s"] for p in passes)
                for k in range(len(passes[0]["ops"]))]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_s": (statistics.median(op_walls), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes),
                        "MB"),
        "setup_s": (statistics.median(setup_samples), "s"),
    }, len(setup_samples)


UNITS = {name: "s" for name in spans.TIME_METRICS}
UNITS.update({name: "count" for name in spans.COUNT_METRICS})
UNITS.update({name: "bytes" for name in spans.COUNT_METRICS
              if name.endswith("_bytes")})
UNITS.update({name: "ratio" for name in spans.RATIO_METRICS})
UNITS["trace.overhead_s"] = "s"


def per_layer(passes, problems):
    """Median per-layer metrics over the traced passes."""
    per_pass = []
    for p in passes:
        if not p["traced"]:
            continue
        metrics, op_walls, op_self_sums = spans.aggregate(p["spans"])
        for op, wall in op_walls.items():
            # rounding of thousands of clock differences stays far below 1 us
            if abs(op_self_sums[op] - wall) > 1e-6:
                problems.append(f"self times of operation {op} sum to "
                                f"{op_self_sums[op]!r}, not {wall!r}")
        per_pass.append(metrics)
    untraced = [sum(r["wall_s"] for r in p["ops"])
                for p in passes if not p["traced"]]
    traced = [sum(r["wall_s"] for r in p["ops"])
              for p in passes if p["traced"]]
    values = {name: statistics.median(m[name] for m in per_pass)
              for name in per_pass[0]}
    values["trace.overhead_s"] = (statistics.median(traced)
                                  - statistics.median(untraced))
    return {name: (value, UNITS[name]) for name, value in values.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "stokesqp" / "cli.py").is_file():
        raise BenchError(f"no stokesqp sources under {SRC}")
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    reference = check.load_reference()
    ops = workloads.operations(args.workload, work, args.seed)
    setup_samples = [] if args.trace else measure_setup(started)
    passes, problems = run_passes(ops, work, args.seconds, bool(args.trace),
                                  started, reference)

    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(1 for p in passes for op in ops if p["problems"][op["name"]])
    wrong = _wrong_result(passes, ops)
    if args.trace:
        metrics = per_layer(passes, problems)
    else:
        metrics, imports = end_to_end(passes, setup_samples)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {len(passes)}  operations {attempted}  failed {failed}")
    print(f"environment: nproc {len(os.sched_getaffinity(0))}, BLAS threads "
          f"{passes[0]['blas_threads']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"  {'fail_ratio':28s} {failed / attempted:14.6g} ratio "
              f"({failed}/{attempted})")
        print(f"  (op_p50_s: median over {len(ops)} operations of each one's "
              f"median over {len(passes)} passes; setup_s: median of "
              f"{imports} fresh imports)")
    seen = set()
    for p in passes:
        for name, found in p["problems"].items():
            if found and (name, tuple(found)) not in seen:
                seen.add((name, tuple(found)))
                print(f"FAILED {name}: {'; '.join(found)}")
    for message in problems:
        print(f"TRACE CHECK FAILED: {message}")
    (work / "summary.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "passes": passes,
         "setup_samples": setup_samples,
         "nproc": len(os.sched_getaffinity(0))}))
    print(json.dumps({
        "correct": not wrong and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
