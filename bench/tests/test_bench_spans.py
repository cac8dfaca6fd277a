"""The tracer: self-time arithmetic, binding-site coverage, and that tracing
changes neither the program's objects when off nor its report bytes when on."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg

import spans
import worker
import stokesqp
import workloads
from stokesqp import cli, qp, stokes

SRC = str(Path(stokesqp.__file__).resolve().parents[1])


def _span(sid, parent, metric, start, end, op=0, counts=None, **extra):
    return {"id": sid, "op": op, "parent": parent, "metric": metric,
            "start": start, "end": end, "counts": counts or {}, **extra}


def test_self_times_subtract_children():
    tree = [
        _span(0, None, "cli.self_s", 0.0, 10.0),
        _span(1, 0, "qp.solve_s.direct", 1.0, 4.0),
        _span(2, 1, "solvers.factor_s", 2.0, 3.0),
        _span(3, 0, "mmio.read_s", 5.0, 9.0),
    ]
    selfs = spans.self_times(tree)
    assert selfs == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    metrics, walls, sums = spans.aggregate(tree)
    assert walls == {0: 10.0} and sums == {0: 10.0}
    assert metrics["cli.self_s"] == 3.0
    assert metrics["qp.solve_s.direct"] == 2.0
    assert metrics["solvers.factor_s"] == 1.0
    assert metrics["mmio.read_s"] == 4.0


def test_self_time_counts_overlapping_children_once():
    tree = [
        _span(0, None, "cli.self_s", 0.0, 10.0),
        _span(1, 0, "mmio.read_s", 2.0, 6.0),
        _span(2, 0, "mmio.write_s", 4.0, 8.0),
        _span(3, 0, "qp.io_s", 9.0, 12.0),     # clipped to the parent's end
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_aggregate_counts_ratios_and_errors():
    tree = [
        _span(0, None, "cli.self_s", 0.0, 4.0),
        _span(1, 0, "solvers.solve_s", 0.0, 1.0,
              counts={"solvers.sym_solves": 1, "solvers.refined": 1}),
        _span(2, 0, "solvers.solve_s", 1.0, 2.0,
              counts={"solvers.sym_solves": 1, "solvers.refined": 0}),
        _span(3, 0, "stokes.minimization_s", 2.0, 3.0, error=7),
        _span(4, 3, "qp.recover_s", 2.1, 2.9, error=7),
        _span(5, 4, "qp.certify_s", 2.2, 2.8, error=7),
        _span(6, None, "cli.self_s", 5.0, 6.0, op=1,
              counts={"solvers.cg_iters": 12}),
    ]
    metrics, walls, sums = spans.aggregate(tree)
    assert metrics["solvers.refine_ratio"] == 0.5
    # one exception crossing two qp spans and a stokes span
    assert metrics["qp.errors"] == 1 and metrics["stokes.errors"] == 1
    assert metrics["solvers.errors"] == 0
    assert metrics["solvers.cg_iters"] == 12
    assert walls == {0: 4.0, 1: 1.0}
    assert sums == pytest.approx(walls)


def test_tracer_nests_spans_and_tags_exceptions():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    def inner():
        raise ValueError("boom")

    inner_t = tracer.wrap(inner, "qp.certify_s")

    def outer():
        return inner_t()

    outer_t = tracer.wrap(outer, "qp.recover_s")
    with pytest.raises(ValueError):
        outer_t()
    first, second = tracer.spans
    assert second["parent"] == first["id"]
    assert first["error"] == second["error"]
    assert spans.aggregate(tracer.spans)[0]["qp.errors"] == 1


def _wrapped(obj, original):
    return getattr(obj, "__wrapped__", None) is original


def test_install_wraps_every_binding_and_uninstall_restores():
    original_cg = stokes.conjugate_gradient
    original_splu = scipy.sparse.linalg.splu
    original_recover = stokes.recover_multiplier
    original_direct = cli._SOLVERS["direct"]
    original_post_init = vars(qp.QpProblem)["__post_init__"]
    before = [(ns, key, spans.current(ns, key))
              for ns, key, *_ in spans.binding_sites()]

    installation = spans.install(spans.Tracer())
    try:
        assert _wrapped(stokes.conjugate_gradient, original_cg)
        assert qp.conjugate_gradient is stokes.conjugate_gradient
        assert _wrapped(stokes.splu, original_splu)
        assert _wrapped(scipy.sparse.linalg.splu, original_splu)
        assert _wrapped(stokes.recover_multiplier, original_recover)
        assert _wrapped(cli._SOLVERS["direct"], original_direct)
        assert _wrapped(cli.solve_kkt_direct, original_direct)
        assert _wrapped(vars(qp.QpProblem)["__post_init__"],
                        original_post_init)
        assert all(spans.current(ns, key) is not obj
                   for ns, key, obj in before)
    finally:
        installation.uninstall()
    assert all(spans.current(ns, key) is obj for ns, key, obj in before)


def _small_ops(tmp_path):
    rng = np.random.default_rng(5)
    problem = tmp_path / "p"
    workloads.write_qp_instance(problem, rng, 24, 9, homogeneous=False)
    out = tmp_path / "out"
    return [
        {"name": "stokes", "argv": ["stokes", "--n", "8", "--output",
                                    str(out / "stokes")]},
        {"name": "converge", "argv": ["converge", "--n-list", "4,8",
                                      "--output", str(out / "converge")]},
        {"name": "infsup", "argv": ["infsup", "--n-list", "4,6",
                                    "--output", str(out / "infsup")]},
        {"name": "schur", "argv": ["qp-solve", "--input", str(problem),
                                   "--method", "schur", "--infsup",
                                   "--output", str(out / "schur")]},
        {"name": "nullspace", "argv": ["qp-solve", "--input", str(problem),
                                       "--method", "nullspace",
                                       "--output", str(out / "nullspace")]},
        {"name": "verify", "argv": ["verify", "--seed", "2", "--output",
                                    str(out / "verify")]},
    ]


def test_untraced_pass_leaves_every_binding_untouched(tmp_path):
    before = [(ns, key, spans.current(ns, key))
              for ns, key, *_ in spans.binding_sites()]
    results = worker.run_pass(_small_ops(tmp_path)[:2])
    assert [r["code"] for r in results] == [0, 0]
    assert all(spans.current(ns, key) is obj for ns, key, obj in before)
    assert not any(hasattr(obj, "__wrapped__") for _, _, obj in before)


def _worker(tmp_path, ops, trace, label):
    plan = tmp_path / f"plan-{label}.json"
    result = tmp_path / f"result-{label}.json"
    plan.write_text(json.dumps({"ops": ops, "trace": trace, "src": SRC}))
    subprocess.run([sys.executable, worker.__file__, str(plan), str(result)],
                   check=True, capture_output=True,
                   env=dict(os.environ, PYTHONPATH=SRC))
    return json.loads(result.read_text())


def _digests(root):
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).digest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_traced_reports_are_byte_identical_and_self_times_add_up(tmp_path):
    ops = _small_ops(tmp_path)
    out = tmp_path / "out"
    plain = _worker(tmp_path, ops, False, "plain")
    untraced = _digests(out)
    shutil.rmtree(out)
    traced = _worker(tmp_path, ops, True, "traced")
    assert [r["code"] for r in plain["ops"]] == [0] * len(ops)
    assert [r["code"] for r in traced["ops"]] == [0] * len(ops)
    assert untraced and _digests(out) == untraced

    metrics, walls, sums = spans.aggregate(traced["spans"])
    assert sorted(walls) == list(range(len(ops)))
    for op, wall in walls.items():
        assert sums[op] == pytest.approx(wall, rel=1e-9, abs=1e-12)
    for name in ("solvers.factor_calls", "solvers.factor_fill_nnz",
                 "solvers.cg_iters", "solvers.eigen_dim",
                 "stokes.project_calls", "stokes.schur_dense_bytes",
                 "stokes.export_bytes", "mmio.read_bytes", "mmio.write_bytes",
                 "qp.schur_outer_iters", "sparse.construct_calls"):
        assert metrics[name] > 0, name
    for name in ("stokes.coupled_s", "stokes.minimization_s",
                 "stokes.infsup_s", "qp.solve_s.schur", "qp.validate_s",
                 "solvers.rank_check_s", "verify.suite_s", "cli.self_s"):
        assert metrics[name] > 0.0, name


def test_benchmark_json_lists_every_reported_metric():
    import run

    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.UNITS
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    names = {m["name"] for m in doc["end_to_end"]}
    assert names == {"wall_s", "op_p50_s", "peak_rss_mb", "setup_s"}
