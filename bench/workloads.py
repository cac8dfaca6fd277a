"""The benchmark's workloads: fixed lists of CLI operations.

Each operation is ``{"name", "argv", "expect", "check"}``: the argument list
handed to ``stokesqp.cli.run``, the exit code it must return, and what
:mod:`check` verifies in its output directory.  Only the entries of
``qp-core``'s problem instances depend on the seed; everything else is
deterministic by construction.
"""

from pathlib import Path

import numpy as np

STOKES_RUNGS = (16, 24, 32, 48)
CONVERGE_RUNGS = (16, 32, 64, 96)
INFSUP_RUNGS = (8, 16, 32, 48)
# instance k has N = 20 (k + 1) unknowns and N (k mod 3 + 1) / 4 constraints;
# the sizes are fixed so the seed changes the entries, not the amount of work
QP_SIZES = tuple((20 * (k + 1), 20 * (k + 1) * (k % 3 + 1) // 4)
                 for k in range(10))
QP_METHODS = ("direct", "nullspace", "schur")
# fixed for the same reason: the suite's own instance sizes follow its seed
VERIFY_SEEDS = (1, 2)

WORKLOADS = ("stokes-ladder", "coupled-ladder", "infsup-ladder", "qp-core")


def _write_vector(path, values):
    path.write_text("".join(f"{float(v)!r}\n" for v in values),
                    encoding="ascii")


def _write_dense_mtx(path, matrix, symmetric):
    rows, cols = np.nonzero(np.tril(matrix) if symmetric else matrix)
    lines = [f"%%MatrixMarket matrix coordinate real "
             f"{'symmetric' if symmetric else 'general'}",
             f"{matrix.shape[0]} {matrix.shape[1]} {rows.size}"]
    lines += [f"{i + 1} {j + 1} {float(matrix[i, j])!r}"
              for i, j in zip(rows, cols)]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def write_qp_instance(directory, rng, n, m, homogeneous):
    """One problem directory drawn like ``stokesqp.verify.random_problem``:
    SPD ``A = G G.T + n I``, Gaussian ``C`` (full row rank almost surely),
    Gaussian ``b`` and, unless ``homogeneous``, Gaussian ``d``.

    The generator and the writer live here so that the inputs do not change
    when the program's own generator or writer does.
    """
    g = rng.standard_normal((n, n))
    a = g @ g.T + n * np.eye(n)
    a = 0.5 * (a + a.T)
    c = rng.standard_normal((m, n))
    b = rng.standard_normal(n)
    d = np.zeros(m) if homogeneous else rng.standard_normal(m)
    directory.mkdir(parents=True, exist_ok=True)
    _write_dense_mtx(directory / "A.mtx", a, symmetric=True)
    _write_dense_mtx(directory / "C.mtx", c, symmetric=False)
    _write_vector(directory / "b.txt", b)
    _write_vector(directory / "d.txt", d)


def _op(name, argv, expect=0, check=None, **extra):
    return {"name": name, "argv": argv, "expect": expect,
            "check": check or argv[0], **extra}


def operations(workload, work, seed):
    """Build the workload's inputs under ``work`` and return its operations.

    Every operation writes into its own directory ``work/out/<name>``.
    """
    work = Path(work)
    out = work / "out"
    if workload == "stokes-ladder":
        return [_op(f"stokes-n{n}",
                    ["stokes", "--n", str(n), "--case", "taylor_green",
                     "--output", str(out / f"stokes-n{n}")], n=n)
                for n in STOKES_RUNGS]
    if workload == "coupled-ladder":
        rungs = ",".join(map(str, CONVERGE_RUNGS))
        return [_op("converge", ["converge", "--n-list", rungs,
                                 "--output", str(out / "converge")],
                    rungs=list(CONVERGE_RUNGS))]
    if workload == "infsup-ladder":
        rungs = ",".join(map(str, INFSUP_RUNGS))
        return [_op("infsup", ["infsup", "--n-list", rungs,
                               "--output", str(out / "infsup")],
                    expect=4, rungs=list(INFSUP_RUNGS))]
    if workload != "qp-core":
        raise ValueError(f"unknown workload {workload!r}")

    rng = np.random.default_rng(seed)
    ops = []
    for k, (n, m) in enumerate(QP_SIZES):
        problem = work / "inputs" / f"p{k}"
        write_qp_instance(problem, rng, n, m, homogeneous=k % 2 == 0)
        for method in QP_METHODS:
            ops.append(_op(f"qp{k}-{method}",
                           ["qp-solve", "--input", str(problem), "--method",
                            method, "--output", str(out / f"qp{k}-{method}")],
                           problem=str(problem), method=method))
    first, second = work / "inputs" / "p0", work / "inputs" / "p1"
    ops.append(_op("qp0-infsup",
                   ["qp-solve", "--input", str(first), "--infsup",
                    "--output", str(out / "qp0-infsup")],
                   problem=str(first), method="direct"))
    ops.append(_op("infsup-input",
                   ["infsup", "--input", str(second),
                    "--output", str(out / "infsup-input")],
                   check="infsup-input", problem=str(second)))
    for s in VERIFY_SEEDS:
        ops.append(_op(f"verify-{s}",
                       ["verify", "--seed", str(s),
                        "--output", str(out / f"verify-{s}")], seed=s))
    return ops
