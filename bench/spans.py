"""In-memory span tracing of stokesqp, installed from outside the package.

A span is recorded around every call into a wrapped function: its metric
name (``<layer>.<what>_s``, where the layer is the package module), start and
end, the span that caused it, and the id of the CLI operation it belongs to.
Counters (iterations, bytes, factor fill) are attached to the span that did
the work.  The tracer's own bookkeeping beyond the clock reads (file sizes,
factor fill) runs inside ``trace.self_s`` spans, so it is excluded from the
layers' self times and still accounted for.

Names bound with ``from ... import`` are separate bindings of one function
object, so :func:`install` patches every binding of each target it finds in
the package's modules, plus the class attributes and the CLI's method table.
``Installation.uninstall`` puts every original object back.
"""

import functools
import os
import sys
import time

LAYERS = ("cli", "mmio", "sparse", "solvers", "qp", "stokes", "verify")

#: metrics derived from the spans; every traced run reports each of them
TIME_METRICS = (
    "cli.self_s",
    "mmio.read_s", "mmio.write_s",
    "sparse.construct_s",
    "solvers.factor_s", "solvers.solve_s", "solvers.cg_s",
    "solvers.rank_check_s", "solvers.nullspace_basis_s", "solvers.eigen_s",
    "qp.validate_s", "qp.recover_s", "qp.certify_s", "qp.solve_s.direct",
    "qp.solve_s.nullspace", "qp.solve_s.schur", "qp.infsup_s", "qp.io_s",
    "stokes.assemble_s", "stokes.projector_s", "stokes.project_s",
    "stokes.coupled_s", "stokes.minimization_s", "stokes.infsup_s",
    "stokes.error_norms_s", "stokes.export_s",
    "verify.suite_s",
    "trace.self_s",
)
COUNT_METRICS = (
    "mmio.read_bytes", "mmio.write_bytes",
    "sparse.construct_calls",
    "solvers.factor_calls", "solvers.factor_fill_nnz", "solvers.cg_calls",
    "solvers.cg_iters", "solvers.eigen_dim",
    "qp.schur_outer_iters",
    "stokes.project_calls", "stokes.schur_dense_bytes",
    "stokes.export_bytes",
) + tuple(f"{layer}.errors" for layer in LAYERS)
RATIO_METRICS = ("solvers.refine_ratio",)


class Tracer:
    """Collects spans in memory; one instance per traced worker process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.op_id = None
        self._stack = []
        self._exceptions = 0

    def _open(self, metric):
        span = {"id": len(self.spans), "op": self.op_id,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "metric": metric, "start": self.clock(), "end": None,
                "counts": {}}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span["end"] = self.clock()
        self._stack.pop()

    def wrap(self, fn, metric, after=None):
        """Return ``fn`` wrapped in a span named ``metric``.

        ``after(tracer, span, args, result)`` runs once the call returned,
        inside a ``trace.self_s`` span; it may add counts to ``span`` and
        returns the value handed back to the caller.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(metric)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # one exception crossing several spans of a layer counts once
                if not hasattr(exc, "_bench_trace_serial"):
                    self._exceptions += 1
                    exc._bench_trace_serial = self._exceptions
                span["error"] = exc._bench_trace_serial
                self._close(span)
                raise
            self._close(span)
            if after is None:
                return result
            book = self._open("trace.self_s")
            try:
                return after(self, span, args, result)
            finally:
                self._close(book)

        return traced


def _add(span, name, value):
    span["counts"][name] = span["counts"].get(name, 0) + value


def self_times(spans):
    """Self time of each span: its duration minus the union of the
    intervals its direct children cover (clipped to the span)."""
    children = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(span["id"], ()),
                            key=lambda s: s["start"]):
            lo = max(child["start"], cursor)
            hi = min(child["end"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span["id"]] = (end - start) - covered
    return out


def aggregate(spans):
    """Per-layer metrics of one traced pass.

    Returns ``(metrics, op_walls, op_self_sums)``: ``metrics`` maps every
    name in TIME_METRICS, COUNT_METRICS and RATIO_METRICS to its value over
    the pass; the two dicts map each operation id to the duration of its
    root span and to the sum of its spans' self times.
    """
    metrics = {name: 0.0 for name in TIME_METRICS}
    metrics.update({name: 0 for name in COUNT_METRICS})
    selfs = self_times(spans)
    op_walls, op_self_sums = {}, {}
    solves = refined = 0
    errors = {layer: set() for layer in LAYERS}
    for span in spans:
        metrics[span["metric"]] += selfs[span["id"]]
        op_self_sums[span["op"]] = (op_self_sums.get(span["op"], 0.0)
                                    + selfs[span["id"]])
        if span["parent"] is None:
            op_walls[span["op"]] = span["end"] - span["start"]
        if "error" in span:
            errors[span["metric"].split(".")[0]].add(span["error"])
        for name, value in span["counts"].items():
            if name == "solvers.sym_solves":
                solves += value
            elif name == "solvers.refined":
                refined += value
            else:
                metrics[name] += value
    metrics["solvers.refine_ratio"] = refined / solves if solves else 0.0
    metrics.update({f"{layer}.errors": len(serials)
                    for layer, serials in errors.items()})
    return metrics, op_walls, op_self_sums


# -- what to wrap ---------------------------------------------------------


def _cg_counts(tracer, span, args, result):
    _add(span, "solvers.cg_calls", 1)
    _add(span, "solvers.cg_iters", int(result[1].iterations))
    return result


def _sym_solve_counts(tracer, span, args, result):
    _add(span, "solvers.sym_solves", 1)
    _add(span, "solvers.refined", int(result[1].iterations > 1))
    return result


def _factor_counts(tracer, span, args, result):
    _add(span, "solvers.factor_calls", 1)
    _add(span, "solvers.factor_fill_nnz",
         int(result.L.nnz) + int(result.U.nnz))
    return result


def _eigen_counts(tracer, span, args, result):
    _add(span, "solvers.eigen_dim", int(args[0].shape[0]))
    return result


def _construct_counts(tracer, span, args, result):
    _add(span, "sparse.construct_calls", 1)
    return result


def _read_counts(tracer, span, args, result):
    _add(span, "mmio.read_bytes", os.path.getsize(args[0]))
    return result


def _write_counts(tracer, span, args, result):
    _add(span, "mmio.write_bytes", os.path.getsize(args[0]))
    return result


def _export_counts(tracer, span, args, result):
    _add(span, "stokes.export_bytes", os.path.getsize(args[0]))
    return result


def _schur_counts(tracer, span, args, result):
    if result.inner_report is not None:
        _add(span, "qp.schur_outer_iters", int(result.inner_report.iterations))
    return result


def _infsup_stokes_counts(tracer, span, args, result):
    # computed, not measured: the dense N_p x N_p float64 Schur complement
    _add(span, "stokes.schur_dense_bytes", 8 * args[0].n_pressure ** 2)
    return result


def _projector_wrap(tracer, span, args, project):
    def counted(tr, sp, a, result):
        _add(sp, "stokes.project_calls", 1)
        return result
    return tracer.wrap(project, "stokes.project_s", counted)


#: ``(defining module, name, metric, after)`` for every traced function
TARGETS = (
    ("stokesqp.cli", "run", "cli.self_s", None),
    ("stokesqp.mmio", "read_matrix", "mmio.read_s", _read_counts),
    ("stokesqp.mmio", "read_vector", "mmio.read_s", _read_counts),
    ("stokesqp.mmio", "write_matrix", "mmio.write_s", _write_counts),
    ("stokesqp.mmio", "write_vector", "mmio.write_s", _write_counts),
    ("stokesqp.solvers", "conjugate_gradient", "solvers.cg_s",
     _cg_counts),
    ("stokesqp.solvers", "symmetric_indefinite_solve", "solvers.solve_s",
     _sym_solve_counts),
    ("stokesqp.solvers", "assert_full_row_rank", "solvers.rank_check_s",
     None),
    ("stokesqp.solvers", "orthonormal_nullspace_basis",
     "solvers.nullspace_basis_s", None),
    ("stokesqp.solvers", "smallest_generalized_eigenpair",
     "solvers.eigen_s", _eigen_counts),
    ("scipy.sparse.linalg", "splu", "solvers.factor_s", _factor_counts),
    ("stokesqp.qp", "recover_multiplier", "qp.recover_s", None),
    ("stokesqp.qp", "check_optimality", "qp.certify_s", None),
    ("stokesqp.qp", "solve_kkt_direct", "qp.solve_s.direct", None),
    ("stokesqp.qp", "solve_nullspace", "qp.solve_s.nullspace", None),
    ("stokesqp.qp", "solve_schur", "qp.solve_s.schur", _schur_counts),
    ("stokesqp.qp", "estimate_infsup", "qp.infsup_s", None),
    ("stokesqp.qp", "load_problem", "qp.io_s", None),
    ("stokesqp.qp", "save_solution", "qp.io_s", None),
    ("stokesqp.stokes", "assemble_operators", "stokes.assemble_s", None),
    ("stokesqp.stokes", "sample_forcing", "stokes.assemble_s", None),
    ("stokesqp.stokes", "divergence_free_projector", "stokes.projector_s",
     _projector_wrap),
    ("stokesqp.stokes", "solve_stokes_coupled", "stokes.coupled_s", None),
    ("stokesqp.stokes", "solve_stokes_minimization",
     "stokes.minimization_s", None),
    ("stokesqp.stokes", "estimate_infsup_stokes", "stokes.infsup_s",
     _infsup_stokes_counts),
    ("stokesqp.stokes", "error_norms", "stokes.error_norms_s", None),
    ("stokesqp.stokes", "write_fields_csv", "stokes.export_s",
     _export_counts),
    ("stokesqp.verify", "run_property_suite", "verify.suite_s", None),
)


#: class attributes, reached through the class rather than a module binding
METHOD_TARGETS = (
    ("stokesqp.qp", "QpProblem", "__post_init__", "qp.validate_s", None),
    ("stokesqp.sparse", "SparseOperator", "__init__", "sparse.construct_s",
     _construct_counts),
)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "stokesqp"
                                  or name.startswith("stokesqp."))]


def binding_sites():
    """Every site :func:`install` patches, as ``(namespace, key, original,
    metric, after)``.

    A namespace is a module's dict, a module-level dict such as
    ``cli._SOLVERS``, or a class.  Import ``stokesqp.cli`` (which loads every
    module) before calling.
    """
    import scipy.sparse.linalg  # noqa: F401  -- splu's defining module

    modules = [vars(m) for m in _package_modules()]
    sites = []
    for mod_name, name, metric, after in TARGETS:
        defining = vars(sys.modules[mod_name])
        original = defining[name]
        found = {(id(defining), name): defining}
        for namespace in modules:
            for key, value in namespace.items():
                if value is original:
                    found[(id(namespace), key)] = namespace
                elif isinstance(value, dict) and not key.startswith("__"):
                    found.update(((id(value), k), value)
                                 for k, v in value.items() if v is original)
        sites.extend((namespace, key, original, metric, after)
                     for (_, key), namespace in found.items())
    for mod_name, cls_name, attr, metric, after in METHOD_TARGETS:
        cls = vars(sys.modules[mod_name])[cls_name]
        sites.append((cls, attr, vars(cls)[attr], metric, after))
    return sites


def current(namespace, key):
    """The object a binding site holds now."""
    if isinstance(namespace, type):
        return vars(namespace)[key]
    return namespace[key]


def _set(namespace, key, value):
    if isinstance(namespace, type):
        setattr(namespace, key, value)
    else:
        namespace[key] = value


class Installation:
    """The sites patched by one :func:`install`; ``uninstall`` restores them."""

    def __init__(self, patched):
        self.patched = patched

    def uninstall(self):
        for namespace, key, original in reversed(self.patched):
            _set(namespace, key, original)
        self.patched = []


def install(tracer):
    """Wrap every binding site of every target; one wrapper per target."""
    wrappers = {}
    patched = []
    for namespace, key, original, metric, after in binding_sites():
        if id(original) not in wrappers:
            wrappers[id(original)] = tracer.wrap(original, metric, after)
        patched.append((namespace, key, original))
        _set(namespace, key, wrappers[id(original)])
    return Installation(patched)
