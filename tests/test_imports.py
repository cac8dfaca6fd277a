"""Import hygiene: every name a package module or demo imports is used
there, every name the package exports exists, and the demos use only the
package's public names.  The saddle routes have one implementation, in
``qp.py``: no other module calls its kernels, and each Stokes route is one
call of a QP route on the problem it is given.  The MAC stencils are built
in one place, ``stokes.assemble_operators``.  The BLAS thread policy
lives in ``solvers.py``, the only package module that imports ``ctypes``.

No linter is part of the toolchain, so this reads each file's syntax tree:
a name bound by an import must be read somewhere in the file or be listed
in its ``__all__``.
"""

import ast
from pathlib import Path

import pytest

import stokesqp

PACKAGE = Path(stokesqp.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
TRACER_TEST = ROOT / "bench" / "tests" / "test_bench_spans.py"

#: imported but unused on purpose: bench/tests/test_bench_spans.py checks
#: that the benchmark tracer wraps these three bindings of ``stokes``
KEPT_FOR_TRACER = {"stokes": ["conjugate_gradient", "recover_multiplier",
                              "splu"]}


def _imported_names(tree):
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(alias.asname or alias.name
                            for alias in node.names)
    return imported


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="ascii"))
    imported = _imported_names(tree)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
    return sorted(imported - read - exported)


@pytest.mark.parametrize("module",
                         sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_every_import_is_used(module):
    assert _unused_imports(PACKAGE / f"{module}.py") == \
        KEPT_FOR_TRACER.get(module, [])


def _private_imports(path):
    """Names a file imports from ``stokesqp`` that are private: the name,
    or a module on its path, starts with an underscore."""
    tree = ast.parse(path.read_text(encoding="ascii"))
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        private += [m for m in modules if m.split(".")[0] == "stokesqp"
                    and any(part.startswith("_") for part in m.split("."))]
    return private


@pytest.mark.parametrize("demo", sorted(p.stem for p in DEMOS.glob("*.py")))
def test_every_demo_import_is_used(demo):
    assert _unused_imports(DEMOS / f"{demo}.py") == []


@pytest.mark.parametrize("demo", sorted(p.stem for p in DEMOS.glob("*.py")))
def test_demos_import_only_public_names(demo):
    assert _private_imports(DEMOS / f"{demo}.py") == []


def test_private_import_is_caught(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("import stokesqp._x\nfrom stokesqp import build_grid\n"
                      "from stokesqp.stokes import _sine_basis, MacGrid\n"
                      "from numpy import _core\n", encoding="ascii")
    assert _private_imports(source) == ["stokesqp._x",
                                        "stokesqp.stokes._sine_basis"]


def test_kept_imports_are_still_read_by_the_tracer_test():
    # a kept import goes as soon as the tracer's test stops reading it
    tree = ast.parse(TRACER_TEST.read_text(encoding="utf-8"))
    read = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)}
    assert [(module, name) for module, names in KEPT_FOR_TRACER.items()
            for name in names if (module, name) not in read] == []


def test_unused_import_is_caught(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("import json\nimport numpy as np\n"
                      "from dataclasses import dataclass, field\n"
                      "__all__ = ['field']\nnp.zeros(1)\n", encoding="ascii")
    assert _unused_imports(source) == ["dataclass", "json"]


#: the saddle routes' kernels, called in ``qp.py`` alone but for one
#: (module, function, kernel): the inf-sup estimate applies the complement
QP_KERNELS = ("checked_solution", "conjugate_gradient", "schur_complement")
KERNEL_CALLS_OUTSIDE_QP = [("stokes.py", "estimate_infsup_stokes",
                            "schur_complement")]


def _calls(path, names):
    """(top-level definition, callee) for each call of one of ``names``."""
    calls = []
    for top in ast.parse(path.read_text(encoding="ascii")).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", 0))
                if name in names:
                    calls.append((getattr(top, "name", None), name))
    return calls


def test_only_qp_calls_the_saddle_kernels():
    # a second caller would be a second copy of a saddle route; stokes.py
    # imports its problem, routes and inf-sup pieces, and the kept import
    assert [(p.name, *call) for p in sorted(PACKAGE.glob("*.py"))
            if p.name != "qp.py" for call in _calls(p, QP_KERNELS)] == \
        KERNEL_CALLS_OUTSIDE_QP
    tree = ast.parse((PACKAGE / "stokes.py").read_text(encoding="ascii"))
    assert sorted(alias.name for node in tree.body if getattr(
        node, "module", None) == "qp" for alias in node.names) == [
        "InfSupEstimate", "QpProblem", "recover_multiplier",
        "schur_complement", "solve_projected_cg", "solve_schur"]


def test_kernel_call_is_caught(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("from stokesqp import qp\nf = qp.checked_solution\n"
                      "def g():\n    return qp.conjugate_gradient(f, 1)\n"
                      "class H:\n    def h(self):\n        f()\n"
                      "        schur_complement(1)\n", encoding="ascii")
    assert _calls(source, QP_KERNELS) == [("g", "conjugate_gradient"),
                                          ("H", "schur_complement")]


STENCILS = ("ViscousOperator", "DivergenceOperator")


def test_only_assemble_operators_builds_the_stencils():
    # every caller takes A and B from assemble_operators, the one place
    # that constructs them
    assert sorted((p.name, *call) for p in PACKAGE.glob("*.py")
                  for call in _calls(p, STENCILS)) == [
        ("stokes.py", "assemble_operators", "DivergenceOperator"),
        ("stokes.py", "assemble_operators", "ViscousOperator")]


def test_stencil_construction_is_caught(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("from stokesqp import stokes\n"
                      "A = stokes.ViscousOperator(1)\n"
                      "def f(grid):\n    return DivergenceOperator(grid)\n"
                      "g = stokes.DivergenceOperator\n", encoding="ascii")
    assert _calls(source, STENCILS) == [(None, "ViscousOperator"),
                                        ("f", "DivergenceOperator")]


#: each Stokes route and the QP route it is a call of
STOKES_WRAPPERS = {"solve_stokes_coupled": "solve_schur",
                   "solve_stokes_minimization": "solve_projected_cg"}


def _wrapped_route(function):
    """The QP route the FunctionDef ``function`` is a call of: its
    parameters are (problem, tol), and its body its docstring and one
    ``return route(problem, tol)``; None if it is anything more."""
    args = function.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
              + [args.vararg, args.kwarg] if a is not None]
    body = function.body[ast.get_docstring(function) is not None:]
    if params != ["problem", "tol"] or len(body) != 1 \
            or not isinstance(body[0], ast.Return):
        return None
    call = body[0].value
    if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and not call.keywords
            and [getattr(a, "id", None) for a in call.args] == params):
        return call.func.id
    return None


def test_stokes_wrappers_are_one_call_of_a_qp_route():
    tree = ast.parse((PACKAGE / "stokes.py").read_text(encoding="ascii"))
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    assert {name: _wrapped_route(functions[name])
            for name in STOKES_WRAPPERS} == STOKES_WRAPPERS


@pytest.mark.parametrize("source, route", [
    ('def f(problem, tol=1):\n    """Doc."""\n'
     "    return solve_schur(problem, tol)", "solve_schur"),
    ("def f(problem, tol):\n    return solve_projected_cg(problem, tol)",
     "solve_projected_cg"),
    ("def f(problem, tol):\n    x = 1\n    return solve_schur(problem, tol)",
     None),
    ("def f(problem, tol):\n    return solve_schur(tol, problem)", None),
    ("def f(problem, tol):\n    return solve_schur(problem, tol=tol)", None),
    ("def f(problem, tol):\n    return solve_schur(problem, tol).x", None),
    ("def f(problem, tol):\n    return qp.solve_schur(problem, tol)", None),
    ("def f(problem, tol, *rest):\n    return solve_schur(problem, tol)",
     None),
    ("def f(grid, case, tol):\n"
     "    return solve_schur(stokes_problem(grid, case), tol)", None),
])
def test_wrapper_that_does_more_is_caught(source, route):
    assert _wrapped_route(ast.parse(source).body[0]) == route


def _imported_modules(path):
    """Top-level modules a file imports by absolute import."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="ascii"))):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    return modules


def test_only_solvers_imports_ctypes():
    # the thread counts of numpy's and scipy's BLAS are set in one place,
    # solvers.serial_blas
    assert [p.name for p in sorted(PACKAGE.glob("*.py"))
            if "ctypes" in _imported_modules(p)] == ["solvers.py"]


@pytest.mark.parametrize("line, caught", [
    ("import ctypes", True), ("import ctypes.util as u", True),
    ("from ctypes import CDLL", True), ("from ctypes.util import x", True),
    ("def f():\n    import ctypes", True), ("from . import ctypes", False),
    ("import ctypeslib", False), ("import numpy.ctypeslib", False),
])
def test_ctypes_import_is_caught(tmp_path, line, caught):
    source = tmp_path / "m.py"
    source.write_text(f"import os\n{line}\n", encoding="ascii")
    assert ("ctypes" in _imported_modules(source)) == caught


def test_every_exported_name_resolves():
    # the import check above catches an import missing from __all__, not an
    # __all__ entry whose name the package no longer binds
    assert [name for name in stokesqp.__all__
            if not hasattr(stokesqp, name)] == []
