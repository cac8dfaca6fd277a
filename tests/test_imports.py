"""Import hygiene: every name a package module or demo imports is used
there, every name the package exports exists, and the demos use only the
package's public names.  The saddle routes have one implementation, in
``qp.py``: no other module calls its kernels.

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


def _kernel_calls(path):
    """(top-level definition, kernel) for each call of a QP kernel."""
    calls = []
    for top in ast.parse(path.read_text(encoding="ascii")).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", 0))
                if name in QP_KERNELS:
                    calls.append((getattr(top, "name", None), name))
    return calls


def test_only_qp_calls_the_saddle_kernels():
    # a second caller would be a second copy of a saddle route; stokes.py
    # imports its problem, routes and inf-sup pieces, and the kept import
    assert [(p.name, *call) for p in sorted(PACKAGE.glob("*.py"))
            if p.name != "qp.py" for call in _kernel_calls(p)] == \
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
    assert _kernel_calls(source) == [("g", "conjugate_gradient"),
                                     ("H", "schur_complement")]


def test_every_exported_name_resolves():
    # the import check above catches an import missing from __all__, not an
    # __all__ entry whose name the package no longer binds
    assert [name for name in stokesqp.__all__
            if not hasattr(stokesqp, name)] == []
