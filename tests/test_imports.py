"""Import hygiene: every name a package module or demo imports is used
there, every name the package exports exists, and the demos use only the
package's public names.  The layout of the constraint SVD has one reader,
``qp.py``.

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
#: that the benchmark tracer wraps these two bindings of ``stokes``
KEPT_FOR_TRACER = {"stokes": ["recover_multiplier", "splu"]}


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


def _svd_reads(path):
    """Lines where a file reads an attribute named ``svd`` of a value; one
    of an imported module (``scipy.linalg.svd``) is a function, not read."""
    tree = ast.parse(path.read_text(encoding="ascii"))
    modules = _imported_names(tree)
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "svd":
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if not (isinstance(root, ast.Name) and root.id in modules):
                lines.append(node.lineno)
    return sorted(lines)


def test_only_qp_reads_the_constraint_svd():
    # QpProblem's members are the SVD's readers; a second reader would
    # split its layout again
    files = ([p for p in sorted(PACKAGE.glob("*.py")) if p.name != "qp.py"]
             + sorted(DEMOS.glob("*.py")))
    assert {p.name: _svd_reads(p) for p in files if _svd_reads(p)} == {}


def test_svd_read_is_caught(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("import numpy as np\nimport scipy.linalg as sla\n"
                      "z = problem.svd[2]\nu = sla.svd(a)\n"
                      "w = np.linalg.svd(a)\nv = self.C.svd\n",
                      encoding="ascii")
    assert _svd_reads(source) == [3, 6]


def test_every_exported_name_resolves():
    # the import check above catches an import missing from __all__, not an
    # __all__ entry whose name the package no longer binds
    assert [name for name in stokesqp.__all__
            if not hasattr(stokesqp, name)] == []
