"""Shared pytest plumbing.

The acceptance tests record one verdict per numbered criterion; a terminal
summary section prints them as a single PASS/FAIL line each so the whole
gate is readable at a glance even inside a long pytest run.

``openblas_pools`` reads and presets the thread counts of numpy's and
scipy's own OpenBLAS without the code under test.
"""

import ctypes
from dataclasses import dataclass

import numpy.linalg._umath_linalg
import pytest
import scipy.linalg.cython_blas

_RESULTS = {}


class AcceptanceRecorder:
    """Record a criterion verdict before the assert that enforces it."""

    def record(self, number, label, passed):
        _RESULTS[int(number)] = (str(label), bool(passed))
        return bool(passed)


@pytest.fixture
def acceptance():
    return AcceptanceRecorder()


#: each package's extension that links its OpenBLAS, and the suffix its
#: wheel gives the thread-count symbols
_POOL_SYMBOLS = {
    "numpy": (numpy.linalg._umath_linalg, "64_"),
    "scipy": (scipy.linalg.cython_blas, ""),
}


@dataclass(frozen=True)
class OpenblasPool:
    name: str
    get: object
    set: object

    def preset(self, threads):
        """Set the pool to ``threads``; skip where it cannot run that many."""
        self.set(threads)
        if self.get() != threads:
            pytest.skip(f"{self.name}'s OpenBLAS cannot run {threads} "
                        "threads here")


@pytest.fixture
def openblas_pools():
    """Look up a pool by name (``pools("numpy")``), read through ctypes
    handles of its own; skips where that package has no OpenBLAS of its
    own.  Every pool found is restored after the test."""
    found = {}
    for name, (module, suffix) in _POOL_SYMBOLS.items():
        lib = ctypes.CDLL(module.__file__)
        get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
        if get is not None:
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            found[name] = OpenblasPool(name, get, set_)
    before = {name: pool.get() for name, pool in found.items()}

    def pools(name):
        if name not in found:
            pytest.skip(f"{name} has no OpenBLAS of its own here")
        return found[name]

    yield pools
    for name, pool in found.items():
        pool.set(before[name])


def pytest_terminal_summary(terminalreporter):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_RESULTS):
        label, ok = _RESULTS[number]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {number}: {label}: {verdict}")
