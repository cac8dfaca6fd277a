"""Randomized property suites: pass on honest solvers, trip on corruption."""

import gc
import weakref

import scipy.linalg
from scipy.sparse import linalg as spla

from stokesqp import verify
from stokesqp.verify import PropertyResult, run_property_suite

EXPECTED_ORDER = (
    "lemma_forward_projected_gradient",
    "lemma_reverse_no_feasible_descent",
    "multiplier_relation",
    "multiplier_uniqueness",
    "homogeneity_scaling",
    "homogeneity_constraint_shift",
    "infsup_two_form_equivalence",
)


def test_suite_passes_on_default_seed():
    results = run_property_suite(0)
    assert tuple(r.name for r in results) == EXPECTED_ORDER
    assert all(r.passed for r in results)


def test_suite_passes_on_other_seeds():
    for seed in (1, 7, 2026):
        assert all(r.passed for r in run_property_suite(seed))


def test_corruption_is_detected():
    results = run_property_suite(0, corrupt=True)
    failed = {r.name for r in results if not r.passed}
    assert failed  # the harness must notice a perturbed solution
    assert "lemma_forward_projected_gradient" in failed


def test_results_are_deterministic_for_fixed_seed():
    first = run_property_suite(11)
    second = run_property_suite(11)
    assert first == second


def test_results_serialize_to_plain_types():
    for r in run_property_suite(0):
        assert isinstance(r, PropertyResult)
        assert isinstance(r.passed, bool)
        assert isinstance(r.worst, float)
        assert isinstance(r.bound, float)


def test_suite_keeps_one_instance_alive(monkeypatch):
    # each QpProblem holds its factor of A; the suite must let an instance
    # go before it draws the next, so that twenty factors never pile up
    alive = []

    def tracked(rng, _original=verify.random_problem):
        gc.collect()
        assert sum(ref() is not None for ref in alive) <= 1
        problem = _original(rng)
        alive.append(weakref.ref(problem))
        return problem

    monkeypatch.setattr(verify, "random_problem", tracked)
    assert all(r.passed for r in run_property_suite(0))
    assert len(alive) == 20


def test_homogeneity_properties_factor_nothing_again(monkeypatch):
    # 20 instances and 5 inf-sup pairs: one SVD of C each, and one L D L.T
    # of A each plus the direct solve's LU of the KKT matrix for the 20;
    # the 10 rescaled and shifted problems share their instance's factors,
    # so they add only the 10 KKT LUs of their direct solves; each of the 20
    # builds its kernel basis (one QR) once, shared by the null-space solve
    # and the no-feasible-descent property
    calls = {"svd": 0, "splu": 0, "qr": 0}

    def counted(name, original):
        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return call

    monkeypatch.setattr(scipy.linalg, "svd", counted("svd", scipy.linalg.svd))
    monkeypatch.setattr(spla, "splu", counted("splu", spla.splu))
    monkeypatch.setattr(scipy.linalg, "qr", counted("qr", scipy.linalg.qr))
    assert all(r.passed for r in run_property_suite(1))
    assert calls == {"svd": 25, "splu": 55, "qr": 20}
