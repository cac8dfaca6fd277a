"""Randomized property suites: pass on honest solvers, trip on corruption."""

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
