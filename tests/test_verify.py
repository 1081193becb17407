import json

import numpy as np
import pytest

from factordiff import (
    check_cholesky_theorem,
    check_derivative_isomorphisms,
    check_ldu_domain_characterization,
    check_ldu_nonproperness,
    check_qr_existence_uniqueness,
    check_qr_properness_identity,
    ldu_factor,
    results_to_json,
    run_all,
)


class TestIndividualChecks:
    def test_qr_existence_uniqueness_small(self):
        res = check_qr_existence_uniqueness(trials=40, n_max=8, seed=42)
        assert res.passed
        assert res.worst_violation <= 1e-8
        assert res.trials == 40
        assert res.seed == 42

    def test_qr_properness_identity_small(self):
        res = check_qr_properness_identity(trials=40, n_max=8, seed=7)
        assert res.passed
        assert res.worst_violation <= 1e-12

    def test_cholesky_theorem_small(self):
        res = check_cholesky_theorem(trials=40, n_max=8, seed=11)
        assert res.passed
        assert res.worst_violation <= 1e-8

    def test_ldu_domain_characterization_small(self):
        res = check_ldu_domain_characterization(trials=40, n_max=8, seed=13)
        assert res.passed
        assert res.worst_violation <= 1e-8

    def test_ldu_nonproperness_defaults(self):
        res = check_ldu_nonproperness()
        assert res.passed
        assert res.trials == 4

    def test_ldu_nonproperness_empty_is_vacuous(self):
        res = check_ldu_nonproperness(eps_list=())
        assert res.passed
        assert res.trials == 0
        assert res.worst_violation == 0.0

    def test_derivative_isomorphisms_small(self):
        res = check_derivative_isomorphisms(trials=20, n_max=6, seed=3)
        assert res.passed
        assert res.worst_violation <= 5e-5

    def test_documented_default_arguments_pass(self):
        assert check_qr_existence_uniqueness().worst_violation <= 1e-8
        assert check_qr_properness_identity().worst_violation <= 1e-12
        assert check_cholesky_theorem().worst_violation <= 1e-8
        assert check_ldu_domain_characterization().worst_violation <= 1e-8
        assert check_derivative_isomorphisms().worst_violation <= 5e-5


class TestNonpropernessClosedForm:
    def test_eps_one(self):
        trip = ldu_factor(np.array([[1.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(np.diag(trip.d), [1.0, -1.0], atol=1e-15)

    def test_eps_milli(self):
        eps = 1e-3
        trip = ldu_factor(np.array([[eps, 1.0], [1.0, 0.0]]))
        assert np.allclose(np.diag(trip.d), [eps, -1.0 / eps], rtol=1e-3)
        assert np.allclose(trip.l, [[1.0, 0.0], [1.0 / eps, 1.0]], rtol=1e-12)
        assert np.allclose(trip.u, [[1.0, 1.0 / eps], [0.0, 1.0]], rtol=1e-12)
        assert np.allclose(trip.product(), [[eps, 1.0], [1.0, 0.0]], atol=1e-12)


class TestRunAll:
    def test_six_uniquely_named_passing_results(self):
        results = run_all(seed=0)
        names = [r.name for r in results]
        assert len(names) == 6
        assert len(set(names)) == 6
        assert all(r.passed for r in results)

    def test_deterministic_given_seed(self):
        a = run_all(seed=0)
        b = run_all(seed=0)
        assert results_to_json(a) == results_to_json(b)

    def test_seed_changes_violations_not_pattern(self):
        a = run_all(seed=0)
        b = run_all(seed=1)
        assert [r.passed for r in a] == [r.passed for r in b]
        assert results_to_json(a) != results_to_json(b)


class TestReportSerialization:
    def test_json_round_trip_fields(self):
        results = run_all(seed=0)
        payload = json.loads(results_to_json(results))
        assert len(payload) == 6
        for entry in payload:
            assert set(entry) == {"name", "passed", "trials", "worst_violation", "seed", "detail"}
            assert entry["worst_violation"] >= 0.0


class TestCheckArguments:
    def test_ldu_nonproperness_reports_a_refused_eps(self):
        # at or below 2e-10 the first pivot fails singularity_tol, and the
        # factorization refuses the input: a failed clause, not an exception
        res = check_ldu_nonproperness(eps_list=(1e-2, 2e-10))
        assert not res.passed
        assert res.trials == 2
        assert res.worst_violation == 2.0 * 1e-6

    @pytest.mark.parametrize(
        "check, least",
        [
            (check_qr_existence_uniqueness, 1),
            (check_qr_properness_identity, 1),
            (check_cholesky_theorem, 1),
            (check_ldu_domain_characterization, 2),
            (check_derivative_isomorphisms, 2),
        ],
    )
    def test_n_max_below_its_floor_is_a_value_error(self, check, least):
        # unchecked, numpy's rng.integers raises "low >= high"
        with pytest.raises(ValueError, match=f"n_max must be at least {least}, got {least - 1}"):
            check(trials=3, n_max=least - 1)
        assert check(trials=3, n_max=least).passed
