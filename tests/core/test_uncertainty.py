"""Tests for the KL uncertainty region and the robust-dual machinery."""

import numpy as np
import pytest
from scipy import optimize

from repro.core import UncertaintyRegion, dual_objective, kl_conjugate
from repro.core.uncertainty import kl_divergence
from repro.workloads import Workload, expected_workload


def minimize_dual_for_cost(
    cost_vector: np.ndarray, expected: Workload, rho: float
) -> tuple[float, float, float]:
    """Minimise the two-variable dual over ``(λ, η)`` for a fixed cost vector.

    Returns ``(value, λ*, η*)``: an independent (Nelder-Mead) route to the
    worst-case cost, confirming strong duality against the exact tilting
    solve of :meth:`UncertaintyRegion.worst_case_cost`.
    """
    cost = np.asarray(cost_vector, dtype=float)

    def objective(params: np.ndarray) -> float:
        lam, eta = params
        return dual_objective(cost, expected, rho, max(lam, 1e-12), eta)

    result = optimize.minimize(
        objective,
        np.array([1.0, float(np.mean(cost))]),
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20_000},
    )
    lam, eta = result.x
    return float(result.fun), float(max(lam, 0.0)), float(eta)


@pytest.fixture()
def uniform() -> Workload:
    return Workload.uniform()


@pytest.fixture()
def cost_vector() -> np.ndarray:
    # A representative cost vector: ranges expensive, writes cheap.
    return np.array([2.0, 1.5, 6.0, 0.5])


class TestKLConjugate:
    def test_zero_at_origin(self):
        assert kl_conjugate(0.0) == pytest.approx(0.0)

    def test_matches_exponential_form(self):
        s = np.array([-1.0, 0.0, 2.0])
        assert np.allclose(kl_conjugate(s), np.exp(s) - 1.0)

    def test_is_convex_on_samples(self):
        xs = np.linspace(-3, 3, 41)
        values = kl_conjugate(xs)
        midpoints = kl_conjugate((xs[:-1] + xs[1:]) / 2)
        assert np.all(midpoints <= (values[:-1] + values[1:]) / 2 + 1e-12)


class TestUncertaintyRegion:
    def test_rejects_negative_rho(self, uniform):
        with pytest.raises(ValueError):
            UncertaintyRegion(expected=uniform, rho=-0.1)

    def test_expected_workload_always_contained(self, uniform):
        region = UncertaintyRegion(expected=uniform, rho=0.0)
        assert region.contains(uniform)

    def test_far_workload_not_contained_for_small_rho(self, uniform):
        region = UncertaintyRegion(expected=uniform, rho=0.05)
        skewed = Workload(0.9, 0.04, 0.03, 0.03)
        assert not region.contains(skewed)

    def test_far_workload_contained_for_large_rho(self, uniform):
        region = UncertaintyRegion(expected=uniform, rho=4.0)
        skewed = Workload(0.9, 0.04, 0.03, 0.03)
        assert region.contains(skewed)

    def test_divergence_matches_free_function(self, uniform):
        region = UncertaintyRegion(expected=uniform, rho=1.0)
        other = Workload(0.4, 0.3, 0.2, 0.1)
        assert region.divergence(other) == pytest.approx(
            kl_divergence(other.as_array(), uniform.as_array())
        )


class TestWorstCaseWorkload:
    def test_zero_rho_returns_expected(self, uniform, cost_vector):
        region = UncertaintyRegion(expected=uniform, rho=0.0)
        assert region.worst_case_workload(cost_vector) == uniform

    def test_constant_costs_return_expected(self, uniform):
        region = UncertaintyRegion(expected=uniform, rho=1.0)
        worst = region.worst_case_workload(np.full(4, 3.0))
        assert np.allclose(worst.as_array(), uniform.as_array())

    def test_worst_case_lies_inside_region(self, uniform, cost_vector):
        region = UncertaintyRegion(expected=uniform, rho=0.5)
        worst = region.worst_case_workload(cost_vector)
        assert region.contains(worst, tolerance=1e-6)

    def test_worst_case_constraint_is_tight(self, uniform, cost_vector):
        region = UncertaintyRegion(expected=uniform, rho=0.5)
        worst = region.worst_case_workload(cost_vector)
        assert region.divergence(worst) == pytest.approx(0.5, abs=1e-4)

    def test_worst_case_shifts_mass_to_expensive_queries(self, uniform, cost_vector):
        region = UncertaintyRegion(expected=uniform, rho=0.5)
        worst = region.worst_case_workload(cost_vector)
        # Ranges are the most expensive component, writes the cheapest.
        assert worst.q > uniform.q
        assert worst.w < uniform.w

    def test_worst_case_cost_at_least_nominal(self, uniform, cost_vector):
        region = UncertaintyRegion(expected=uniform, rho=0.5)
        nominal_cost = float(np.dot(uniform.as_array(), cost_vector))
        assert region.worst_case_cost(cost_vector) >= nominal_cost

    def test_worst_case_cost_monotone_in_rho(self, uniform, cost_vector):
        costs = [
            UncertaintyRegion(expected=uniform, rho=rho).worst_case_cost(cost_vector)
            for rho in (0.0, 0.25, 1.0, 2.0)
        ]
        assert costs == sorted(costs)

    def test_worst_case_cost_bounded_by_max_component(self, uniform, cost_vector):
        region = UncertaintyRegion(expected=uniform, rho=10.0)
        assert region.worst_case_cost(cost_vector) <= float(cost_vector.max()) + 1e-6

    def test_skewed_expected_workload(self, cost_vector):
        expected = expected_workload(1).workload  # 97% empty reads
        region = UncertaintyRegion(expected=expected, rho=1.0)
        worst = region.worst_case_workload(cost_vector)
        assert region.contains(worst, tolerance=1e-6)
        assert worst.q > expected.q

    def test_rejects_wrong_cost_dimension(self, uniform):
        region = UncertaintyRegion(expected=uniform, rho=1.0)
        with pytest.raises(ValueError):
            region.worst_case_workload(np.array([1.0, 2.0]))


class TestDualObjective:
    def test_strong_duality(self, uniform, cost_vector):
        """The dual optimum equals the exact worst-case (primal) cost."""
        rho = 0.5
        region = UncertaintyRegion(expected=uniform, rho=rho)
        primal = region.worst_case_cost(cost_vector)
        dual_value, lam, _ = minimize_dual_for_cost(cost_vector, uniform, rho)
        assert dual_value == pytest.approx(primal, rel=1e-3)
        assert lam >= 0.0

    def test_strong_duality_skewed_expected(self, cost_vector):
        expected = expected_workload(7).workload
        rho = 1.0
        region = UncertaintyRegion(expected=expected, rho=rho)
        primal = region.worst_case_cost(cost_vector)
        dual_value, _, _ = minimize_dual_for_cost(cost_vector, expected, rho)
        assert dual_value == pytest.approx(primal, rel=1e-3)

    def test_dual_upper_bounds_primal_everywhere(self, uniform, cost_vector):
        """Weak duality: any feasible (λ, η) upper-bounds the worst-case cost."""
        rho = 0.75
        region = UncertaintyRegion(expected=uniform, rho=rho)
        primal = region.worst_case_cost(cost_vector)
        rng = np.random.default_rng(0)
        for _ in range(25):
            lam = float(rng.uniform(0.05, 10.0))
            eta = float(rng.uniform(-2.0, 8.0))
            assert dual_objective(cost_vector, uniform, rho, lam, eta) >= primal - 1e-8

    def test_rejects_negative_lambda(self, uniform, cost_vector):
        with pytest.raises(ValueError):
            dual_objective(cost_vector, uniform, 0.5, -1.0, 0.0)

    def test_lambda_zero_limit(self, uniform, cost_vector):
        # With λ = 0 the dual reduces to η when η dominates every cost.
        value = dual_objective(cost_vector, uniform, 0.5, 0.0, 10.0)
        assert value == pytest.approx(10.0)
        assert dual_objective(cost_vector, uniform, 0.5, 0.0, 0.0) == np.inf


class TestZeroWeightComponents:
    """Workloads with empty components (e.g. no range queries at all) must
    not break the worst-case machinery — regression for a 0/0 underflow in
    the exponential tilting."""

    def test_worst_case_stays_on_the_support(self):
        expected = Workload(z0=0.45, z1=0.05, q=0.0, w=0.5)
        region = UncertaintyRegion(expected=expected, rho=0.5)
        cost = np.array([1.0, 2.0, 50.0, 3.0])  # costliest component has no mass
        worst = region.worst_case_workload(cost)
        assert worst.q == 0.0
        assert region.contains(worst, tolerance=1e-5)
        assert np.isfinite(region.worst_case_cost(cost))
        assert region.worst_case_cost(cost) >= float(
            np.dot(expected.as_array(), cost)
        ) - 1e-9

    def test_robust_tuner_handles_zero_weight_workloads(self, system):
        from repro.core import RobustTuner

        expected = Workload(z0=0.5, z1=0.0, q=0.0, w=0.5)
        result = RobustTuner(rho=0.5, system=system).tune(expected)
        assert np.isfinite(result.objective)
        assert result.objective > 0


class TestSubnormalWeights:
    """All the mass but a subnormal weight on one component: the variance
    the tilt solve starts from cancels to a hair below zero.  Its square root
    used to be NaN, which made the worst case NaN and left the robust search
    with no finite design at all."""

    EXPECTED = Workload(
        z0=0.9999999999999982, z1=1.7763568394002473e-15, q=0.0, w=1.7800590868057597e-308
    )
    COST = np.array([0.54842583, 1.04940773, 3.0, 6.75])  # leveling, T = 10, h = 2

    def test_worst_case_cost_is_finite_and_bounded(self):
        region = UncertaintyRegion(expected=self.EXPECTED, rho=1.0)
        worst = region.worst_case_cost(self.COST)
        assert np.isfinite(worst)
        assert float(np.dot(self.EXPECTED.as_array(), self.COST)) - 1e-12 <= worst
        assert worst <= self.COST.max()

    def test_worst_case_constraint_is_tight(self):
        region = UncertaintyRegion(expected=self.EXPECTED, rho=1.0)
        worst = region.worst_case_workload(self.COST)
        assert region.divergence(worst) == pytest.approx(1.0, abs=1e-6)

    def test_robust_tuner_handles_subnormal_weights(self, system):
        from repro.core import RobustTuner

        result = RobustTuner(rho=1.0, system=system).tune(self.EXPECTED)
        assert np.isfinite(result.objective)
        assert result.objective > 0
