"""Tests for the KL uncertainty region: its worst case and the certificate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from repro.core import RobustTuner, UncertaintyRegion, uncertainty
from repro.core.base import _BOUND_SLACK, _TIE, _ZOOM_MARGIN, _coarse_grid, objective
from repro.core.uncertainty import _MAX_TILT, _MIN_WEIGHT, kl_divergence
from repro.lsm import simulator_system
from repro.workloads import Workload, expected_workload, expected_workloads


def minimize_dual(region: UncertaintyRegion, cost_vector: np.ndarray) -> float:
    """Minimise the region's dual ``g(θ)`` over ``θ > 0`` for a fixed cost vector.

    An independent (bounded Brent, in ``ln θ``) route to the worst-case cost,
    confirming strong duality against the exact tilting solve of
    :meth:`UncertaintyRegion.worst_case_cost`.
    """
    result = optimize.minimize_scalar(
        lambda log_theta: region.dual_value(cost_vector, math.exp(log_theta)),
        bounds=(-12.0, 12.0),
        method="bounded",
        options={"xatol": 1e-10},
    )
    return float(result.fun)


def witness(region: UncertaintyRegion, cost_vector: np.ndarray) -> Workload:
    """The worst-case workload of one cost vector."""
    return Workload.from_array(region.worst_case_weights(cost_vector))


@pytest.fixture()
def uniform() -> Workload:
    return Workload.uniform()


@pytest.fixture()
def cost_vector() -> np.ndarray:
    # A representative cost vector: ranges expensive, writes cheap.
    return np.array([2.0, 1.5, 6.0, 0.5])


class TestUncertaintyRegion:
    def test_expected_workload_always_contained(self, uniform):
        region = UncertaintyRegion(expected=uniform, rho=0.0)
        assert region.divergence(uniform) <= region.rho + 1e-9

    def test_far_workload_not_contained_for_small_rho(self, uniform):
        region = UncertaintyRegion(expected=uniform, rho=0.05)
        skewed = Workload(0.9, 0.04, 0.03, 0.03)
        assert region.divergence(skewed) > region.rho + 1e-9

    def test_far_workload_contained_for_large_rho(self, uniform):
        region = UncertaintyRegion(expected=uniform, rho=4.0)
        skewed = Workload(0.9, 0.04, 0.03, 0.03)
        assert region.divergence(skewed) <= region.rho + 1e-9

    def test_divergence_matches_free_function(self, uniform):
        region = UncertaintyRegion(expected=uniform, rho=1.0)
        other = Workload(0.4, 0.3, 0.2, 0.1)
        assert region.divergence(other) == pytest.approx(
            kl_divergence(other.as_array(), uniform.as_array())
        )


class TestWorstCaseWorkload:
    def test_zero_rho_returns_expected(self, uniform, cost_vector):
        region = UncertaintyRegion(expected=uniform, rho=0.0)
        assert (region.worst_case_weights(cost_vector) == uniform.as_array()).all()

    def test_constant_costs_return_expected(self, uniform):
        region = UncertaintyRegion(expected=uniform, rho=1.0)
        worst = region.worst_case_weights(np.full(4, 3.0))
        assert np.allclose(worst, uniform.as_array())

    def test_worst_case_lies_inside_region(self, uniform, cost_vector):
        region = UncertaintyRegion(expected=uniform, rho=0.5)
        assert region.divergence(witness(region, cost_vector)) <= 0.5 + 1e-6

    def test_worst_case_constraint_is_tight(self, uniform, cost_vector):
        region = UncertaintyRegion(expected=uniform, rho=0.5)
        assert region.divergence(witness(region, cost_vector)) == pytest.approx(0.5, abs=1e-4)

    def test_worst_case_shifts_mass_to_expensive_queries(self, uniform, cost_vector):
        region = UncertaintyRegion(expected=uniform, rho=0.5)
        worst = witness(region, cost_vector)
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
        worst = witness(region, cost_vector)
        assert region.divergence(worst) <= 1.0 + 1e-6
        assert worst.q > expected.q

    def test_rejects_wrong_cost_dimension(self, uniform):
        region = UncertaintyRegion(expected=uniform, rho=1.0)
        with pytest.raises(IndexError):
            region.worst_case_weights(np.array([1.0, 2.0]))


class TestDualObjective:
    def test_strong_duality(self, uniform, cost_vector):
        """The dual optimum equals the exact worst-case (primal) cost."""
        region = UncertaintyRegion(expected=uniform, rho=0.5)
        primal = region.worst_case_cost(cost_vector)
        assert minimize_dual(region, cost_vector) == pytest.approx(primal, rel=1e-9)

    def test_strong_duality_skewed_expected(self, cost_vector):
        region = UncertaintyRegion(expected=expected_workload(7).workload, rho=1.0)
        primal = region.worst_case_cost(cost_vector)
        assert minimize_dual(region, cost_vector) == pytest.approx(primal, rel=1e-9)

    def test_dual_upper_bounds_primal_everywhere(self, uniform, cost_vector):
        """Weak duality: any tilt ``θ = 1/λ > 0`` upper-bounds the worst-case cost."""
        region = UncertaintyRegion(expected=uniform, rho=0.75)
        primal = region.worst_case_cost(cost_vector)
        rng = np.random.default_rng(0)
        for _ in range(25):
            theta = 1.0 / float(rng.uniform(0.05, 10.0))
            assert region.dual_value(cost_vector, theta) >= primal - 1e-8

    def test_lambda_zero_limit(self, uniform, cost_vector):
        """``λ = 0`` (``θ = ∞``) is the vertex: the costliest component."""
        region = UncertaintyRegion(expected=uniform, rho=0.5)
        assert region.dual_value(cost_vector, math.inf) == 6.0


class TestZeroWeightComponents:
    """Workloads with empty components (e.g. no range queries at all) must
    not break the worst-case machinery — regression for a 0/0 underflow in
    the exponential tilting."""

    def test_worst_case_stays_on_the_support(self):
        expected = Workload(z0=0.45, z1=0.05, q=0.0, w=0.5)
        region = UncertaintyRegion(expected=expected, rho=0.5)
        cost = np.array([1.0, 2.0, 50.0, 3.0])  # costliest component has no mass
        worst = witness(region, cost)
        assert worst.q == 0.0
        assert region.divergence(worst) <= 0.5 + 1e-5
        assert np.isfinite(region.worst_case_cost(cost))
        assert region.worst_case_cost(cost) >= float(
            np.dot(expected.as_array(), cost)
        ) - 1e-9
        # The vertex of the dual is the costliest *supported* component.
        assert region.dual_value(cost, math.inf) == 3.0

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
        assert region.divergence(witness(region, self.COST)) == pytest.approx(1.0, abs=1e-6)

    def test_robust_tuner_handles_subnormal_weights(self, system):
        from repro.core import RobustTuner

        result = RobustTuner(rho=1.0, system=system).tune(self.EXPECTED)
        assert np.isfinite(result.objective)
        assert result.objective > 0


@pytest.fixture(scope="module")
def coarse_rows() -> np.ndarray:
    """400 cost vectors spread over the coarse grid of the classic robust search."""
    tuner = RobustTuner(rho=1.0, system=simulator_system(num_entries=20_000))
    costs = _coarse_grid(*tuner._grid_key(tuner.policy_specs, Workload.uniform())).costs
    costs = costs.reshape(-1, 4)
    return costs[np.linspace(0, len(costs) - 1, 400).astype(int)]


class TestBatchIndependence:
    """A cost vector's worst case does not depend on the batch it is solved in.

    Each row of the tilt solve stops at its own convergence; a row that kept
    iterating until the slowest row of its batch converged moved in its last
    bits, so the search's batched objective differed from a point re-pricing.
    Batches of 7 and 81 leave SIMD tails.
    """

    @pytest.mark.parametrize("index", range(len(expected_workloads())))
    def test_every_batch_solves_each_row_as_it_is_solved_alone(self, coarse_rows, index):
        """Cold, and with each row started from its own ``θ``."""
        workload = expected_workload(index).workload
        rng = np.random.default_rng(index)
        for rho in (0.25, 1.0, 2.0):
            region = UncertaintyRegion(expected=workload, rho=rho)
            cold = np.array([region.worst_case_cost(row) for row in coarse_rows])
            warm = region.worst_case_tilt(coarse_rows) * rng.uniform(0.25, 4.0, len(coarse_rows))
            for starts, alone in (
                (np.full(len(coarse_rows), np.nan), cold),
                (warm, [region.worst_case_costs(*pair)[0] for pair in zip(coarse_rows, warm)]),
            ):
                for size in (7, 81, 400):
                    batched = np.concatenate(
                        [
                            region.worst_case_costs(
                                coarse_rows[start : start + size], starts[start : start + size]
                            )[0]
                            for start in range(0, len(coarse_rows), size)
                        ]
                    )
                    assert (batched == alone).all(), (rho, size, np.flatnonzero(batched != alone))


class TestSmallCostGaps:
    """The tilt needed grows as the gap below the costliest cost shrinks;
    beyond the bracket a row is solved again in units of its gap, so the
    worst case scales with the costs however small they are."""

    @pytest.mark.parametrize("scale", [1e-6, 1e-8, 1e-12])
    def test_worst_case_scales_with_the_costs(self, scale):
        region = UncertaintyRegion(expected=Workload(0.0, 2.0 / 3.0, 0.0, 1.0 / 3.0), rho=1.0)
        costs = np.array([[0.0, 0.0, 0.0, 6.0], [0.0, 1.0, 0.0, 6.0]])
        exact = region.worst_case_costs(costs)[0]
        assert region.worst_case_costs(costs * scale)[0] == pytest.approx(exact * scale, rel=1e-12)


class TestTinyWeightOnADearQuery:
    """A tiny weight on a dear query puts the worst case far above ``w·c``,
    even at a radius just above ``_NO_UNCERTAINTY``.  Measured from the
    costliest cost, the tilt's divergence would cancel two terms of the size
    of ``θ·c_max`` and put these worst cases up to 4e-8 off.  The references
    bisect the tilt to 50 digits on the same (normalised) weights."""

    CASES = [
        (Workload(1e-8, 0, 0, 1 - 1e-8), (100, 1, 1, 1e-8), 1.01e-10, 1.1554548967613934e-6),
        (Workload(1e-10, 0, 0, 1 - 1e-10), (100, 1, 1, 1e-8), 1e-9, 9.174364626301079e-8),
        (Workload(1e-10, 0.5, 0, 0.5 - 1e-10), (100, 1e-6, 1, 1e-8), 1e-9, 5.86743648481871e-7),
    ]

    @pytest.mark.parametrize("workload, costs, rho, reference", CASES)
    def test_worst_case_matches_the_reference(self, workload, costs, rho, reference):
        region = UncertaintyRegion(expected=workload, rho=rho)
        worst = region.worst_case_cost(np.array(costs))
        assert worst == pytest.approx(reference, rel=1e-14, abs=0.0)

    def test_the_coarse_prune_keeps_a_cell_tied_with_its_seed(self):
        """The bound lies 9 % above ``w·c``, beyond the zoom margin of an
        incumbent at ``w·c``: only the policy's seed, the worst case of the
        first copy, keeps the second, and only while the bound (less
        ``_BOUND_SLACK``) stays below the tilt."""
        workload, cost_vector, rho, _ = self.CASES[0]
        costs = np.array([[cost_vector, cost_vector]])
        region = UncertaintyRegion(expected=workload, rho=rho)
        nominal = float(region.nominal_costs(costs)[0, 0])
        lower = region.mixture_bounds(costs)[0, 1] * (1.0 - _BOUND_SLACK)
        assert lower > nominal * _ZOOM_MARGIN * (1.0 + _TIE)
        worst = region.worst_case_costs(costs)[0]
        assert (objective(costs, workload, rho, bound=nominal, coarse=True)[0] == worst).all()


@st.composite
def _regions(draw) -> UncertaintyRegion:
    """A KL ball around a workload near the simplex, some components empty.

    Weights may be subnormal, which the region takes off its support
    (:data:`~repro.core.uncertainty._MIN_WEIGHT`).  They sum to anything
    ``Workload`` accepts, ``1 ± 1e-6`` (less a rounding margin).
    """
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4)))
    raw *= np.array(draw(st.lists(st.booleans(), min_size=4, max_size=4)))
    if raw.sum() == 0.0:
        raw[draw(st.integers(0, 3))] = 1.0
    weights = raw / raw.sum()
    rho = draw(st.floats(0.0, 5.0))
    total = 1.0 + draw(st.floats(-1e-6 + 1e-12, 1e-6 - 1e-12))
    return UncertaintyRegion(
        expected=Workload.from_array(weights / weights.sum() * total), rho=rho
    )


#: A cost vector of components ``10^U(−8, 2)``.
_COSTS = st.lists(st.floats(-8.0, 2.0), min_size=4, max_size=4).map(
    lambda exponents: 10.0 ** np.array(exponents)
)


class TestMixtureBound:
    """The certificate of the worst case: the mixture bound and the tilt's
    witness are points of the region, so ``w·c ≤ mixture bound ≤ worst case``
    (the robust search may skip what the bound rules out), and the dual at the
    tilt's ``θ*`` reads the worst case again."""

    @settings(max_examples=200, deadline=None)
    @given(region=_regions(), costs=_COSTS)
    def test_the_worst_case_is_certified(self, region, costs):
        weights = region.expected.as_array()
        weights = np.where(weights >= _MIN_WEIGHT, weights, 0.0)
        support = np.flatnonzero(weights)
        centre = weights / weights.sum()
        for share, j in zip(region.mixture_shares(), support):
            assert 0.0 <= share <= 1.0
            if share == 0.0:
                continue  # ``w`` itself, which the tilt answers at θ = 0
            mixture = (1.0 - share) * centre
            mixture[j] += share
            assert region.divergence(Workload.from_array(mixture)) <= region.rho + 1e-12
        assert region.divergence(witness(region, costs)) <= region.rho + 1e-12
        worst = region.worst_case_cost(costs)
        bound = region.mixture_bounds(costs)
        assert region.nominal_costs(costs) <= bound
        # Below the smallest normal float a weighted sum loses even its units.
        tiny = np.finfo(float).tiny
        assert bound <= worst * (1.0 + 1e-12) + tiny
        theta = float(region.worst_case_tilt(costs))
        assert abs(region.dual_value(costs, theta) - worst) <= 1e-11 * worst

    def test_a_vertex_inside_the_radius_is_reached_outright(self):
        region = UncertaintyRegion(expected=Workload(0.5, 0.25, 0.25, 0.0), rho=0.7)
        # -ln 0.5 = 0.69 is inside the radius, -ln 0.25 = 1.39 is not.
        shares = region.mixture_shares()
        assert shares[0] == 1.0 and 0.0 < shares[1] < 1.0
        assert region.mixture_bounds(np.array([4.0, 1.0, 1.0, 9.0])) == 4.0

    def test_weights_off_one_by_the_tolerance_bound_below_the_worst_case(self):
        """The bounds use the normalised ``w``: ``w·c`` alone reads
        ``2.0000018`` here, above the worst case."""
        region = UncertaintyRegion(expected=Workload(0.5, 0.3, 0.2 + 9e-7, 0.0), rho=0.25)
        costs = np.array([2.0, 2.0, 2.0, 1.0])
        worst = region.worst_case_cost(costs)
        assert region.mixture_bounds(costs) <= worst * (1.0 + 1e-12)
        assert region.nominal_costs(costs) <= worst * (1.0 + 1e-12)

    def test_weights_below_one_keep_the_witness_in_the_region(self):
        """The region is centred on ``w / Σw``.  Measured from weights that
        sum to ``1 − 9e-7``, a radius of 1e-8 excluded even ``w / Σw``, the
        witness sat 9.0e-7 from the centre, and ``θ*`` read 1.6e-34."""
        region = UncertaintyRegion(expected=Workload(0.5, 0.3, 0.2 - 9e-7, 0.0), rho=1e-8)
        costs = np.array([2.0, 1.0, 3.0, 0.0])
        assert region.divergence(witness(region, costs)) <= region.rho + 1e-12
        theta = float(region.worst_case_tilt(costs))
        assert region.dual_value(costs, theta) == pytest.approx(
            region.worst_case_cost(costs), rel=1e-11
        )

    @pytest.mark.parametrize(
        "weights, costs",
        [
            (
                (1.920475139371955e-07, 0.6334355849039448, 0.024255331191920002, 0.342308893365),
                (0.00011558599117776523, 2.830671354305527, 1.0000000000214488, 1.00000000023831),
            ),
            ((0.2361616195794776, 0.3427649802899889, 0.0, 0.42107246566450574), (1, 1, 1e-6, 100)),
        ],
    )
    def test_the_prune_slack_covers_the_bound_next_to_no_uncertainty(self, weights, costs):
        """The coarse prune takes ``_BOUND_SLACK`` off the bound.  Here a
        divergence taken as the difference of terms far larger than ``ρ`` (the
        tilt's or the shares') would put the bound up to 6.2e-11 above the
        tilt."""
        region = UncertaintyRegion(expected=Workload.from_array(np.array(weights)), rho=1.01e-10)
        costs = np.array(costs)
        assert region.mixture_bounds(costs) * (1.0 - _BOUND_SLACK) <= region.worst_case_cost(costs)

    def test_the_robust_prune_keeps_a_cell_of_such_a_workload(self):
        """Pruned by ``w·c`` against an incumbent at its own worst case (the
        search's ties included), the cell would read ``inf``."""
        workload = Workload(0.5, 0.3, 0.2 + 9e-7, 0.0)
        costs = np.array([[2.0, 2.0, 2.0, 1.0]])
        worst = UncertaintyRegion(expected=workload, rho=0.25).worst_case_costs(costs)[0]
        bound = float(worst[0]) * (1.0 + _TIE)
        assert objective(costs, workload, 0.25, bound=bound)[0] == worst

    def test_a_subnormal_weight_is_off_the_support(self):
        """A weight of 5e-324 holds one bit.  Priced by the tilt as a weight,
        the worst case of ``(1, 0, 0, 0)`` read 0.0013568521, below the
        feasible mixture with that vertex, 0.0013571493; below the smallest
        normal float the region reads a weight as zero."""
        region = UncertaintyRegion(expected=Workload(5e-324, 1, 0, 0), rho=1.0)
        costs = np.array([1.0, 0.0, 0.0, 0.0])
        assert region.mixture_bounds(costs) <= region.worst_case_cost(costs) * (1.0 + 1e-12)

    def test_no_uncertainty_moves_no_mass(self):
        region = UncertaintyRegion(expected=Workload.uniform(), rho=1e-11)
        assert (region.mixture_shares() == 0.0).all()


class TestStartedTilt:
    """A tilt solve started from a nearby ``θ`` reaches the root the cold
    solve reaches, to the solve's convergence; a start it cannot use is the
    cold start."""

    @pytest.mark.parametrize("index", range(len(expected_workloads())))
    def test_a_start_near_the_root_reaches_the_cold_solve(self, coarse_rows, index):
        """The search's rows: ``θ`` to 1e-13 relative, the worst case to 1e-14."""
        rng = np.random.default_rng(index)
        for rho in (0.25, 1.0, 2.0):
            region = UncertaintyRegion(expected=expected_workload(index).workload, rho=rho)
            worst, theta = region.worst_case_costs(coarse_rows)
            factor = rng.uniform(0.25, 4.0, len(coarse_rows))
            started, tilt = region.worst_case_costs(coarse_rows, theta * factor)
            solved = np.isfinite(theta)
            assert (tilt[~solved] == theta[~solved]).all()
            assert (abs(tilt[solved] - theta[solved]) <= 1e-13 * theta[solved]).all()
            assert (abs(started - worst) <= 1e-14 * worst).all()

    @settings(max_examples=300, deadline=None)
    @given(region=_regions(), costs=_COSTS, factor=st.floats(0.25, 4.0))
    def test_a_start_near_the_root_certifies_the_worst_case(self, region, costs, factor):
        """Any region: the started ``θ`` is a root as the cold one is, its dual
        reading the worst case to the certificate's 1e-11.  Where a tiny
        weight sits on a dear query the root is ill-conditioned — within the
        divergence's rounding ``θ`` moves up to 6e-11 relative and the worst
        case 3e-13 — so the worst case is held to 1e-14 of the costliest
        supported cost, the scale of the terms it sums."""
        worst, theta = region.worst_case_costs(costs)
        started, tilt = region.worst_case_costs(costs, theta * factor)
        scale = costs[region.expected.as_array() >= _MIN_WEIGHT].max()
        assert abs(started - worst) <= 1e-14 * scale
        assert abs(region.dual_value(costs, float(tilt)) - started) <= 1e-11 * started

    @pytest.mark.parametrize("start", [np.nan, 0.0, -1.0, np.inf, _MAX_TILT])
    @pytest.mark.parametrize("index", [1, 7, 11])
    def test_an_unusable_start_is_the_cold_start(self, coarse_rows, index, start):
        region = UncertaintyRegion(expected=expected_workload(index).workload, rho=0.25)
        worst, theta = region.worst_case_costs(coarse_rows)
        started, tilt = region.worst_case_costs(coarse_rows, np.full(len(coarse_rows), start))
        assert (started == worst).all() and (tilt == theta).all()

    @pytest.mark.parametrize("index", range(len(expected_workloads())))
    def test_a_solve_started_at_its_root_takes_one_evaluation(
        self, monkeypatch, coarse_rows, index
    ):
        """All the rows of a batch at once, each started at its cold ``θ*``."""
        workload = expected_workload(index).workload
        tilted = uncertainty._tilted
        for rho in (0.25, 1.0):
            region = UncertaintyRegion(expected=workload, rho=rho)
            theta = region.worst_case_tilt(coarse_rows)
            rows = (theta > 0.0) & (theta < 0.5 * _MAX_TILT)
            if rho > 0.25 and not rows.any():
                continue  # every row's worst case is its vertex (w10 at ρ = 1)
            evaluations = []
            with monkeypatch.context() as patch:
                patch.setattr(
                    uncertainty, "_tilted", lambda *args: evaluations.append(1) or tilted(*args)
                )
                region.worst_case_tilt(coarse_rows[rows], theta[rows])
            assert len(evaluations) == 1, (rho, rows.sum())
