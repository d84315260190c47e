"""Tests for the robust tuner (the paper's contribution)."""

import numpy as np
import pytest

from repro.core import GridTuner, NominalTuner, RobustTuner, UncertaintyRegion, uncertainty
from repro.core.base import _TIE, _ZOOM_MARGIN, _coarse_grid
from repro.lsm import ALL_POLICIES, CLASSIC_POLICIES, LSMCostModel, Policy, simulator_system
from repro.workloads import expected_workload, expected_workloads


class TestRobustTunerBasics:
    @pytest.mark.parametrize("rho", [-0.5, float("nan")], ids=["negative", "nan"])
    @pytest.mark.parametrize(
        "build",
        [
            lambda rho: RobustTuner(rho=rho, system=simulator_system(20_000)),
            lambda rho: GridTuner(rho=rho, system=simulator_system(20_000)),
            lambda rho: UncertaintyRegion(expected=expected_workload(11).workload, rho=rho),
        ],
        ids=["robust", "grid", "region"],
    )
    def test_rejects_a_radius_below_zero_or_nan(self, build, rho):
        """``rho < 0`` is False for NaN, which would answer with the vertex
        worst case."""
        with pytest.raises(ValueError):
            build(rho)

    def test_result_records_rho(self, robust_w11_rho1):
        assert robust_w11_rho1.rho == 1.0

    def test_tuning_respects_bounds(self, system, robust_w11_rho1):
        tuning = robust_w11_rho1.tuning
        assert 2.0 <= tuning.size_ratio <= system.max_size_ratio
        assert 0.0 <= tuning.bits_per_entry <= system.max_bits_per_entry

    def test_solver_reports_dual_variables(self, robust_w11_rho1):
        assert "lambda" in robust_w11_rho1.solver_info
        assert "dual_objective" in robust_w11_rho1.solver_info
        assert robust_w11_rho1.solver_info["lambda"] >= 0.0

    def test_objective_is_worst_case_cost(self, system, w11, robust_w11_rho1):
        model = LSMCostModel(system)
        region = UncertaintyRegion(expected=w11, rho=1.0)
        worst = region.worst_case_cost(model.cost_vector(robust_w11_rho1.tuning))
        assert robust_w11_rho1.objective == pytest.approx(worst, rel=1e-6)

    @pytest.mark.parametrize("rho", [0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("index", [e.index for e in expected_workloads()])
    def test_dual_objective_close_to_primal_worst_case(self, system, index, rho):
        """Strong duality at the tuning the search found, on every Table-2
        cell: the dual at ``θ*`` is exact, at the vertex (``θ* = ∞``) too."""
        result = RobustTuner(rho=rho, system=system).tune(expected_workload(index).workload)
        dual = result.solver_info["dual_objective"]
        assert dual == pytest.approx(result.objective, rel=1e-12)


class TestOneSolvePerCell:
    """``tune`` reports ``λ*`` and the dual from the cost vector and ``θ*``
    at which the search priced its winner: no tilt is solved after it."""

    @pytest.mark.parametrize(
        "policies, k_vector_search",
        [(CLASSIC_POLICIES, False), ((Policy.FLUID,), True)],
        ids=["classic", "k-vector"],
    )
    def test_tune_solves_nothing_after_the_search(self, monkeypatch, policies, k_vector_search):
        solves, searched = [], []
        solve, tune = uncertainty._solve_tilt, NominalTuner._tune

        def counted(*args):
            solves.append(len(args[0]))
            return solve(*args)

        def recorded(self, workload):
            found = tune(self, workload)
            searched.append(len(solves))
            return found

        monkeypatch.setattr(uncertainty, "_solve_tilt", counted)
        monkeypatch.setattr(NominalTuner, "_tune", recorded)
        tuner = RobustTuner(
            rho=1.0,
            system=simulator_system(num_entries=20_000),
            policies=policies,
            k_vector_search=k_vector_search,
        )
        result = tuner.tune(expected_workload(11).workload)
        assert 0.0 < result.solver_info["lambda"] < np.inf
        assert searched == [len(solves)] and solves


class TestRobustVersusNominal:
    def test_zero_rho_matches_nominal_cost(self, system, w11, nominal_w11):
        """With no uncertainty, the robust problem reduces to the nominal one."""
        robust = RobustTuner(rho=0.0, system=system, seed=1).tune(w11)
        model = LSMCostModel(system)
        robust_cost = model.workload_cost(w11, robust.tuning)
        assert robust_cost == pytest.approx(nominal_w11.objective, rel=0.02)

    @pytest.mark.parametrize("policies", [CLASSIC_POLICIES, ALL_POLICIES], ids=["classic", "all"])
    @pytest.mark.parametrize("index", [e.index for e in expected_workloads()])
    def test_zero_rho_is_the_nominal_tuner(self, system, index, policies):
        """ρ = 0 is Problem 1: the whole result is the nominal tuner's, on the
        fluid ``(K, Z)`` rows as on the classic policies."""
        workload = expected_workload(index).workload
        nominal = NominalTuner(system=system, policies=policies).tune(workload)
        assert RobustTuner(rho=0.0, system=system, policies=policies).tune(workload) == nominal

    def test_robust_has_lower_worst_case_than_nominal(
        self, system, w11, nominal_w11, robust_w11_rho1
    ):
        """The whole point of the robust tuning: a better worst case."""
        model = LSMCostModel(system)
        region = UncertaintyRegion(expected=w11, rho=1.0)
        nominal_worst = region.worst_case_cost(model.cost_vector(nominal_w11.tuning))
        robust_worst = region.worst_case_cost(model.cost_vector(robust_w11_rho1.tuning))
        assert robust_worst <= nominal_worst + 1e-9

    def test_robust_pays_little_on_expected_workload(
        self, system, w11, nominal_w11, robust_w11_rho1
    ):
        """On the expected workload itself the robust tuning loses only modestly."""
        model = LSMCostModel(system)
        nominal_cost = model.workload_cost(w11, nominal_w11.tuning)
        robust_cost = model.workload_cost(w11, robust_w11_rho1.tuning)
        assert robust_cost <= 4.0 * nominal_cost

    def test_robust_wins_on_shifted_workload(self, system, w11, nominal_w11, robust_w11_rho1):
        """A write-heavy shift hurts the nominal tuning far more than the robust."""
        model = LSMCostModel(system)
        shifted = expected_workload(12).workload  # adds 33% writes
        nominal_cost = model.workload_cost(shifted, nominal_w11.tuning)
        robust_cost = model.workload_cost(shifted, robust_w11_rho1.tuning)
        assert robust_cost < nominal_cost

    def test_matches_robust_grid_search(self, system, w11, robust_w11_rho1):
        grid = GridTuner(system=system, bits_grid_points=13, rho=1.0).tune(w11)
        assert robust_w11_rho1.objective <= grid.objective * 1.03

    def test_size_ratio_shrinks_with_rho_for_w11(self, system, w11):
        """Figure 5: increasing rho anticipates writes and limits the size ratio."""
        ratios = []
        for rho in (0.0, 1.0, 2.0):
            result = RobustTuner(
                rho=rho, system=system, seed=1
            ).tune(w11)
            ratios.append(result.tuning.size_ratio)
        assert ratios[1] < ratios[0]
        assert ratios[2] <= ratios[1] + 1.0

    def test_worst_case_objective_monotone_in_rho(self, system, w7):
        values = []
        for rho in (0.0, 0.5, 1.0, 2.0):
            result = RobustTuner(
                rho=rho, system=system, seed=1
            ).tune(w7)
            values.append(result.objective)
        assert all(b >= a - 1e-6 for a, b in zip(values, values[1:]))

    def test_leveling_chosen_for_w7_under_uncertainty(self, system, w7, robust_w7_rho1):
        """§8.4: leveling is more robust than tiering once uncertainty matters."""
        assert robust_w7_rho1.tuning.policy.value == "leveling"


class TestCoarsePrune:
    """Stage 1 skips the tilt of a coarse cell whose mixture bound puts it
    beyond the zoom margin and above its policy's seed; the search returns
    exactly what it returns with only the nominal prune.

    Cells: ``tune_sweep``'s two robust cells, the flat w4 at ρ = 1, and a
    fluid search whose grid is priced in more than one chunk.
    """

    SYSTEM = simulator_system(num_entries=20_000)

    @pytest.mark.parametrize(
        "index, rho, policies",
        [
            (1, 0.25, CLASSIC_POLICIES),
            (11, 1.0, CLASSIC_POLICIES),
            (4, 1.0, CLASSIC_POLICIES),
            (11, 1.0, (Policy.FLUID,)),
        ],
    )
    def test_a_skipped_cell_could_not_matter(self, monkeypatch, index, rho, policies):
        workload = expected_workload(index).workload
        tuner = RobustTuner(rho=rho, system=self.SYSTEM, policies=policies)
        grid = _coarse_grid(*tuner._grid_key(tuner.policy_specs, workload))
        pruned, pruned_tilt = tuner._coarse_values(grid, workload)
        result = tuner.tune(workload)
        with monkeypatch.context() as patch:
            # A bound of 0 skips nothing: the nominal prune alone.
            patch.setattr(
                UncertaintyRegion, "mixture_bounds", lambda self, costs: np.zeros(costs.shape[:-1])
            )
            reference = tuner._coarse_values(grid, workload)[0]
            unpruned = tuner.tune(workload)
        exact, tilt = UncertaintyRegion(expected=workload, rho=rho).worst_case_costs(grid.costs)

        kept, alive = np.isfinite(pruned), np.isfinite(reference)
        # The coarse stage solves cold: each kept cell and its tilt as a cold batch.
        assert (pruned[kept] == exact[kept]).all()
        assert (pruned_tilt[kept] == tilt[kept]).all()
        assert np.isnan(pruned_tilt[~kept]).all()
        assert (reference[alive] == exact[alive]).all()
        skipped = alive & ~kept
        assert not (kept & ~alive).any()
        bound = reference.min()
        assert pruned.min() == bound
        assert (exact[skipped] > bound * _ZOOM_MARGIN * (1.0 + _TIE)).all()
        best = reference.min(axis=1, keepdims=True)
        assert (exact > best)[skipped].all()
        assert (pruned.min(axis=1) == reference.min(axis=1)).all()

        assert result.tuning == unpruned.tuning
        assert result.objective == unpruned.objective
        assert result.solver_info == unpruned.solver_info
