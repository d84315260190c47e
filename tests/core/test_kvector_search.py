"""Tests for the per-level K_i vector search of the tuners.

The vector machinery has two stages — structured-family enumeration and a
batched coordinate descent over integer bounds that re-searches ``(T, h)``
after every move.  These tests pin each stage's contract plus the
end-to-end guarantees: dominance over the uniform search, determinism, and
deployable (feasible) results.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import GridTuner, NominalTuner, RobustTuner
from repro.lsm import CompactionPolicy, Policy, SystemConfig
from repro.workloads import Workload

_SYSTEM = SystemConfig(read_write_asymmetry=2.0)

#: The workload where a front-loaded ladder strictly beats every uniform
#: (K, Z) pair (see the ``kvector_frontier`` row of ``repro.figures``).
_LADDER_WORKLOAD = Workload(0.05, 0.25, 0.05, 0.65, long_range_fraction=0.3)

_CANDS = np.arange(2.0, 13.0)


def _tuner(**kwargs) -> NominalTuner:
    defaults = dict(
        system=_SYSTEM,
        policies=(Policy.FLUID,),
        ratio_candidates=_CANDS,
        seed=0,
    )
    defaults.update(kwargs)
    return NominalTuner(**defaults)


class TestSweepExpansion:
    def test_flag_off_keeps_the_scalar_sweep(self):
        tuner = _tuner()
        assert all(len(spec.bounds) == 1 for spec in tuner.policy_specs)

    def test_flag_on_adds_vector_families(self):
        tuner = _tuner(k_vector_search=True)
        assert any(len(spec.bounds) > 1 for spec in tuner.policy_specs)


class TestVectorSearchResults:
    @pytest.mark.parametrize("polish", [True, False])
    def test_dominates_the_uniform_search_on_the_ladder_workload(self, polish):
        uniform = _tuner(polish=polish).tune(_LADDER_WORKLOAD)
        vector = _tuner(polish=polish, k_vector_search=True).tune(_LADDER_WORKLOAD)
        assert vector.objective <= uniform.objective * (1.0 + 1e-8)

    def test_integer_rows_deploy_the_non_uniform_ladder_they_report(self):
        """On integer size ratios nothing is relaxed: the reported vector is
        the deployed one, and here it is a genuine ladder."""
        vector = _tuner(polish=False, k_vector_search=True).tune(_LADDER_WORKLOAD)
        assert vector.tuning.rounded() == vector.tuning
        assert len(set(vector.tuning.k_bounds)) > 1

    def test_solver_info_records_the_vector_winner(self):
        result = _tuner(k_vector_search=True, polish=False).tune(_LADDER_WORKLOAD)
        assert "k_vector_search" in result.solver_info

    def test_same_seed_is_deterministic(self):
        first = _tuner(k_vector_search=True).tune(_LADDER_WORKLOAD)
        second = _tuner(k_vector_search=True).tune(_LADDER_WORKLOAD)
        assert first.tuning == second.tuning
        assert first.objective == second.objective

    def test_bounds_are_feasible_after_rounding(self):
        result = _tuner(k_vector_search=True).tune(_LADDER_WORKLOAD)
        deployed = result.tuning.rounded()
        cap = deployed.size_ratio - 1.0
        assert all(1.0 <= bound <= max(cap, 1.0) for bound in deployed.k_bounds)
        assert 1.0 <= deployed.z_bound <= max(cap, 1.0)

    def test_vector_result_round_trips_through_serialisation(self):
        result = _tuner(k_vector_search=True).tune(_LADDER_WORKLOAD)
        payload = json.loads(json.dumps(result.tuning.to_dict()))
        assert payload["policy"] == result.tuning.policy.value == "fluid"
        assert payload["k_bounds"] == list(result.tuning.k_bounds)
        assert payload["z_bound"] == result.tuning.z_bound

    def test_uniform_optimum_stays_uniform(self):
        """Where one shared bound is optimal (read-heavy), the vector search
        must not report spurious non-uniform structure."""
        workload = Workload(0.30, 0.45, 0.15, 0.10, long_range_fraction=0.1)
        result = _tuner(k_vector_search=True).tune(workload)
        deployed = result.tuning.rounded()
        if deployed.k_bounds is not None:
            assert len(set(deployed.k_bounds)) == 1

    def test_uniform_families_recover_the_scalar_corners_exactly(self):
        """Restricting the vector search space to uniform families reproduces
        every scalar (K, Z) fluid optimum exactly: same objective, same (T, h)."""
        for k, z in ((1.0, 1.0), (2.0, 1.0), (4.0, 2.0), (8.0, 8.0)):
            scalar, uniform = (
                _tuner(policies=(spec,), ratio_candidates=np.arange(2.0, 21.0)).tune(
                    _LADDER_WORKLOAD
                )
                for spec in (
                    CompactionPolicy.fluid((k,), z),
                    CompactionPolicy.fluid((k,) * 4, z),
                )
            )
            assert uniform.objective == scalar.objective, (k, z)
            assert uniform.tuning.size_ratio == scalar.tuning.size_ratio, (k, z)
            assert uniform.tuning.bits_per_entry == scalar.tuning.bits_per_entry, (k, z)


class TestCoordinateDescent:
    def test_descent_never_worsens_the_sweep_value(self):
        tuner = _tuner(k_vector_search=True, polish=False)
        sweep_only = _tuner(polish=False).tune(_LADDER_WORKLOAD)
        descended = tuner.tune(_LADDER_WORKLOAD)
        assert descended.objective <= sweep_only.objective * (1.0 + 1e-8)

    def test_descent_refines_a_pinned_suboptimal_vector(self):
        """Seeded with only a deliberately bad vector spec, the descent must
        walk it to something better at the swept (T, h).  Size ratios start
        at 6 so the bad bounds cannot be clamped into accidental optimality
        (at T = 2 every bound collapses to 1)."""
        bad = CompactionPolicy.fluid((1.0, 64.0, 1.0), 4.0)
        cands = np.arange(6.0, 13.0)
        pinned = _tuner(
            policies=(bad,), polish=False, ratio_candidates=cands
        ).tune(_LADDER_WORKLOAD)
        refined = _tuner(
            policies=(bad,),
            polish=False,
            k_vector_search=True,
            ratio_candidates=cands,
        ).tune(_LADDER_WORKLOAD)
        assert refined.objective < pinned.objective


class TestGridTunerVectors:
    def test_grid_tuner_accepts_explicit_vector_specs(self):
        spec = CompactionPolicy.fluid((4.0, 2.0, 1.0), 1.0)
        tuner = GridTuner(
            system=_SYSTEM,
            size_ratios=np.arange(2.0, 9.0),
            bits_grid_points=5,
            policies=(spec,),
        )
        result = tuner.tune(_LADDER_WORKLOAD)
        assert result.tuning.k_bounds == (4.0, 2.0, 1.0)
        assert np.isfinite(result.objective)

    def test_grid_tuner_vector_flag_expands_families(self):
        tuner = GridTuner(
            system=_SYSTEM,
            size_ratios=np.arange(2.0, 5.0),
            bits_grid_points=3,
            policies=(Policy.FLUID,),
            k_vector_search=True,
        )
        assert any(len(spec.bounds) > 1 for spec in tuner.policy_specs)


class TestRobustVectorSearch:
    def test_robust_vector_search_dominates_the_uniform_sweep(self):
        uniform = RobustTuner(
            rho=0.5,
            system=_SYSTEM,
            policies=(Policy.FLUID,),
            ratio_candidates=_CANDS,
            seed=0,
        ).tune(_LADDER_WORKLOAD)
        vector = RobustTuner(
            rho=0.5,
            system=_SYSTEM,
            policies=(Policy.FLUID,),
            ratio_candidates=_CANDS,
            seed=0,
            k_vector_search=True,
        ).tune(_LADDER_WORKLOAD)
        assert np.isfinite(vector.objective)
        assert vector.objective <= uniform.objective * (1.0 + 1e-8)

    def test_rho_zero_matches_the_nominal_vector_search(self):
        nominal = _tuner(k_vector_search=True, polish=False).tune(_LADDER_WORKLOAD)
        robust = RobustTuner(
            rho=0.0,
            system=_SYSTEM,
            policies=(Policy.FLUID,),
            ratio_candidates=_CANDS,
            seed=0,
            polish=False,
            k_vector_search=True,
        ).tune(_LADDER_WORKLOAD)
        assert robust.objective == pytest.approx(nominal.objective, rel=1e-9)
