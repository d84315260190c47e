"""The stage-1 grid memo: a solve whose key an earlier solve priced returns
the answer a fresh process would, and the memo stays bounded."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import NominalTuner, RobustTuner
from repro.core.base import _GRID_MEMO_SIZE, _memoised_grid
from repro.lsm import ALL_POLICIES, CLASSIC_POLICIES, Policy, simulator_system
from repro.workloads import expected_workload

_SMALL = simulator_system(num_entries=20_000)


def _tuner(rho: float, **options):
    if rho == 0:
        return NominalTuner(system=_SMALL, **options)
    return RobustTuner(rho=rho, system=_SMALL, **options)


def _cold(tuner, workload):
    """The answer of a process that has priced nothing yet."""
    _memoised_grid.cache_clear()
    return tuner.tune(workload)


def _assert_same(warm, cold) -> None:
    assert warm.tuning == cold.tuning
    assert warm.objective == cold.objective
    assert warm.solver_info == cold.solver_info
    assert warm == cold


class TestWarmEqualsCold:
    @pytest.mark.parametrize("policies", [CLASSIC_POLICIES, ALL_POLICIES], ids=["classic", "all"])
    @pytest.mark.parametrize("polish", [True, False])
    @pytest.mark.parametrize("rho", [0.0, 1.0], ids=["nominal", "robust"])
    def test_a_memoised_grid_returns_the_cold_result(self, rho, polish, policies):
        workload = expected_workload(11).workload
        cold = _cold(_tuner(rho, polish=polish, policies=policies), workload)
        hits = _memoised_grid.cache_info().hits
        warm = _tuner(rho, polish=polish, policies=policies).tune(workload)
        assert _memoised_grid.cache_info().hits == hits + 1
        _assert_same(warm, cold)

    def test_long_range_fractions_interleaved_on_one_system(self):
        cases = [
            (expected_workload(index).workload.with_long_range_fraction(nu), rho)
            for index in (1, 7, 11)
            for nu in (0.0, 0.3)
            for rho in (0.0, 0.5)
        ]
        fresh = [_cold(_tuner(rho), workload) for workload, rho in cases]
        _memoised_grid.cache_clear()
        for (workload, rho), expected in zip(cases, fresh):
            _assert_same(_tuner(rho).tune(workload), expected)
        assert _memoised_grid.cache_info().currsize == 2  # one grid per ν
        assert any(a.tuning != b.tuning for a, b in zip(fresh[::4], fresh[2::4]))


class TestMemoisedGrid:
    def test_every_array_is_read_only(self):
        tuner = _tuner(0.0)
        workload = expected_workload(4).workload
        grid = _memoised_grid(*tuner._grid_key(tuner.policy_specs, workload))
        fields = (getattr(grid, field.name) for field in dataclasses.fields(grid))
        arrays = [value for value in fields if isinstance(value, np.ndarray)]
        assert len(arrays) == 8
        for array in arrays:
            with pytest.raises(ValueError):
                array[...] = 0.0

    def test_holds_at_most_its_capacity(self):
        _memoised_grid.cache_clear()
        _tuner(1.0, policies=(Policy.FLUID,), k_vector_search=True).tune(
            expected_workload(4).workload
        )
        # The descent's one-policy re-searches price their own grids.
        assert _memoised_grid.cache_info().misses == 1
        workload = expected_workload(11).workload
        for step in range(_GRID_MEMO_SIZE + 2):
            _tuner(0.0).tune(workload.with_long_range_fraction(0.05 * step))
        info = _memoised_grid.cache_info()
        assert info.misses == _GRID_MEMO_SIZE + 3
        assert info.currsize == _GRID_MEMO_SIZE
