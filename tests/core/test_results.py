"""Tests for the tuning-result container."""

from repro.core import TuningResult
from repro.lsm import LSMTuning, Policy
from repro.workloads import Workload


def _make_result(rho: float = 0.0) -> TuningResult:
    return TuningResult(
        tuning=LSMTuning(5.0, 4.0, Policy.LEVELING),
        objective=1.5,
        expected_workload=Workload.uniform(),
        rho=rho,
    )


class TestTuningResult:
    def test_solver_info_defaults_to_empty_dict(self):
        assert _make_result().solver_info == {}

    def test_is_frozen(self):
        result = _make_result()
        try:
            result.objective = 2.0
            mutated = True
        except AttributeError:
            mutated = False
        assert not mutated
