"""Figure 18 — system sequences for the trimodal workloads w12–w14."""

import pytest

from _system_figures import run_system_figure

#: (figure name, Table 2 index, rho) following the paper's observed divergences.
_CASES = [
    ("fig18_w12_trimodal", 12, 0.4),
    ("fig18_w13_trimodal", 13, 0.6),
    ("fig18_w14_trimodal", 14, 0.6),
]


@pytest.mark.parametrize("name,index,rho", _CASES)
def test_fig18_trimodal_workloads(benchmark, system_experiment, report, name, index, rho):
    comparison = run_system_figure(
        benchmark,
        system_experiment,
        report,
        name=name,
        expected_index=index,
        rho=rho,
        include_writes=True,
    )
    # All sessions must produce finite, sensible measurements under both
    # tunings; the model/system ordering check lives in the shared driver.
    for name in ("nominal", "robust"):
        assert all(0.0 <= ios < 1e4 for ios in comparison.system_ios(name))
