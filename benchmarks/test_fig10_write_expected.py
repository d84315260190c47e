"""Figure 10 — write-heavy expected workload, observed sessions close to ρ."""

import pytest
from conftest import run_once

from repro.analysis import format_comparison
from repro.workloads import Workload


def test_fig10_write_heavy_expected_workload(benchmark, system_experiment, report):
    # The paper uses the expected workload (10%, 10%, 10%, 70%) with rho = 0.5.
    expected = Workload(0.10, 0.10, 0.10, 0.70)
    comparison = run_once(
        benchmark,
        lambda: system_experiment.run(expected, rho=0.5, include_writes=True),
    )
    assert len(comparison.labels) == 6

    # A write-heavy expected workload leads both tunings to write-friendly
    # designs, so neither should collapse during the write session.
    write = comparison.labels.index("write")
    nominal_io = comparison.system_ios("nominal")[write]
    robust_io = comparison.system_ios("robust")[write]
    assert nominal_io == pytest.approx(robust_io, rel=2.0, abs=10.0)

    text = "fig10: expected workload (10%, 10%, 10%, 70%)\n" + format_comparison(comparison)
    report("fig10_write_expected", text)
    print("\n" + text)
