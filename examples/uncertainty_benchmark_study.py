#!/usr/bin/env python3
"""Model-based study over the uncertainty benchmark (a miniature Section 7).

Reproduces, at reduced scale, the paper's model-based evaluation: for a few
expected workloads it computes nominal and robust tunings across several
uncertainty radii and reports the average delta throughput and the throughput
range over a sampled benchmark of noisy workloads.

Run with::

    python examples/uncertainty_benchmark_study.py
"""

from __future__ import annotations

import numpy as np

from repro import SystemConfig, UncertaintyBenchmark
from repro.analysis import TuningCatalog, delta_throughputs, throughput_range
from repro.workloads import expected_workload

#: Expected workloads studied here (uniform, bimodal, trimodal).
WORKLOAD_INDICES = (0, 7, 11)

#: Uncertainty radii to sweep.
RHOS = (0.25, 1.0, 2.0)


def main() -> None:
    # One throughput vector 1/C(w, Φ) over the benchmark per tuning, cached.
    catalog = TuningCatalog(
        system=SystemConfig(), benchmark=UncertaintyBenchmark(size=500, seed=7)
    )

    print("Average delta throughput and throughput range over 500 noisy workloads\n")
    header = f"{'workload':<10}{'rho':<6}{'nominal tuning':<30}{'robust tuning':<30}" \
             f"{'mean delta':<12}{'theta nominal':<15}{'theta robust':<15}"
    print(header)
    print("-" * len(header))

    for index in WORKLOAD_INDICES:
        expected = expected_workload(index)
        nominal = catalog.nominal(expected).tuning
        nominal_tp = catalog.throughputs(expected)
        nominal_range = throughput_range(nominal_tp)
        for rho in RHOS:
            robust = catalog.robust(expected, rho).tuning
            robust_tp = catalog.throughputs(expected, rho)
            delta = float(np.mean(delta_throughputs(nominal_tp, robust_tp)))
            robust_range = throughput_range(robust_tp)
            print(
                f"{expected.name:<10}{rho:<6g}{nominal.describe():<30}"
                f"{robust.describe():<30}{delta:<12.3f}"
                f"{nominal_range:<15.3f}{robust_range:<15.3f}"
            )
        print()

    print(
        "Reading the table: positive 'mean delta' means the robust tuning delivers\n"
        "higher throughput than the nominal one on average across noisy workloads;\n"
        "a smaller 'theta' means more consistent performance (Figure 4 and 6b)."
    )


if __name__ == "__main__":
    main()
