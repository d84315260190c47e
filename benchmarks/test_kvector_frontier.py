"""K-vector frontier — where a non-uniform per-level ladder beats every
uniform fluid hybrid.

Full Dostoevsky generality gives every upper level its own run bound
``K_i``.  The per-level trade-off is genuinely asymmetric: Monkey's bloom
allocation makes extra runs nearly free for point lookups on *shallow*
levels but expensive on *deep* ones, and the long-range scan worst case
charges extra runs in proportion to the level's capacity — deepest levels
dominate.  Writes, by contrast, are saved equally by a high bound on any
level.  On a write-heavy workload that still pays for point lookups and
long scans, the optimum is therefore a *front-loaded ladder* — tiered
shallow levels descending to leveled deep ones — which no uniform ``(K, Z)``
pair (hence no classical policy either) can represent.

The committed table doubles as the acceptance artefact: the
``write-point`` row pins a strict (>= 1.5%) win of the tuner-selected
non-uniform ladder over the best uniform fluid tuning, and the read-heavy /
write-only corner rows pin that the vector search recovers the uniform
optima (zero advantage) where uniformity is actually optimal.  A companion
check pins exact corner recovery when the vector search space is restricted
to uniform families.
"""

import numpy as np
from conftest import run_once

from repro.analysis import kvector_frontier
from repro.core import NominalTuner
from repro.lsm import CompactionPolicy, SystemConfig
from repro.workloads import Workload

#: Paper-default memory (10 bits/entry total) with a mild write asymmetry:
#: ample bloom memory is what makes shallow-level runs nearly free for reads
#: and the per-level trade-off non-uniform.
FRONTIER_SYSTEM = SystemConfig(read_write_asymmetry=2.0)

#: The checked-in workload set: ``write-point`` is the acceptance workload
#: (see module docstring); the corner rows pin uniform recovery.
FRONTIER_WORKLOADS = [
    ("write-point", Workload(0.05, 0.25, 0.05, 0.65, long_range_fraction=0.3)),
    ("write-scan", Workload(0.02, 0.38, 0.10, 0.50, long_range_fraction=0.5)),
    ("read-heavy", Workload(0.30, 0.45, 0.15, 0.10, long_range_fraction=0.1)),
    ("write-only", Workload(0.02, 0.03, 0.01, 0.94, long_range_fraction=0.0)),
]

#: Deployable integer size ratios swept by every tuner here.
RATIO_CANDIDATES = np.arange(2.0, 21.0)


def test_kvector_frontier_ladder_beats_best_uniform(benchmark, report):
    rows = run_once(
        benchmark,
        lambda: kvector_frontier(
            FRONTIER_WORKLOADS,
            system=FRONTIER_SYSTEM,
            ratio_candidates=RATIO_CANDIDATES,
        ),
    )
    assert len(rows) == len(FRONTIER_WORKLOADS)
    by_name = {row["workload"]: row for row in rows}

    # The vector family contains every uniform design, so the advantage can
    # never be negative.
    for row in rows:
        assert row["vector_advantage"] >= 0.0, row["workload"]

    # Acceptance pin: on the write-heavy point-lookup + long-scan workload
    # the tuner-selected per-level ladder strictly beats the BEST uniform
    # (K, Z) fluid tuning (>= 1.5%), and it does so with a genuinely
    # non-uniform, front-loaded (non-increasing, >1 -> 1) bound vector.
    pinned = by_name["write-point"]
    assert pinned["vector_cost"] < 0.985 * pinned["uniform_cost"]
    ladder = pinned["vector_k_bounds"]
    assert ladder is not None and len(set(ladder)) > 1, "must be non-uniform"
    assert ladder == sorted(ladder, reverse=True), "front-loaded ladder"
    assert ladder[0] > 1.0 and ladder[-1] == 1.0

    # The corners keep their uniform optima: where one shared bound is
    # optimal the vector search must not hallucinate structure.
    for corner in ("read-heavy", "write-only"):
        row = by_name[corner]
        assert row["vector_advantage"] <= 5e-4, corner
        bounds = row["vector_k_bounds"]
        assert bounds is None or len(set(bounds)) == 1, corner

    lines = [
        "K-vector frontier on the paper-default system "
        "(10 bits/entry memory, write cost 2x read): per-level K_i ladders "
        "vs the best uniform fluid (K, Z) tuning",
        "",
        f"{'workload':<12}{'composition':<46}{'uniform cost':>14}"
        f"{'vector cost':>14}{'advantage':>11}  "
        f"{'uniform tuning':<42}{'vector tuning (tuner-selected K_i)'}",
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<12}{row['composition']:<46}"
            f"{row['uniform_cost']:>14.4f}{row['vector_cost']:>14.4f}"
            f"{row['vector_advantage'] * 100:>10.2f}%  "
            f"{row['uniform_tuning']:<42}{row['vector_tuning']}"
        )
    text = "\n".join(lines)
    report("kvector_frontier", text)
    print("\n" + text)


def test_uniform_families_recover_the_scalar_corners_exactly():
    """Restricting the vector search space to uniform families reproduces
    every scalar (K, Z) fluid optimum exactly: same objective, same (T, h)."""
    workload = FRONTIER_WORKLOADS[0][1]
    for k, z in ((1.0, 1.0), (2.0, 1.0), (4.0, 2.0), (8.0, 8.0)):
        scalar_spec = CompactionPolicy.fluid((k,), z)
        uniform_spec = CompactionPolicy.fluid((k,) * 4, z)
        results = [
            NominalTuner(
                system=FRONTIER_SYSTEM,
                policies=(spec,),
                ratio_candidates=RATIO_CANDIDATES,
                seed=0,
            ).tune(workload)
            for spec in (scalar_spec, uniform_spec)
        ]
        scalar, uniform = results
        assert uniform.objective == scalar.objective, (k, z)
        assert uniform.tuning.size_ratio == scalar.tuning.size_ratio, (k, z)
        assert uniform.tuning.bits_per_entry == scalar.tuning.bits_per_entry, (k, z)
