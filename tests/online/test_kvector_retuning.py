"""Vector tunings through the online subsystem.

The online stack serialises tunings at two seams — the retuning decision
(JSON events) and the migration target — so per-level ``k_bounds`` vectors
must survive both.  The heavyweight migration invariants for vector targets
live in ``tests/test_migration_properties.py``; here a pinned vector policy's
proposal and its deployment are.
"""

from __future__ import annotations

import json

import numpy as np

from repro.lsm import CompactionPolicy, LSMTuning, Policy, simulator_system
from repro.online import AdaptiveTuner, OnlineConfig, OnlineLSMController
from repro.storage import LSMTree
from repro.workloads import KeySpace, Workload

_SYSTEM = simulator_system(num_entries=3_000)


class TestAdaptiveTunerVectors:
    def test_online_retunings_search_scalar_bounds(self):
        """The online loop has no K-vector switch: only a pinned vector
        policy (below) proposes a vector."""
        tuner = AdaptiveTuner(_SYSTEM, OnlineConfig(mode="robust"), (Policy.FLUID,))
        assert not tuner.tuner.k_vector_search
        assert not tuner._tuner_for(1.5).k_vector_search

    def test_pinned_vector_policy_proposes_a_vector_tuning(self):
        spec = CompactionPolicy.fluid((4.0, 2.0, 1.0), 1.0)
        tuner = AdaptiveTuner(_SYSTEM, OnlineConfig(mode="nominal"), (spec,))
        observed = Workload(0.05, 0.25, 0.05, 0.65)
        current = LSMTuning(10.0, 8.0, Policy.LEVELING)
        decision = tuner.retune(observed, current, resident_pages=1_000)
        assert decision.proposed.policy is Policy.FLUID
        assert decision.proposed.k_bounds is not None
        # Deployable: rounded() already applied by retune.
        cap = decision.proposed.size_ratio - 1.0
        assert all(1.0 <= b <= max(cap, 1.0) for b in decision.proposed.k_bounds)

    def test_decision_with_vector_proposal_is_json_serialisable(self):
        spec = CompactionPolicy.fluid((4.0, 2.0, 1.0), 1.0)
        tuner = AdaptiveTuner(_SYSTEM, OnlineConfig(mode="nominal"), (spec,))
        decision = tuner.retune(
            Workload(0.05, 0.25, 0.05, 0.65),
            LSMTuning(10.0, 8.0, Policy.LEVELING),
            resident_pages=1_000,
        )
        payload = json.loads(json.dumps(decision.to_dict()))
        restored = LSMTuning.from_dict(payload["proposed"])
        assert restored == decision.proposed


class TestControllerThreading:
    def test_full_migration_deploys_a_vector_tuning(self):
        """An in-place rebuild towards a vector tuning leaves the live tree
        under the vector bounds, still serving reads."""
        keys = KeySpace.build(_SYSTEM.num_entries, seed=11).existing
        tree = LSMTree(LSMTuning(10.0, 8.0, Policy.LEVELING), _SYSTEM, seed=5)
        tree.bulk_load(keys)
        controller = OnlineLSMController(
            tree=tree,
            expected=Workload(0.25, 0.25, 0.25, 0.25),
        )
        target = LSMTuning(
            5.0, 6.0, Policy.FLUID, k_bounds=(4.0, 2.0, 1.0), z_bound=1.0
        )
        read_pages, write_pages, _ = controller._migrate(target)
        assert read_pages > 0 and write_pages > 0
        assert controller.tree.tuning.k_bounds == (4.0, 2.0, 1.0)
        probes = np.random.default_rng(7).choice(keys, size=50, replace=False)
        assert all(controller.tree.get(int(key)) for key in probes)
