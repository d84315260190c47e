"""Property-based suite pinning the enlarged compaction-policy space.

The fluid LSM (per-level run bounds K/Z) and the short/long range-query
split enlarge the design space the model, simulator and tuners must agree
on.  This module pins the invariants that keep them consistent as the space
grows:

* **grid/point parity** — for every registered policy (and a spread of
  fluid ``(K, Z)`` bounds), a cell of the ``cost_matrix`` outer product
  equals the one-point ``cost_vector`` to 1e-9, at every long-range
  fraction (both read the one kernel, ``cost_points``, whose values
  ``tests/lsm/test_golden_costs.py`` pins);
* **positivity** — every cost component is positive and finite across the
  whole design box;
* **special-case recovery** — leveling, tiering and lazy leveling are exact
  (to 1e-12) corners of the fluid family (``K = Z = 1``,
  ``K = Z = T - 1``, ``K = T - 1, Z = 1``);
* **zero-weight guard** — a workload without range queries never evaluates
  the selectivity split into its cost, so a degenerate (infinite) range
  component cannot poison it via ``0 · inf`` (mirroring the robust dual's
  zero-weight fix of PR 1).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GridTuner, NominalTuner, RobustTuner
from repro.lsm import (
    ALL_POLICIES,
    NAMED_POLICIES,
    CompactionPolicy,
    LSMCostModel,
    LSMTuning,
    Policy,
    SystemConfig,
)
from repro.lsm.policy import stacked_run_bounds
from repro.workloads import Workload

_SYSTEM = SystemConfig()
_MODEL = LSMCostModel(_SYSTEM)

#: Fluid (K, Z) bounds exercised alongside the registered policies: the
#: three classical corners plus interior points (including bounds that get
#: clamped at small T).
_FLUID_BOUNDS: tuple[tuple[float, float], ...] = (
    (1.0, 1.0),
    (2.0, 1.0),
    (3.0, 2.0),
    (8.0, 4.0),
    (64.0, 1.0),
)

#: Per-level K_i vectors exercised alongside the scalar bounds: front-loaded
#: ladders, a single-level bump, and a vector that clamps at small T.
_FLUID_VECTORS: tuple[tuple[tuple[float, ...], float], ...] = (
    ((4.0, 2.0, 1.0), 1.0),
    ((2.0, 2.0, 1.0, 1.0), 2.0),
    ((1.0, 8.0, 1.0), 1.0),
    ((64.0, 16.0, 4.0, 1.0), 4.0),
)

#: Every policy the suite sweeps: one per registered name (the fluid entry
#: carrying its default bounds) plus the parameterised fluid variants above —
#: scalar (K, Z) pairs and per-level K_i vectors.
_ALL_SPECS: tuple[CompactionPolicy, ...] = (
    tuple(CompactionPolicy.of(policy) for policy in ALL_POLICIES)
    + tuple(CompactionPolicy.fluid((k,), z) for k, z in _FLUID_BOUNDS)
    + tuple(CompactionPolicy.fluid(vector, z) for vector, z in _FLUID_VECTORS)
)


def _spec_ids(spec: CompactionPolicy) -> str:
    return spec.name


def _tuning_of(spec: CompactionPolicy, size_ratio: float, bits: float) -> LSMTuning:
    return LSMTuning(size_ratio, bits, spec)


#: Seeded random design grid shared by the non-hypothesis parity sweeps.
_RNG = np.random.default_rng(20260729)
_RATIOS = np.sort(
    np.concatenate([[2.0], _RNG.uniform(2.0, _SYSTEM.max_size_ratio, size=9)])
)
_BITS = np.sort(
    np.concatenate(
        [[0.0], _RNG.uniform(0.0, _SYSTEM.max_bits_per_entry - 0.01, size=7)]
    )
)


class TestBatchScalarParity:
    @pytest.mark.parametrize("spec", _ALL_SPECS, ids=_spec_ids)
    @pytest.mark.parametrize("nu", [0.0, 0.35, 1.0])
    def test_cost_matrix_matches_scalar_costs(self, spec, nu):
        """`cost_matrix` == one-point `cost_vector` to 1e-9 on a random grid."""
        matrix = _MODEL.cost_matrix(_RATIOS, _BITS, spec, long_range_fraction=nu)
        for i, ratio in enumerate(_RATIOS):
            for j, bits in enumerate(_BITS):
                scalar = _MODEL.cost_vector(
                    _tuning_of(spec, float(ratio), float(bits)), nu
                )
                np.testing.assert_allclose(
                    matrix[i, j], scalar, atol=1e-9, rtol=1e-9,
                    err_msg=f"{spec.name} at T={ratio}, h={bits}, nu={nu}",
                )

    @pytest.mark.parametrize("spec", _ALL_SPECS, ids=_spec_ids)
    def test_costs_positive_and_finite(self, spec):
        for nu in (0.0, 0.5, 1.0):
            matrix = _MODEL.cost_matrix(_RATIOS, _BITS, spec, long_range_fraction=nu)
            assert np.all(matrix > 0.0), spec.name
            assert np.all(np.isfinite(matrix)), spec.name


class TestFluidSpecialCases:
    """Leveling / tiering / lazy leveling are exact corners of fluid."""

    size_ratios = st.floats(min_value=2.0, max_value=100.0, allow_nan=False)
    bits = st.floats(
        min_value=0.0, max_value=_SYSTEM.max_bits_per_entry - 0.01, allow_nan=False
    )
    nus = st.sampled_from([0.0, 0.25, 1.0])

    @given(size_ratio=size_ratios, bits=bits, nu=nus)
    @settings(max_examples=60, deadline=None)
    def test_k1_z1_is_exactly_leveling(self, size_ratio, bits, nu):
        fluid = LSMTuning(size_ratio, bits, CompactionPolicy.fluid((1,), 1))
        leveled = LSMTuning(size_ratio, bits, Policy.LEVELING)
        np.testing.assert_allclose(
            _MODEL.cost_vector(fluid, nu), _MODEL.cost_vector(leveled, nu), atol=1e-12
        )

    @given(size_ratio=size_ratios, bits=bits, nu=nus)
    @settings(max_examples=60, deadline=None)
    def test_k_z_tminus1_is_exactly_tiering(self, size_ratio, bits, nu):
        bound = size_ratio - 1.0
        fluid = LSMTuning(
            size_ratio, bits, CompactionPolicy.fluid((bound,), bound)
        )
        tiered = LSMTuning(size_ratio, bits, Policy.TIERING)
        np.testing.assert_allclose(
            _MODEL.cost_vector(fluid, nu), _MODEL.cost_vector(tiered, nu), atol=1e-12
        )

    @given(size_ratio=size_ratios, bits=bits, nu=nus)
    @settings(max_examples=60, deadline=None)
    def test_default_fluid_is_exactly_lazy_leveling(self, size_ratio, bits, nu):
        fluid = LSMTuning(size_ratio, bits, Policy.FLUID)  # K = T-1, Z = 1
        lazy = LSMTuning(size_ratio, bits, Policy.LAZY_LEVELING)
        np.testing.assert_allclose(
            _MODEL.cost_vector(fluid, nu), _MODEL.cost_vector(lazy, nu), atol=1e-12
        )

    @given(size_ratio=size_ratios, bits=bits)
    @settings(max_examples=40, deadline=None)
    def test_fluid_interpolates_between_its_corners(self, size_ratio, bits):
        """Interior K sits between the leveling and tiering corners on every
        cost component (reads increase with K, writes decrease)."""
        interior = CompactionPolicy.fluid((min(3.0, size_ratio - 1.0),), 1.0)
        # Levels 1..5 of a six-level tree, as the cost kernel reads them.
        runs = stacked_run_bounds([interior], np.full((1, 1), size_ratio), 6.0, 5)
        assert np.all(runs >= 1.0 - 1e-12)
        assert np.all(runs <= size_ratio - 1.0 + 1e-12)
        merges = (size_ratio - 1.0) / (runs + 1.0)
        assert np.all(merges <= (size_ratio - 1.0) / 2.0 + 1e-12)
        assert np.all(merges >= (size_ratio - 1.0) / size_ratio - 1e-12)


class TestRangeSplitProperties:
    @pytest.mark.parametrize("spec", _ALL_SPECS, ids=_spec_ids)
    def test_blend_is_monotone_between_the_regimes(self, spec):
        """Q(ν) is the convex blend of the short (ν = 0) and long (ν = 1)
        costs."""
        tuning = _tuning_of(spec, 8.0, 5.0)
        short = _MODEL.cost_vector(tuning, 0.0)[2]
        long = _MODEL.cost_vector(tuning, 1.0)[2]
        blended = _MODEL.cost_vector(tuning, 0.4)[2]
        assert blended == pytest.approx(0.6 * short + 0.4 * long, rel=1e-12)
        assert min(short, long) - 1e-12 <= blended <= max(short, long) + 1e-12

    def test_long_ranges_penalise_stacked_largest_levels(self):
        """The long-range worst case is what separates Z: tiering pays the
        multi-run largest level, lazy leveling and fluid (Z = 1) do not."""
        tiered = LSMTuning(8.0, 5.0, Policy.TIERING)
        lazy = LSMTuning(8.0, 5.0, Policy.LAZY_LEVELING)
        fluid = LSMTuning(8.0, 5.0, CompactionPolicy.fluid((7,), 1))
        long = {t: _MODEL.cost_vector(t, 1.0)[2] for t in (tiered, lazy, fluid)}
        assert long[tiered] > long[lazy]
        assert long[fluid] == pytest.approx(long[lazy], rel=1e-12)

    def test_zero_fraction_never_reads_the_long_range_selectivity(self):
        """ν = 0 is the pre-split cost: no long-range selectivity, however
        large, moves it by a bit."""
        scan_everything = LSMCostModel(replace(_SYSTEM, long_range_selectivity=1.0))
        for spec in _ALL_SPECS:
            tuning = _tuning_of(spec, 6.0, 4.0)
            assert scan_everything.cost_vector(tuning)[2] == _MODEL.cost_vector(tuning)[2]


class TestZeroWeightGuard:
    """A zero range weight must never evaluate — nor be poisoned by — the
    long-range selectivity split (the 0 · inf regression of the satellite)."""

    #: Workload with no range queries but a (vacuous) long-range fraction.
    _NO_RANGES = Workload(0.3, 0.3, 0.0, 0.4, long_range_fraction=0.9)

    def test_workload_cost_ignores_an_infinite_range_component(self, monkeypatch):
        tuning = LSMTuning(8.0, 5.0, CompactionPolicy.fluid((4,), 2))
        finite = _MODEL.workload_cost(self._NO_RANGES, tuning)
        priced = LSMCostModel.cost_vector

        def infinite_ranges(self, tuning, long_range_fraction=0.0):
            vector = priced(self, tuning, long_range_fraction).copy()
            vector[2] = float("inf")
            return vector

        monkeypatch.setattr(LSMCostModel, "cost_vector", infinite_ranges)
        guarded = _MODEL.workload_cost(self._NO_RANGES, tuning)
        assert np.isfinite(guarded)
        assert guarded == pytest.approx(finite, rel=1e-12)

    def test_cost_matrix_objectives_ignore_infinite_range_columns(self):
        costs = _MODEL.cost_matrix([4.0, 8.0], [3.0, 6.0], Policy.FLUID, 0.5)
        poisoned = costs.copy()
        poisoned[..., 2] = np.inf
        tuner = NominalTuner(system=_SYSTEM)
        objective = tuner._objective_from_costs(poisoned, self._NO_RANGES)
        assert np.all(np.isfinite(objective))
        np.testing.assert_allclose(
            objective, tuner._objective_from_costs(costs, self._NO_RANGES)
        )

    def test_robust_batch_objective_ignores_infinite_range_columns(self):
        costs = _MODEL.cost_matrix([4.0, 8.0], [3.0, 6.0], Policy.TIERING, 1.0)
        poisoned = costs.copy()
        poisoned[..., 2] = np.inf
        for rho in (0.0, 1.0):
            tuner = RobustTuner(rho=rho, system=_SYSTEM)
            objective = tuner._objective_from_costs(poisoned, self._NO_RANGES)
            assert np.all(np.isfinite(objective)), f"rho={rho}"

    def test_grid_tuner_objective_ignores_infinite_range_columns(self):
        costs = _MODEL.cost_matrix([4.0, 8.0], [3.0, 6.0], Policy.LEVELING, 1.0)
        poisoned = costs.copy()
        poisoned[..., 2] = np.inf
        tuner = GridTuner(system=_SYSTEM, bits_grid_points=3)
        values = tuner._objective_grid(self._NO_RANGES, poisoned)
        assert np.all(np.isfinite(values))

    def test_tuning_a_rangeless_long_fraction_workload_succeeds(self):
        """End to end: the tuner solves a q = 0 workload that still carries a
        long-range fraction, without the split ever firing."""
        result = NominalTuner(
            system=_SYSTEM,
            policies=(Policy.FLUID,),
            ratio_candidates=np.arange(2.0, 12.0),
            polish=False,
        ).tune(self._NO_RANGES)
        assert np.isfinite(result.objective)


class TestTunerConsistencyAcrossPolicies:
    """The fluid family is a superset: its tuned optimum can never be worse
    than any policy it contains, for any workload (model-level dominance)."""

    workloads = [
        Workload(0.25, 0.25, 0.25, 0.25),
        Workload(0.1, 0.2, 0.3, 0.4, long_range_fraction=0.5),
        Workload(0.05, 0.15, 0.05, 0.75, long_range_fraction=0.2),
    ]

    @pytest.mark.parametrize("index", range(len(workloads)))
    def test_fluid_dominates_its_corners(self, index):
        workload = self.workloads[index]
        cands = np.arange(2.0, 21.0)
        costs = {}
        for policy in (Policy.LEVELING, Policy.TIERING, Policy.LAZY_LEVELING,
                       Policy.FLUID):
            costs[policy] = NominalTuner(
                system=_SYSTEM,
                policies=(policy,),
                ratio_candidates=cands,
                polish=False,
            ).tune(workload).objective
        for corner in (Policy.LEVELING, Policy.TIERING, Policy.LAZY_LEVELING):
            assert costs[Policy.FLUID] <= costs[corner] * (1.0 + 1e-8)

    @pytest.mark.parametrize("index", range(len(workloads)))
    def test_vector_search_dominates_the_uniform_sweep(self, index):
        """The K_i vector family contains every uniform (K, Z) design, so
        the vector-search optimum can never lose to the scalar sweep."""
        workload = self.workloads[index]
        cands = np.arange(2.0, 13.0)
        uniform = NominalTuner(
            system=_SYSTEM,
            policies=(Policy.FLUID,),
            ratio_candidates=cands,
            polish=False,
        ).tune(workload).objective
        vector = NominalTuner(
            system=_SYSTEM,
            policies=(Policy.FLUID,),
            ratio_candidates=cands,
            polish=False,
            k_vector_search=True,
        ).tune(workload).objective
        assert vector <= uniform * (1.0 + 1e-8)


#: Scalar fluid (K, Z) corner pairs whose uniform-vector twins must behave
#: identically: the classical corners plus interior and clamping points.
_CORNER_PAIRS: tuple[tuple[float, float], ...] = (
    (1.0, 1.0),  # leveling
    (2.0, 1.0),
    (3.0, 2.0),
    (7.0, 1.0),  # lazy leveling at T = 8
    (7.0, 7.0),  # tiering at T = 8
    (64.0, 4.0),  # clamps everywhere on the grid
)


def _fluid_twin(policy: Policy, size_ratio: float, bits: float) -> LSMTuning:
    """The fluid tuning spelling out a named policy's bounds at ``size_ratio``."""
    cap = size_ratio - 1.0
    k_bounds, z = {
        Policy.LEVELING: ((1.0,), 1.0),
        Policy.TIERING: ((cap,), cap),
        Policy.LAZY_LEVELING: ((cap,), 1.0),
        Policy.ONE_LEVELING: ((1.0, cap), cap),
    }[policy]
    return LSMTuning(size_ratio, bits, CompactionPolicy.fluid(k_bounds, z))


def _twin_pairs(corners, named):
    """``pytest.param`` pairs of tunings that must drive the simulator
    identically at ``T = 6, h = 6``: each scalar ``(K, Z)`` with its
    uniform-vector twin, and each named policy with its fluid twin."""
    pairs = [
        pytest.param(
            LSMTuning(6.0, 6.0, CompactionPolicy.fluid((k,), z)),
            LSMTuning(6.0, 6.0, CompactionPolicy.fluid((k,) * 6, z)),
            id=f"K={k:g},Z={z:g}",
        )
        for k, z in corners
    ]
    pairs += [
        pytest.param(
            LSMTuning(6.0, 6.0, policy), _fluid_twin(policy, 6.0, 6.0), id=policy.value
        )
        for policy in named
    ]
    return pairs


def _replay(tuning: LSMTuning, num_entries: int, puts: int, gets: int, key_span: int):
    """Bulk-load a seeded tree, then drive ``puts`` updates/inserts and
    ``gets`` lookups of keys drawn from ``[0, key_span)`` through it; returns
    the I/O counters of the stream and the final run layout."""
    from repro.lsm import simulator_system
    from repro.storage import LSMTree
    from repro.workloads import KeySpace

    system = simulator_system(num_entries=num_entries)
    tree = LSMTree(tuning, system, seed=5)
    tree.bulk_load(KeySpace.build(system.num_entries, seed=11).existing)
    tree.disk.reset()
    rng = np.random.default_rng(3)
    for key in rng.integers(0, key_span, size=puts):
        tree.put(int(key))
    for key in rng.integers(0, key_span, size=gets):
        tree.get(int(key))
    shape = [
        (np.asarray(r.keys).tobytes(), r.num_pages) for runs in tree.levels for r in runs
    ]
    return tree.disk.snapshot(), shape


class TestUniformVectorCornerRecovery:
    """Exact-corner acceptance: uniform K_i vectors reproduce every scalar
    fluid tuning — and through them leveling / tiering / lazy leveling — to
    1e-12 in ``cost_matrix`` and *bit-identically* in the simulator
    (bulk-load bytes and Bloom filter bits)."""

    @pytest.mark.parametrize("k,z", _CORNER_PAIRS)
    @pytest.mark.parametrize("nu", [0.0, 0.35])
    def test_uniform_vector_cost_matrix_matches_scalar_to_1e12(self, k, z, nu):
        scalar = CompactionPolicy.fluid((k,), z)
        vector = CompactionPolicy.fluid((k,) * 6, z)
        np.testing.assert_allclose(
            _MODEL.cost_matrix(_RATIOS, _BITS, vector, long_range_fraction=nu),
            _MODEL.cost_matrix(_RATIOS, _BITS, scalar, long_range_fraction=nu),
            rtol=0.0,
            atol=1e-12,
        )

    @pytest.mark.parametrize("policy", NAMED_POLICIES, ids=lambda policy: policy.value)
    @pytest.mark.parametrize("nu", [0.0, 1.0])
    def test_fluid_twins_recover_the_named_policies(self, policy, nu):
        np.testing.assert_allclose(
            _MODEL.cost_vector(_fluid_twin(policy, 8.0, 5.0), nu),
            _MODEL.cost_vector(LSMTuning(8.0, 5.0, policy), nu),
            rtol=0.0,
            atol=1e-12,
        )

    @pytest.mark.parametrize("reference,twin", _twin_pairs(_CORNER_PAIRS, NAMED_POLICIES))
    def test_simulator_bulk_load_is_bit_identical(self, reference, twin):
        """Same seed, a tuning vs its twin (scalar vs uniform vector, named
        policy vs the fluid spelling of its bounds): identical run keys,
        identical page counts, identical Bloom filter bits."""
        from repro.lsm import simulator_system
        from repro.storage import LSMTree
        from repro.workloads import KeySpace

        system = simulator_system(num_entries=2_000)
        keys = KeySpace.build(system.num_entries, seed=11).existing

        def load(tuning: LSMTuning) -> LSMTree:
            tree = LSMTree(tuning, system, seed=5)
            tree.bulk_load(keys)
            return tree

        want_tree, got_tree = load(reference), load(twin)
        assert len(want_tree.levels) == len(got_tree.levels)
        for got, want in zip(got_tree.levels, want_tree.levels):
            assert len(got) == len(want)
            for got_run, want_run in zip(got, want):
                assert np.array_equal(got_run.keys, want_run.keys)
                assert got_run.num_pages == want_run.num_pages
                assert got_run.bits_per_entry == want_run.bits_per_entry
                assert np.array_equal(
                    got_run.bloom_filter.bit_table, want_run.bloom_filter.bit_table
                ), "Bloom assignments must be byte-identical"

    @pytest.mark.parametrize(
        "reference,twin",
        _twin_pairs([(1.0, 1.0), (3.0, 2.0), (7.0, 7.0)], [Policy.LEVELING]),
    )
    def test_simulator_write_stream_is_bit_identical(self, reference, twin):
        """Beyond the load: an identical write/read stream drives a tuning
        and its twin through identical compactions and I/O.  Of the named
        policies only leveling is here — every level merges on arrival, so
        spilling vs merging in place never comes up; see the next test."""
        assert _replay(reference, 2_000, 2_000, 0, 4_000) == _replay(
            twin, 2_000, 2_000, 0, 4_000
        )

    @pytest.mark.parametrize(
        "tuning,recorded",
        [
            (LSMTuning(4.0, 6.0, Policy.LEVELING), (4345, 55726, 54046, 4992)),
            (LSMTuning(4.0, 6.0, Policy.TIERING), (4907, 24681, 23799, 4992)),
            (LSMTuning(4.0, 6.0, Policy.LAZY_LEVELING), (4876, 24755, 23917, 4992)),
            (LSMTuning(4.0, 6.0, Policy.ONE_LEVELING), (4924, 30921, 30039, 4992)),
            (_fluid_twin(Policy.TIERING, 4.0, 6.0), (4753, 27649, 26116, 4992)),
        ],
        ids=["leveling", "tiering", "lazy-leveling", "1-leveling", "fluid[K=3,Z=3]"],
    )
    def test_update_stream_replays_the_recorded_counters(self, tuning, recorded):
        """Golden ``(query_reads, compaction_reads, compaction_writes,
        flush_writes)`` of 20 000 uniform updates + 5 000 gets on a 20 000
        entry tree, recorded while the named policies were still classes of
        their own.  Tiering is *not* its fluid twin here: at the same bounds
        a fluid level below capacity merges in place where tiering spills,
        which is why ``in_place`` is data on the policy value."""
        counters, _ = _replay(tuning, 20_000, 20_000, 5_000, 20_000)
        assert (
            counters.query_reads,
            counters.compaction_reads,
            counters.compaction_writes,
            counters.flush_writes,
        ) == recorded


class TestNonUniformVectorBehaviour:
    """Non-uniform vectors genuinely change per-level behaviour — this is
    what the refactor buys, so pin it from both sides."""

    def test_front_loaded_ladder_sits_between_its_uniform_envelopes(self):
        """A ladder's write cost lies between the uniform vectors of its
        smallest and largest bound; its read costs likewise."""
        ladder = LSMTuning(8.0, 5.0, CompactionPolicy.fluid((4.0, 2.0, 1.0)))
        low = LSMTuning(8.0, 5.0, CompactionPolicy.fluid((1.0,)))
        high = LSMTuning(8.0, 5.0, CompactionPolicy.fluid((4.0,)))
        for component in range(4):
            lo = min(
                _MODEL.cost_vector(low, 0.5)[component],
                _MODEL.cost_vector(high, 0.5)[component],
            )
            hi = max(
                _MODEL.cost_vector(low, 0.5)[component],
                _MODEL.cost_vector(high, 0.5)[component],
            )
            value = _MODEL.cost_vector(ladder, 0.5)[component]
            assert lo - 1e-12 <= value <= hi + 1e-12

    def test_simulator_honours_per_level_triggers(self):
        from repro.lsm import simulator_system
        from repro.storage import LSMTree
        from repro.workloads import KeySpace

        system = simulator_system(num_entries=3_000)
        keys = KeySpace.build(system.num_entries, seed=11).existing
        tuning = LSMTuning(
            5.0, 6.0, CompactionPolicy.fluid((4.0, 2.0, 1.0), 1.0)
        )
        tree = LSMTree(tuning, system, seed=5)
        tree.bulk_load(keys)
        rng = np.random.default_rng(3)
        for key in rng.integers(0, 2 * system.num_entries, size=4_000):
            tree.put(int(key))
        stats = tree.stats()
        caps = [
            tree.compaction.max_resident_runs(
                tree.size_ratio, level, stats.num_levels
            )
            for level in range(1, stats.num_levels + 1)
        ]
        assert all(
            runs <= cap for runs, cap in zip(stats.runs_per_level, caps)
        ), (stats.runs_per_level, caps)
        # The per-level caps genuinely differ (this is not a uniform tree).
        assert len(set(caps[:-1])) > 1

    def test_bulk_load_splits_runs_per_level(self):
        from repro.lsm import simulator_system
        from repro.storage import LSMTree
        from repro.workloads import KeySpace

        system = simulator_system(num_entries=3_000)
        keys = KeySpace.build(system.num_entries, seed=11).existing
        tuning = LSMTuning(
            4.0, 6.0, CompactionPolicy.fluid((3.0, 1.0), 1.0)
        )
        tree = LSMTree(tuning, system, seed=5)
        tree.bulk_load(keys)
        stats = tree.stats()
        last = stats.num_levels
        for level, runs in enumerate(stats.runs_per_level, start=1):
            cap = tree.compaction.max_resident_runs(tree.size_ratio, level, last)
            assert runs <= cap, (level, runs, cap)
        # Level 2 onwards is leveled (bound 1): a single run each.
        assert all(runs <= 1 for runs in stats.runs_per_level[1:])
