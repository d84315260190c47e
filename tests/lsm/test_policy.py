"""Tests for the policy names and the one `CompactionPolicy` value."""

import math

import numpy as np
import pytest

from repro.lsm import (
    ALL_POLICIES,
    CLASSIC_POLICIES,
    NAMED_POLICIES,
    CompactionPolicy,
    LSMTuning,
    Policy,
    expand_policy_specs,
    fluid_vector_specs,
    halving_ladder,
)
from repro.lsm.policy import stacked_run_bounds

of = CompactionPolicy.of
fluid = CompactionPolicy.fluid


def _runs(policy, size_ratio, num_levels):
    """The model's runs at levels ``1..L`` of a tree ``num_levels`` deep: the
    bounds the cost kernel reads, for a scalar ``T`` or a ``(n, 1)`` column."""
    ratio = np.asarray(size_ratio, dtype=float)
    ratio = ratio.reshape((1,) + ratio.shape[:-1] + (1,))
    return stacked_run_bounds([policy], ratio, float(num_levels), int(num_levels))[0]


def _merges(policy, size_ratio, num_levels):
    """The kernel's per-level merge amortisation ``(T-1)/(K_i+1)``."""
    return (np.asarray(size_ratio) - 1.0) / (_runs(policy, size_ratio, num_levels) + 1.0)


class TestPolicyFromValue:
    def test_accepts_enum_member(self):
        assert Policy.from_value(Policy.LEVELING) is Policy.LEVELING

    def test_accepts_canonical_strings(self):
        assert Policy.from_value("leveling") is Policy.LEVELING
        assert Policy.from_value("tiering") is Policy.TIERING
        assert Policy.from_value("lazy-leveling") is Policy.LAZY_LEVELING

    def test_accepts_aliases(self):
        assert Policy.from_value("level") is Policy.LEVELING
        assert Policy.from_value("leveled") is Policy.LEVELING
        assert Policy.from_value("L") is Policy.LEVELING
        assert Policy.from_value("tier") is Policy.TIERING
        assert Policy.from_value("tiered") is Policy.TIERING
        assert Policy.from_value("T") is Policy.TIERING
        assert Policy.from_value("lazy") is Policy.LAZY_LEVELING
        assert Policy.from_value("lazy_leveling") is Policy.LAZY_LEVELING
        assert Policy.from_value("ll") is Policy.LAZY_LEVELING
        assert Policy.from_value("one-leveling") is Policy.ONE_LEVELING
        assert Policy.from_value("1leveling") is Policy.ONE_LEVELING
        assert Policy.from_value("1l") is Policy.ONE_LEVELING
        assert Policy.from_value("k-hybrid") is Policy.FLUID
        assert Policy.from_value("fluid-lsm") is Policy.FLUID
        assert Policy.from_value("f") is Policy.FLUID

    def test_is_case_insensitive(self):
        assert Policy.from_value("LEVELING") is Policy.LEVELING
        assert Policy.from_value("Tiering") is Policy.TIERING
        assert Policy.from_value("Lazy-Leveling") is Policy.LAZY_LEVELING

    def test_strips_whitespace(self):
        assert Policy.from_value("  leveling  ") is Policy.LEVELING

    def test_rejects_unknown_string(self):
        with pytest.raises(ValueError):
            Policy.from_value("fifo")

    def test_rejects_non_string(self):
        with pytest.raises(TypeError):
            Policy.from_value(42)


class TestPolicyCollection:
    def test_all_policies_has_every_member(self):
        assert set(ALL_POLICIES) == set(Policy)

    def test_all_policies_order_is_stable(self):
        assert ALL_POLICIES[0] is Policy.LEVELING
        assert ALL_POLICIES[1] is Policy.TIERING
        assert ALL_POLICIES[2] is Policy.LAZY_LEVELING
        assert ALL_POLICIES[3] is Policy.ONE_LEVELING
        assert ALL_POLICIES[4] is Policy.FLUID

    def test_classic_policies_is_the_paper_pair(self):
        assert CLASSIC_POLICIES == (Policy.LEVELING, Policy.TIERING)

    def test_str_rendering(self):
        """Outputs render a policy by its value, not by the enum member."""
        assert CompactionPolicy.of(Policy.LEVELING).name == "leveling"
        assert CompactionPolicy.of(Policy.TIERING).name == "tiering"
        assert CompactionPolicy.of(Policy.LAZY_LEVELING).name == "lazy-leveling"
        text = LSMTuning(8.0, 4.0, Policy.LAZY_LEVELING).describe()
        assert text.startswith("π: lazy-leveling,")

    def test_value_round_trip(self):
        for policy in ALL_POLICIES:
            assert Policy.from_value(policy.value) is policy


#: Closed forms of the classical policies: ``(runs, merges)`` as functions of ``T``.
_LEVELED = (np.ones_like, lambda t: (t - 1.0) / 2.0)
_TIERED = (lambda t: t - 1.0, lambda t: (t - 1.0) / t)


def _level_is_leveled(policy: Policy, level: int, num_levels: int) -> bool:
    return {
        Policy.LEVELING: True,
        Policy.TIERING: False,
        Policy.LAZY_LEVELING: level >= num_levels,
        Policy.ONE_LEVELING: level <= 1,
    }[policy]


class TestNamedPolicies:
    def test_the_table_has_one_row_per_classical_name(self):
        assert set(NAMED_POLICIES) == set(ALL_POLICIES) - {Policy.FLUID}
        for policy, value in NAMED_POLICIES.items():
            assert of(policy) is value is of(policy.value)
            assert value.policy is policy
            assert value.name == policy.value
            assert not value.in_place
        assert of("tiered") is NAMED_POLICIES[Policy.TIERING]
        assert of(Policy.FLUID) == fluid() and fluid().in_place

    @pytest.mark.parametrize("policy", NAMED_POLICIES, ids=lambda policy: policy.value)
    @pytest.mark.parametrize("num_levels", [1, 2, 5])
    @pytest.mark.parametrize(
        "size_ratio",
        [2.0, 5.0, 2.3, 7.75, np.array([[2.0], [3.5], [8.0], [40.0]])],
        ids=["T=2", "T=5", "T=2.3", "T=7.75", "broadcast"],
    )
    def test_analytics_equal_the_closed_forms_bit_for_bit(
        self, policy, num_levels, size_ratio
    ):
        """1, T-1, (T-1)/2 and (T-1)/T exactly — integer and fractional T,
        scalar and broadcast; at L = 1 the two hybrids are plain leveling."""
        runs = _runs(of(policy), size_ratio, num_levels)
        merges = _merges(of(policy), size_ratio, num_levels)
        assert runs.shape == merges.shape == np.shape(size_ratio)[:-1] + (num_levels,)
        ratios = np.ravel(size_ratio)
        for level in range(1, num_levels + 1):
            leveled = _level_is_leveled(policy, level, num_levels)
            want_runs, want_merges = _LEVELED if leveled else _TIERED
            np.testing.assert_array_equal(runs[..., level - 1], want_runs(ratios))
            np.testing.assert_array_equal(merges[..., level - 1], want_merges(ratios))

    def test_values_are_hashable_and_validated(self):
        assert hash(fluid((4, 2, 1), 2)) == hash(fluid([4.0, 2.0, 1.0], 2.0))
        assert fluid([4, 2]).bounds == (4.0, 2.0)
        with pytest.raises(ValueError):
            fluid(())
        with pytest.raises(ValueError):
            fluid((2.0, 0.5))
        with pytest.raises(ValueError):
            fluid((2.0,), 0.0)

    def test_names_are_stable(self):
        assert of(Policy.LEVELING).name == "leveling"
        assert fluid().name == "fluid[K=T-1,Z=1]"
        assert fluid((4,), 1).name == "fluid[K=4,Z=1]"
        assert fluid((4.0, 2.0, 1.0), 2.0).name == "fluid[K=(4,2,1),Z=2]"


class TestAnalyticalQuantities:
    """The per-level bounds the cost kernel reads, and the merge
    amortisation its ``W`` line derives from them."""

    def test_lazy_leveling_mixes_both(self):
        runs = _runs(of(Policy.LAZY_LEVELING), 7.0, 5)
        assert np.all(runs[:-1] == 6.0)
        assert runs[-1] == 1.0

    def test_one_leveling_levels_only_the_first(self):
        one = of(Policy.ONE_LEVELING)
        runs = _runs(one, 7.0, 5)
        assert runs[0] == 1.0
        assert np.all(runs[1:] == 6.0)
        merges = _merges(one, 8.0, 5)
        assert merges[0] == pytest.approx(3.5)
        assert np.allclose(merges[1:], 7.0 / 8.0)

    def test_quantities_broadcast_over_size_ratio_grids(self):
        ratios = np.array([2.0, 5.0, 10.0]).reshape(-1, 1)
        for policy in ALL_POLICIES:
            runs = _runs(of(policy), ratios, 5)
            merges = _merges(of(policy), ratios, 5)
            assert runs.shape == (3, 5)
            assert merges.shape == (3, 5)

    def test_fluid_runs_follow_the_bounds(self):
        runs = _runs(fluid((3,), 2), 7.0, 5)
        assert np.all(runs[:-1] == 3.0)
        assert runs[-1] == 2.0

    def test_fluid_merges_interpolate_the_classical_formulas(self):
        merges = _merges(fluid((3,), 1), 9.0, 5)
        assert np.allclose(merges[:-1], 8.0 / 4.0)
        assert merges[-1] == pytest.approx(4.0)

    def test_bounds_clamp_to_the_feasible_range(self):
        runs = _runs(fluid((64,), 16), 5.0, 5)
        assert np.all(runs == 4.0)  # clamped to T - 1

    def test_runs_read_the_vector(self):
        runs = _runs(fluid((4.0, 2.0, 1.0)), 8.0, 5)
        # Levels 1..3 read the vector, level 4 reuses the last element,
        # level 5 (largest) reads Z = 1.
        np.testing.assert_allclose(runs, [4.0, 2.0, 1.0, 1.0, 1.0])

    def test_merges_read_the_vector(self):
        merges = _merges(fluid((3.0, 1.0), 1.0), 8.0, 4)
        np.testing.assert_allclose(merges, [7.0 / 4.0, 7.0 / 2.0, 7.0 / 2.0, 7.0 / 2.0])

    def test_vector_clamps_per_level_to_the_feasible_range(self):
        runs = _runs(fluid((64.0, 2.0)), 4.0, 3)
        np.testing.assert_allclose(runs, [3.0, 2.0, 1.0])  # 64 capped at T - 1

    def test_uniform_vector_matches_the_scalar_everywhere(self):
        scalar = fluid((3.0,), 2.0)
        vector = fluid((3.0,) * 8, 2.0)
        ratios = np.array([2.0, 3.5, 8.0, 40.0]).reshape(-1, 1)
        np.testing.assert_array_equal(_runs(scalar, ratios, 6), _runs(vector, ratios, 6))
        np.testing.assert_array_equal(_merges(scalar, ratios, 6), _merges(vector, ratios, 6))

    def test_without_z_the_largest_level_reads_its_own_bound(self):
        no_z = CompactionPolicy(Policy.FLUID, (4.0, 2.0), in_place=True)
        np.testing.assert_array_equal(_runs(no_z, 8.0, 3), [4.0, 2.0, 2.0])
        assert no_z.max_resident_runs(8, 3, 3) == 2


class TestRuntimeHooks:
    def test_leveling_always_merges_on_arrival(self):
        assert of(Policy.LEVELING).merges_on_arrival(1, 4)
        assert of(Policy.LEVELING).merges_on_arrival(4, 4)

    def test_tiering_never_merges_on_arrival(self):
        assert not of(Policy.TIERING).merges_on_arrival(1, 4)
        assert not of(Policy.TIERING).merges_on_arrival(4, 4)

    def test_lazy_leveling_merges_only_on_the_last_level(self):
        lazy = of(Policy.LAZY_LEVELING)
        assert not lazy.merges_on_arrival(1, 4)
        assert not lazy.merges_on_arrival(3, 4)
        assert lazy.merges_on_arrival(4, 4)
        assert lazy.merges_on_arrival(5, 4)

    def test_one_leveling_merges_only_on_the_first_level(self):
        one = of(Policy.ONE_LEVELING)
        assert one.merges_on_arrival(1, 4)
        assert not one.merges_on_arrival(2, 4)
        assert not one.merges_on_arrival(4, 4)
        # A single-level tree degenerates to plain leveling.
        assert one.merges_on_arrival(1, 1)

    def test_stacking_levels_trigger_at_t_minus_one(self):
        """The trigger of every level that does *not* merge on arrival (the
        only levels the tree asks about) tracks the size ratio."""
        for policy in ALL_POLICIES:
            value = of(policy)
            for level in (1, 2, 4):
                if not value.merges_on_arrival(level, 4):
                    assert value.max_resident_runs(5, level, 4) == 4
                    assert value.max_resident_runs(2, level, 4) == 1

    def test_the_largest_level_answers_with_z_not_k(self):
        """`level` and `last_level` are required: omitting `last_level` used
        to answer the largest level's trigger with K instead of Z."""
        policy = fluid((3,), 2)
        assert policy.max_resident_runs(8, 4, 4) == 2
        with pytest.raises(TypeError):
            policy.max_resident_runs(8)
        with pytest.raises(TypeError):
            policy.max_resident_runs(8, 4)

    def test_fluid_merges_on_arrival_tracks_unit_bounds(self):
        assert fluid((1,), 1).merges_on_arrival(1, 4)
        assert fluid((1,), 1).merges_on_arrival(4, 4)
        assert not fluid((3,), 1).merges_on_arrival(1, 4)
        assert fluid((3,), 1).merges_on_arrival(4, 4)
        assert not fluid((3,), 2).merges_on_arrival(4, 4)
        # The default fluid value is lazy-leveling shaped: tiered upper
        # levels, one leveled run at the largest.
        assert not fluid().merges_on_arrival(1, 4)
        assert fluid().merges_on_arrival(4, 4)

    def test_fluid_per_level_run_triggers(self):
        policy = fluid((3,), 2)
        assert policy.max_resident_runs(8, level=1, last_level=4) == 3
        assert policy.max_resident_runs(8, level=4, last_level=4) == 2
        # Bounds clamp to the feasible [1, T-1] range.
        assert policy.max_resident_runs(3, level=1, last_level=4) == 2
        assert policy.max_resident_runs(2, level=1, last_level=4) == 1
        assert fluid((64,)).max_resident_runs(5, 1, 4) == 4

    def test_vector_hooks_answer_per_level(self):
        policy = fluid((4.0, 1.0), 1.0)
        assert not policy.merges_on_arrival(1, 4)  # bound 4: stacks
        assert policy.merges_on_arrival(2, 4)  # bound 1: leveled
        assert policy.merges_on_arrival(3, 4)  # reuses last element (1)
        assert policy.merges_on_arrival(4, 4)  # Z = 1
        assert policy.max_resident_runs(8, 1, 4) == 4
        assert policy.max_resident_runs(8, 2, 4) == 1
        assert policy.max_resident_runs(3, 1, 4) == 2  # clamped to T - 1

    def test_only_fluid_merges_in_place(self):
        assert not any(value.in_place for value in NAMED_POLICIES.values())
        assert fluid().in_place and fluid((3, 1), 2).in_place


class TestTuningBinding:
    def test_a_fluid_tuning_carries_its_bounds(self):
        tuning = LSMTuning(8.0, 4.0, CompactionPolicy.fluid((3,), 2))
        assert tuning.compaction == fluid((3,), 2)
        vector = LSMTuning(8.0, 4.0, CompactionPolicy.fluid((4.0, 2.0), 2.0))
        assert vector.compaction == fluid((4.0, 2.0), 2.0)
        assert LSMTuning(8.0, 4.0, fluid((4.0, 2.0), 2.0)) == vector

    def test_a_classical_tuning_is_its_table_row(self):
        classic = LSMTuning(8.0, 4.0, Policy.LEVELING)
        assert classic.compaction is NAMED_POLICIES[Policy.LEVELING]
        assert LSMTuning(8.0, 4.0, NAMED_POLICIES[Policy.LEVELING]) == classic

    def test_tracking_bounds_are_pinned_to_the_tunings_ratio(self):
        assert LSMTuning(8.0, 4.0, fluid()).compaction.bounds == (7.0,)
        assert LSMTuning(8.0, 4.0, Policy.TIERING).compaction.bounds == (math.inf,)


class TestExpansion:
    def test_expansion_covers_the_classical_corners(self):
        specs = expand_policy_specs([Policy.FLUID], max_size_ratio=20)
        pairs = {(s.bounds, s.z_bound) for s in specs}
        assert ((1.0,), 1.0) in pairs  # leveling corner
        assert ((19.0,), 19.0) in pairs  # tiering corner (K = Z = T - 1)
        assert ((19.0,), 1.0) in pairs  # lazy-leveling corner
        assert all(s.policy is Policy.FLUID and s.in_place for s in specs)

    def test_expansion_maps_classical_names_to_their_rows(self):
        specs = expand_policy_specs([Policy.LEVELING, "tiering"])
        assert specs == (NAMED_POLICIES[Policy.LEVELING], NAMED_POLICIES[Policy.TIERING])

    def test_explicit_values_are_kept_verbatim(self):
        for pinned in (fluid((7,), 3), fluid((9.0, 3.0, 1.0))):
            assert expand_policy_specs([pinned]) == (pinned,)

    def test_rejects_an_empty_policy_list(self):
        with pytest.raises(ValueError):
            expand_policy_specs([])


class TestVectorFamilies:
    def test_halving_ladder_descends_to_one(self):
        assert halving_ladder(8) == (8.0, 4.0, 2.0, 1.0)
        assert halving_ladder(3) == (3.0, 2.0, 1.0)
        assert halving_ladder(1) == (1.0,)

    def test_expansion_without_the_flag_is_unchanged(self):
        flat = expand_policy_specs([Policy.FLUID], max_size_ratio=40.0)
        assert all(len(spec.bounds) == 1 for spec in flat)

    def test_expansion_with_the_flag_adds_vector_families(self):
        specs = expand_policy_specs(
            [Policy.FLUID], max_size_ratio=40.0, include_k_vectors=True
        )
        vectors = [spec.bounds for spec in specs if len(spec.bounds) > 1]
        assert vectors, "vector families must join the sweep"
        # Front-loaded ladders: non-increasing, peak > 1, end at 1.
        ladders = [
            bounds
            for bounds in vectors
            if len(set(bounds)) > 1 and tuple(sorted(bounds, reverse=True)) == bounds
        ]
        assert ladders
        # Single-level perturbations: exactly one bumped level.
        bumps = [
            bounds
            for bounds in vectors
            if sum(1 for bound in bounds if bound > 1.0) == 1 and bounds[-1] == 1.0
        ]
        assert bumps
        # The scalar grid still precedes the vector families.
        assert len(specs[0].bounds) == 1

    def test_vector_families_respect_the_ratio_cap(self):
        for spec in fluid_vector_specs(max_size_ratio=5.0):
            assert all(bound <= 4.0 for bound in spec.bounds)

    def test_degenerate_cap_produces_no_vector_specs(self):
        """At max_size_ratio <= 2 every bound clamps to 1, so the families
        would only duplicate the all-leveled uniform vectors the scalar
        grid already covers — the expansion must emit nothing."""
        assert fluid_vector_specs(max_size_ratio=2.0) == ()
