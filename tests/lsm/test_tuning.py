"""Tests for the LSM tuning configuration object."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm import ALL_POLICIES, CompactionPolicy, LSMTuning, Policy, SystemConfig


def _read_back(tuning: LSMTuning) -> LSMTuning:
    """Rebuild ``tuning`` from its JSON payload with the public constructor.

    The payload is what ``tune`` and ``compare --json`` emit; rebuilding it
    checks that it carries the whole tuning — policy, ``T``, ``h`` and, on a
    fluid tuning, exactly one of ``k_bound`` / ``k_bounds`` plus ``z_bound``.
    """
    payload = json.loads(json.dumps(tuning.to_dict()))
    if payload["policy"] != Policy.FLUID.value:
        return LSMTuning(**payload)
    assert ("k_bound" in payload) != ("k_bounds" in payload)
    bounds = payload["k_bounds"] if "k_bounds" in payload else [payload["k_bound"]]
    return LSMTuning(
        payload["size_ratio"],
        payload["bits_per_entry"],
        CompactionPolicy.fluid(bounds, payload["z_bound"]),
    )


class TestConstruction:
    def test_basic_construction(self):
        tuning = LSMTuning(size_ratio=10.0, bits_per_entry=5.0, policy=Policy.LEVELING)
        assert tuning.size_ratio == 10.0
        assert tuning.policy is Policy.LEVELING

    def test_policy_coerced_from_string(self):
        tuning = LSMTuning(size_ratio=10.0, bits_per_entry=5.0, policy="tiering")
        assert tuning.policy is Policy.TIERING

    def test_rejects_small_size_ratio(self):
        with pytest.raises(ValueError):
            LSMTuning(size_ratio=1.5, bits_per_entry=5.0, policy=Policy.LEVELING)

    def test_rejects_negative_bits(self):
        with pytest.raises(ValueError):
            LSMTuning(size_ratio=5.0, bits_per_entry=-1.0, policy=Policy.LEVELING)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["size_ratio", "bits_per_entry"])
    def test_rejects_non_finite_values_naming_the_field(self, field, value):
        """A NaN fails no ``<`` guard, and ``T = inf`` used to price a one-level
        tree as ``[nan nan inf nan]``; both are refused where they enter."""
        arguments = {"size_ratio": 5.0, "bits_per_entry": 5.0, field: value}
        with pytest.raises(ValueError, match=field):
            LSMTuning(policy=Policy.LEVELING, **arguments)

    def test_is_hashable_and_comparable(self):
        a = LSMTuning(5.0, 3.0, Policy.LEVELING)
        b = LSMTuning(5.0, 3.0, Policy.LEVELING)
        assert a == b
        assert hash(a) == hash(b)


class TestDerivedMemory:
    def test_memory_split_adds_up(self, system: SystemConfig):
        total = system.filter_memory_bits(4.0) + 8.0 * system.buffer_memory_bytes(4.0)
        assert total == pytest.approx(system.total_memory_bits)

    def test_buffer_bytes_consistent(self, system: SystemConfig):
        assert system.buffer_memory_bytes(4.0) == pytest.approx(
            system.buffer_memory_bits(4.0) / 8.0
        )

    def test_more_filter_memory_means_smaller_buffer(self, system: SystemConfig):
        assert system.buffer_memory_bytes(10.0) < system.buffer_memory_bytes(2.0)


class TestTransformations:
    @pytest.mark.parametrize("ratio, deployed", [(7.6, 8), (4.3, 4), (4.5, 5)])
    def test_rounded_produces_integer_ratio(self, ratio, deployed):
        tuning = LSMTuning(ratio, 3.0, Policy.LEVELING)
        assert tuning.rounded().size_ratio == float(deployed)

    def test_rounded_never_below_two(self):
        tuning = LSMTuning(2.0, 3.0, Policy.LEVELING)
        assert tuning.rounded().size_ratio == 2.0

    def test_rounded_keeps_other_fields(self):
        tuning = LSMTuning(7.6, 3.0, Policy.TIERING)
        rounded = tuning.rounded()
        assert rounded.bits_per_entry == tuning.bits_per_entry
        assert rounded.policy is tuning.policy

    def test_clamped_respects_system_bounds(self, system: SystemConfig):
        tuning = LSMTuning(1000.0, 1000.0, Policy.LEVELING)
        clamped = tuning.clamped(system)
        assert clamped.size_ratio <= system.max_size_ratio
        assert clamped.bits_per_entry <= system.max_bits_per_entry

    def test_clamped_is_noop_inside_bounds(self, system: SystemConfig):
        tuning = LSMTuning(5.0, 3.0, Policy.LEVELING)
        assert tuning.clamped(system) == tuning


class TestSerialisation:
    @pytest.mark.parametrize(
        "policy",
        [p for p in ALL_POLICIES if p is not Policy.FLUID],
        ids=lambda policy: policy.value,
    )
    def test_dict_round_trip(self, policy):
        tuning = LSMTuning(7.5, 3.25, policy)
        assert _read_back(tuning) == tuning

    def test_describe_mentions_all_fields(self):
        tuning = LSMTuning(7.5, 3.25, Policy.TIERING)
        text = tuning.describe()
        assert "tiering" in text
        assert "7.5" in text
        assert "3.2" in text or "3.3" in text


class TestFluidBounds:
    def test_fluid_defaults_to_lazy_leveling_shape(self):
        tuning = LSMTuning(8.0, 4.0, Policy.FLUID)
        assert tuning.k_bound == 7.0  # T - 1
        assert tuning.z_bound == 1.0

    def test_classical_policies_read_no_bounds(self):
        tuning = LSMTuning(8.0, 4.0, Policy.LEVELING)
        assert tuning.k_bound is None
        assert tuning.z_bound is None
        # ... and equality is independent of how the policy was spelled.
        assert tuning == LSMTuning(8.0, 4.0, CompactionPolicy.of("level"))

    def test_rejects_sub_unit_bounds(self):
        with pytest.raises(ValueError):
            LSMTuning(8.0, 4.0, CompactionPolicy.fluid((0.5,)))
        with pytest.raises(ValueError):
            LSMTuning(8.0, 4.0, CompactionPolicy.fluid(z_bound=0.0))

    def test_round_trip_preserves_bounds(self):
        tuning = LSMTuning(8.0, 4.0, CompactionPolicy.fluid((3.0,), 2.0))
        assert _read_back(tuning) == tuning

    def test_classical_serialisation_has_no_bound_keys(self):
        tuning = LSMTuning(8.0, 4.0, Policy.TIERING)
        assert set(tuning.to_dict()) == {"size_ratio", "bits_per_entry", "policy"}

    def test_rounded_clamps_bounds_to_the_deployable_range(self):
        tuning = LSMTuning(4.4, 4.0, CompactionPolicy.fluid((7.6,), 1.4))
        rounded = tuning.rounded()
        assert rounded.size_ratio == 4.0
        assert rounded.k_bound == 3.0  # min(round(7.6), T - 1)
        assert rounded.z_bound == 1.0

    def test_with_policy_materialises_and_drops_bounds(self):
        tiering = LSMTuning(8.0, 4.0, Policy.TIERING)
        fluid = LSMTuning(tiering.size_ratio, tiering.bits_per_entry, Policy.FLUID)
        assert fluid.k_bound == 7.0 and fluid.z_bound == 1.0
        back = LSMTuning(fluid.size_ratio, fluid.bits_per_entry, "tiering")
        assert back.k_bound is None and back.z_bound is None
        assert back == tiering

    def test_describe_includes_the_bounds(self):
        text = LSMTuning(8.0, 4.0, CompactionPolicy.fluid((3.0,), 2.0)).describe()
        assert "K: 3" in text and "Z: 2" in text


class TestKBoundVectors:
    """Per-level ``k_bounds`` vectors: full Dostoevsky generality."""

    def test_vector_construction_normalises_to_floats(self):
        tuning = LSMTuning(8.0, 4.0, CompactionPolicy.fluid((4, 2, 1), 2))
        assert tuning.k_bounds == (4.0, 2.0, 1.0)
        assert tuning.z_bound == 2.0
        assert tuning.k_bound is None  # the vector is authoritative

    def test_rejects_empty_and_sub_unit_vectors(self):
        with pytest.raises(ValueError):
            LSMTuning(8.0, 4.0, CompactionPolicy.fluid(()))
        with pytest.raises(ValueError):
            LSMTuning(8.0, 4.0, CompactionPolicy.fluid((2.0, 0.5)))

    @pytest.mark.parametrize(
        "policy",
        [p for p in ALL_POLICIES if p is not Policy.FLUID],
        ids=lambda policy: policy.value,
    )
    def test_classical_policies_read_no_vector(self, policy):
        assert LSMTuning(8.0, 4.0, policy).k_bounds is None

    def test_vector_round_trip(self):
        tuning = LSMTuning(6.0, 4.0, CompactionPolicy.fluid((4.0, 2.0, 1.0), 2.0))
        assert _read_back(tuning) == tuning

    def test_with_policy_drops_the_vector(self):
        fluid = LSMTuning(8.0, 4.0, CompactionPolicy.fluid((4.0, 2.0)))
        tiering = LSMTuning(fluid.size_ratio, fluid.bits_per_entry, "tiering")
        assert tiering.k_bounds is None
        assert tiering == LSMTuning(8.0, 4.0, Policy.TIERING)

    def test_scalar_serialisation_has_no_vector_key(self):
        tuning = LSMTuning(8.0, 4.0, CompactionPolicy.fluid((3.0,)))
        assert "k_bounds" not in tuning.to_dict()

    def test_rounded_clamps_the_vector_elementwise(self):
        tuning = LSMTuning(4.4, 4.0, CompactionPolicy.fluid((7.6, 2.4, 1.4), 1.4))
        rounded = tuning.rounded()
        assert rounded.size_ratio == 4.0
        assert rounded.k_bounds == (3.0, 2.0, 1.0)  # 7.6 capped at T - 1
        assert rounded.z_bound == 1.0

    def test_describe_shows_the_vector(self):
        text = LSMTuning(8.0, 4.0, CompactionPolicy.fluid((4.0, 2.0, 1.0))).describe()
        assert "K: [4,2,1]" in text and "Z: 1" in text

    def test_vector_tunings_are_hashable(self):
        a = LSMTuning(8.0, 4.0, CompactionPolicy.fluid((4.0, 2.0)))
        b = LSMTuning(8.0, 4.0, CompactionPolicy.fluid((4.0, 2.0)))
        assert a == b and hash(a) == hash(b)


class TestRoundedAtTheSmallestRatio:
    """Regression: the ``[1, T - 1]`` clamp at ``T = 2``, where the cap is 1.

    Built-in ``round`` sends the midpoint ``T = 2.5`` *down* to 2 (half to
    even), so the deployable bound range collapsed to the single point 1 and
    crushed every fluid bound the optimiser chose — a ``K = 1.5`` that
    legitimately deploys as ``(T = 3, K = 2)`` came out as ``(T = 2, K = 1)``.
    Half-up rounding keeps the documented "round up at the midpoint"
    behaviour and the clamp consistent.
    """

    def test_midpoint_ratio_rounds_up_not_to_the_collapsed_cap(self):
        rounded = LSMTuning(2.5, 3.0, CompactionPolicy.fluid((1.5,), 1.5)).rounded()
        assert rounded.size_ratio == 3.0
        assert rounded.k_bound == 2.0
        assert rounded.z_bound == 2.0

    def test_at_exactly_t2_every_bound_clamps_to_one(self):
        rounded = LSMTuning(2.0, 3.0, CompactionPolicy.fluid((7.0,), 3.0)).rounded()
        assert rounded.size_ratio == 2.0
        assert (rounded.k_bound, rounded.z_bound) == (1.0, 1.0)

    def test_t2_clamp_is_vector_aware(self):
        rounded = LSMTuning(2.2, 3.0, CompactionPolicy.fluid((8.0, 2.0, 1.0), 4.0)).rounded()
        assert rounded.size_ratio == 2.0
        assert rounded.k_bounds == (1.0, 1.0, 1.0)
        assert rounded.z_bound == 1.0

    def test_rounded_vector_stays_valid_through_reconstruction(self):
        rounded = LSMTuning(2.5, 3.0, CompactionPolicy.fluid((1.5, 1.5))).rounded()
        assert rounded.size_ratio == 3.0
        assert rounded.k_bounds == (2.0, 2.0)
        # replace() re-runs validation; the clamped copy must satisfy it.
        rebuilt = LSMTuning(rounded.size_ratio, rounded.bits_per_entry, rounded.compaction)
        assert rebuilt == rounded
        assert _read_back(rounded) == rounded


#: Strategy for one fluid run bound in the deployable range.
_bounds = st.floats(min_value=1.0, max_value=64.0, allow_nan=False)


class TestSerialisationProperty:
    """Exhaustive JSON round trip: all policies × scalar and vector bounds.
    The online subsystem ships tunings through JSON (retuning decisions,
    events); drift there is caught here, at the tuning layer."""

    @given(
        policy=st.sampled_from(ALL_POLICIES),
        size_ratio=st.floats(min_value=2.0, max_value=100.0, allow_nan=False),
        bits=st.floats(min_value=0.0, max_value=16.0, allow_nan=False),
        z_bound=st.one_of(st.none(), _bounds),
        k_vector=st.one_of(
            st.none(), st.lists(_bounds, min_size=1, max_size=6).map(tuple)
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip_is_lossless(self, policy, size_ratio, bits, z_bound, k_vector):
        if policy is Policy.FLUID:
            compaction = CompactionPolicy.fluid(k_vector or (math.inf,), z_bound)
        else:
            compaction = CompactionPolicy.of(policy)
        tuning = LSMTuning(size_ratio, bits, compaction)
        restored = _read_back(tuning)
        assert restored == tuning
        # And the serialised form itself is stable (no normalisation drift).
        assert restored.to_dict() == tuning.to_dict()

    @given(
        size_ratio=st.floats(min_value=2.0, max_value=100.0, allow_nan=False),
        k_vector=st.lists(_bounds, min_size=1, max_size=6).map(tuple),
        z_bound=_bounds,
    )
    @settings(max_examples=100, deadline=None)
    def test_rounded_vectors_survive_the_round_trip(self, size_ratio, k_vector, z_bound):
        tuning = LSMTuning(size_ratio, 4.0, CompactionPolicy.fluid(k_vector, z_bound)).rounded()
        cap = tuning.size_ratio - 1.0
        bounds = tuning.compaction.bounds
        assert all(1.0 <= bound <= max(cap, 1.0) for bound in bounds)
        assert 1.0 <= tuning.z_bound <= max(cap, 1.0)
        # The stored vector reads back as exactly one of the two views: a
        # single bound is the scalar K, anything longer the K_i vector.
        assert (tuning.k_bound, tuning.k_bounds) == (
            (bounds[0], None) if len(bounds) == 1 else (None, bounds)
        )
        assert _read_back(tuning) == tuning


#: Payloads written by ``to_dict`` before the bounds became one stored vector
#: (recorded at the parent of that change), each with the tuning that wrote it,
#: its ``describe()`` line, the ``rounded().to_dict()`` payload and the
#: ``rounded().describe()`` line it produced there: no bound keys, a scalar
#: ``k_bound``, a ``k_bounds`` vector.  ``compare --json`` and ``tune`` emit
#: this format.
_RECORDED_PAYLOADS = [
    (
        LSMTuning(7.5, 3.25, Policy.TIERING),
        {"size_ratio": 7.5, "bits_per_entry": 3.25, "policy": "tiering"},
        "π: tiering, T: 7.5, h: 3.2",
        {"size_ratio": 8.0, "bits_per_entry": 3.25, "policy": "tiering"},
        "π: tiering, T: 8.0, h: 3.2",
    ),
    (
        LSMTuning(8.0, 4.0, Policy.LAZY_LEVELING),
        {"size_ratio": 8.0, "bits_per_entry": 4.0, "policy": "lazy-leveling"},
        "π: lazy-leveling, T: 8.0, h: 4.0",
        {"size_ratio": 8.0, "bits_per_entry": 4.0, "policy": "lazy-leveling"},
        "π: lazy-leveling, T: 8.0, h: 4.0",
    ),
    (
        LSMTuning(8.0, 4.0, CompactionPolicy.fluid((7.0,), 1.0)),
        {"size_ratio": 8.0, "bits_per_entry": 4.0, "policy": "fluid",
         "k_bound": 7.0, "z_bound": 1.0},
        "π: fluid, T: 8.0, h: 4.0, K: 7, Z: 1",
        {"size_ratio": 8.0, "bits_per_entry": 4.0, "policy": "fluid",
         "k_bound": 7.0, "z_bound": 1.0},
        "π: fluid, T: 8.0, h: 4.0, K: 7, Z: 1",
    ),
    (
        LSMTuning(4.4, 4.0, CompactionPolicy.fluid((7.6,), 1.4)),
        {"size_ratio": 4.4, "bits_per_entry": 4.0, "policy": "fluid",
         "k_bound": 7.6, "z_bound": 1.4},
        "π: fluid, T: 4.4, h: 4.0, K: 8, Z: 1",
        {"size_ratio": 4.0, "bits_per_entry": 4.0, "policy": "fluid",
         "k_bound": 3.0, "z_bound": 1.0},
        "π: fluid, T: 4.0, h: 4.0, K: 3, Z: 1",
    ),
    (
        LSMTuning(4.4, 4.0, CompactionPolicy.fluid((7.6, 2.4, 1.4), 1.4)),
        {"size_ratio": 4.4, "bits_per_entry": 4.0, "policy": "fluid",
         "z_bound": 1.4, "k_bounds": [7.6, 2.4, 1.4]},
        "π: fluid, T: 4.4, h: 4.0, K: [8,2,1], Z: 1",
        {"size_ratio": 4.0, "bits_per_entry": 4.0, "policy": "fluid",
         "z_bound": 1.0, "k_bounds": [3.0, 2.0, 1.0]},
        "π: fluid, T: 4.0, h: 4.0, K: [3,2,1], Z: 1",
    ),
]


class TestRecordedPayloads:
    @pytest.mark.parametrize(
        "tuning,payload,described,rounded,rounded_described", _RECORDED_PAYLOADS
    )
    def test_old_payloads_are_written_byte_identically(
        self, tuning, payload, described, rounded, rounded_described
    ):
        assert json.dumps(tuning.to_dict()) == json.dumps(payload)
        assert tuning.describe() == described
        assert json.dumps(tuning.rounded().to_dict()) == json.dumps(rounded)
        assert tuning.rounded().describe() == rounded_described
        assert _read_back(tuning.rounded()) == tuning.rounded()

    def test_a_default_fluid_tuning_serialises_its_materialised_bounds(self):
        """``LSMTuning(T, h, Policy.FLUID)`` wrote ``K = T - 1, Z = 1``."""
        assert json.dumps(LSMTuning(8.0, 4.0, Policy.FLUID).to_dict()) == json.dumps(
            _RECORDED_PAYLOADS[2][1]
        )
