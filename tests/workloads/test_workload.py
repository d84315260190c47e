"""Tests for the workload representation and KL divergence."""

import math

import numpy as np
import pytest

from repro.workloads import QUERY_TYPES, Workload, average_workload, kl_divergence


class TestConstruction:
    def test_basic_construction(self):
        w = Workload(0.1, 0.2, 0.3, 0.4)
        assert w.as_tuple() == (0.1, 0.2, 0.3, 0.4)

    def test_rejects_negative_components(self):
        with pytest.raises(ValueError):
            Workload(-0.1, 0.4, 0.4, 0.3)

    def test_rejects_wrong_sum(self):
        with pytest.raises(ValueError):
            Workload(0.3, 0.3, 0.3, 0.3)

    def test_allows_tiny_rounding_error(self):
        w = Workload(0.1, 0.2, 0.3, 0.4 + 1e-9)
        assert w.w == pytest.approx(0.4)

    def test_from_array_round_trip(self):
        arr = np.array([0.25, 0.25, 0.3, 0.2])
        assert np.allclose(Workload.from_array(arr).as_array(), arr)

    def test_from_array_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            Workload.from_array([0.5, 0.5])

    def test_from_counts_normalises(self):
        w = Workload.from_counts([10, 30, 40, 20])
        assert w.as_tuple() == (0.1, 0.3, 0.4, 0.2)

    def test_from_counts_rejects_all_zero(self):
        with pytest.raises(ValueError):
            Workload.from_counts([0, 0, 0, 0])

    def test_from_counts_rejects_negative(self):
        with pytest.raises(ValueError):
            Workload.from_counts([-1, 2, 3, 4])

    def test_from_dict_round_trip(self):
        w = Workload(0.1, 0.2, 0.3, 0.4)
        assert Workload(**w.as_dict()) == w

    def test_uniform_constructor(self):
        assert Workload.uniform().as_tuple() == (0.25, 0.25, 0.25, 0.25)


class TestViews:
    def test_query_type_order(self):
        assert QUERY_TYPES == ("z0", "z1", "q", "w")

    def test_describe_shows_percentages(self):
        assert Workload(0.25, 0.25, 0.25, 0.25).describe() == "(25%, 25%, 25%, 25%)"


class TestAlgebra:
    def test_mix_endpoints(self):
        a = Workload(0.7, 0.1, 0.1, 0.1)
        b = Workload(0.1, 0.1, 0.1, 0.7)
        assert a.mix(b, 0.0) == a
        assert a.mix(b, 1.0) == b

    def test_mix_midpoint(self):
        a = Workload(0.6, 0.2, 0.1, 0.1)
        b = Workload(0.2, 0.2, 0.3, 0.3)
        mid = a.mix(b, 0.5)
        assert np.allclose(mid.as_array(), (a.as_array() + b.as_array()) / 2)

    def test_mix_rejects_out_of_range_weight(self):
        with pytest.raises(ValueError):
            Workload.uniform().mix(Workload.uniform(), 1.5)

    def test_average_workload(self):
        a = Workload(0.6, 0.2, 0.1, 0.1)
        b = Workload(0.2, 0.2, 0.3, 0.3)
        avg = average_workload([a, b])
        assert np.allclose(avg.as_array(), (a.as_array() + b.as_array()) / 2)

    def test_average_workload_rejects_empty(self):
        with pytest.raises(ValueError):
            average_workload([])


class TestKLDivergence:
    def test_zero_for_identical_distributions(self):
        w = Workload(0.1, 0.2, 0.3, 0.4)
        assert kl_divergence(w.as_array(), w.as_array()) == pytest.approx(0.0)

    def test_always_non_negative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            assert kl_divergence(p, q) >= -1e-12

    def test_asymmetric(self):
        p = np.array([0.7, 0.1, 0.1, 0.1])
        q = np.array([0.25, 0.25, 0.25, 0.25])
        assert kl_divergence(p, q) != pytest.approx(kl_divergence(q, p))

    def test_matches_manual_computation(self):
        p = np.array([0.5, 0.25, 0.15, 0.10])
        q = np.array([0.25, 0.25, 0.25, 0.25])
        manual = sum(pi * math.log(pi / qi) for pi, qi in zip(p, q))
        assert kl_divergence(p, q) == pytest.approx(manual)

    def test_zero_component_in_p_is_ignored(self):
        p = np.array([0.0, 0.5, 0.25, 0.25])
        q = np.array([0.25, 0.25, 0.25, 0.25])
        assert np.isfinite(kl_divergence(p, q))

    def test_zero_component_in_q_gives_infinity(self):
        p = np.array([0.25, 0.25, 0.25, 0.25])
        q = np.array([0.0, 0.4, 0.3, 0.3])
        assert kl_divergence(p, q) == float("inf")

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence([0.5, 0.5], [0.3, 0.3, 0.4])

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            kl_divergence([-0.1, 0.6, 0.3, 0.2], [0.25, 0.25, 0.25, 0.25])

    def test_distance_to_method_agrees(self):
        a = Workload(0.6, 0.2, 0.1, 0.1)
        b = Workload.uniform()
        assert a.distance_to(b) == pytest.approx(
            kl_divergence(a.as_array(), b.as_array())
        )


class TestLongRangeFraction:
    def test_defaults_to_zero(self):
        assert Workload(0.25, 0.25, 0.25, 0.25).long_range_fraction == 0.0

    def test_validated_to_the_unit_interval(self):
        with pytest.raises(ValueError):
            Workload(0.25, 0.25, 0.25, 0.25, long_range_fraction=1.5)
        with pytest.raises(ValueError):
            Workload(0.25, 0.25, 0.25, 0.25, long_range_fraction=-0.1)

    def test_with_long_range_fraction_copies(self):
        base = Workload(0.25, 0.25, 0.25, 0.25)
        shifted = base.with_long_range_fraction(0.4)
        assert shifted.long_range_fraction == 0.4
        assert shifted.as_tuple() == base.as_tuple()

    def test_round_trips_through_dicts(self):
        w = Workload(0.1, 0.2, 0.3, 0.4, long_range_fraction=0.5)
        assert Workload(**w.as_dict()) == w
        assert w.as_dict()["long_range_fraction"] == 0.5
        # Zero fractions stay out of the serialisation (old format preserved).
        assert "long_range_fraction" not in Workload(0.1, 0.2, 0.3, 0.4).as_dict()

    def test_mix_blends_by_range_mass(self):
        heavy = Workload(0.1, 0.1, 0.6, 0.2, long_range_fraction=1.0)
        light = Workload(0.3, 0.3, 0.2, 0.2, long_range_fraction=0.0)
        mixed = heavy.mix(light, 0.5)
        # 0.3 of the mixed range mass (0.4) comes from `heavy`'s long ranges.
        assert mixed.long_range_fraction == pytest.approx(0.75)

    def test_mix_of_rangeless_workloads_has_no_long_fraction(self):
        a = Workload(0.5, 0.3, 0.0, 0.2, long_range_fraction=0.9)
        b = Workload(0.2, 0.4, 0.0, 0.4)
        assert a.mix(b, 0.5).long_range_fraction == 0.0

    def test_average_workload_weights_by_range_mass(self):
        heavy = Workload(0.1, 0.1, 0.6, 0.2, long_range_fraction=0.5)
        light = Workload(0.3, 0.3, 0.2, 0.2, long_range_fraction=0.0)
        averaged = average_workload([heavy, light])
        assert averaged.long_range_fraction == pytest.approx(0.5 * 0.6 / 0.8)

    def test_describe_mentions_long_ranges_only_when_present(self):
        assert "long-range" not in Workload(0.25, 0.25, 0.25, 0.25).describe()
        assert "long-range 40%" in (
            Workload(0.25, 0.25, 0.25, 0.25, long_range_fraction=0.4).describe()
        )

    def test_kl_divergence_ignores_the_fraction(self):
        a = Workload(0.25, 0.25, 0.25, 0.25, long_range_fraction=0.9)
        b = Workload(0.25, 0.25, 0.25, 0.25)
        assert a.distance_to(b) == pytest.approx(0.0, abs=1e-12)
