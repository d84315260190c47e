"""Tests for the concrete Bloom filter used by the simulator."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import BloomFilter


class TestBloomFilterBasics:
    def test_no_false_negatives(self):
        bf = BloomFilter(expected_entries=1_000, bits_per_entry=10.0, seed=1)
        keys = np.arange(0, 2_000, 2, dtype=np.uint64)
        bf.add_many(keys)
        assert all(bf.might_contain(int(k)) for k in keys)

    def test_false_positive_rate_close_to_theory(self):
        bits = 10.0
        bf = BloomFilter(expected_entries=2_000, bits_per_entry=bits, seed=2)
        bf.add_many(np.arange(0, 4_000, 2, dtype=np.uint64))
        probes = np.arange(1, 8_001, 2, dtype=np.uint64)  # keys never inserted
        false_positives = sum(bf.might_contain(int(k)) for k in probes)
        observed = false_positives / probes.size
        # Theory: ~0.0082 at 10 bits/entry; allow a generous band.
        assert observed < 0.05

    def test_more_bits_fewer_false_positives(self):
        keys = np.arange(0, 2_000, 2, dtype=np.uint64)
        probes = np.arange(1, 4_001, 2, dtype=np.uint64)

        def fp_count(bits: float) -> int:
            bf = BloomFilter(expected_entries=keys.size, bits_per_entry=bits, seed=3)
            bf.add_many(keys)
            return sum(bf.might_contain(int(k)) for k in probes)

        assert fp_count(12.0) <= fp_count(2.0)

    def test_zero_bits_is_degenerate_always_maybe(self):
        bf = BloomFilter(expected_entries=100, bits_per_entry=0.0)
        assert bf.might_contain(42)
        assert bf.size_bits == 0
        assert bf.expected_false_positive_rate() == 1.0

    def test_contains_operator(self):
        bf = BloomFilter(expected_entries=10, bits_per_entry=10.0)
        bf.add(7)
        assert 7 in bf

    def test_count_tracks_insertions(self):
        bf = BloomFilter(expected_entries=100, bits_per_entry=8.0)
        bf.add_many(np.arange(10, dtype=np.uint64))
        bf.add(99)
        assert bf.count == 11

    def test_empty_filter_expected_fpr_zero(self):
        bf = BloomFilter(expected_entries=100, bits_per_entry=8.0)
        assert bf.expected_false_positive_rate() == 0.0

    def test_rejects_negative_parameters(self):
        with pytest.raises(ValueError):
            BloomFilter(expected_entries=-1, bits_per_entry=8.0)
        with pytest.raises(ValueError):
            BloomFilter(expected_entries=10, bits_per_entry=-1.0)

    def test_different_seeds_produce_different_filters(self):
        keys = np.arange(0, 1_000, dtype=np.uint64)
        a = BloomFilter(1_000, 8.0, seed=1)
        b = BloomFilter(1_000, 8.0, seed=2)
        a.add_many(keys)
        b.add_many(keys)
        assert not np.array_equal(a.bit_table, b.bit_table)

    def test_add_many_with_empty_array_is_noop(self):
        bf = BloomFilter(expected_entries=10, bits_per_entry=8.0)
        bf.add_many(np.array([], dtype=np.uint64))
        assert bf.count == 0


class TestBatchedMembership:
    def test_might_contain_many_matches_scalar(self):
        rng = np.random.default_rng(3)
        members = rng.choice(100_000, size=500, replace=False).astype(np.uint64)
        bf = BloomFilter(expected_entries=500, bits_per_entry=6.0, seed=11)
        bf.add_many(members)
        probe = np.concatenate([members[:100], rng.integers(0, 200_000, size=400)]).astype(
            np.uint64
        )
        batched = bf.might_contain_many(probe)
        scalar = np.array([bf.might_contain(int(key)) for key in probe])
        assert np.array_equal(batched, scalar)

    def test_might_contain_many_empty_input(self):
        bf = BloomFilter(expected_entries=10, bits_per_entry=8.0)
        result = bf.might_contain_many(np.array([], dtype=np.uint64))
        assert result.dtype == bool and result.size == 0

    def test_degenerate_filter_answers_maybe_for_all(self):
        bf = BloomFilter(expected_entries=100, bits_per_entry=0.0)
        assert bf.might_contain_many(np.arange(5, dtype=np.uint64)).all()


def bits_digest(bf: BloomFilter) -> str:
    return hashlib.sha256(bf.bit_table.tobytes()).hexdigest()[:16]


class TestBitTableBytes:
    """The packed bit table, byte for byte.

    The digests were recorded with the hash-function-at-a-time
    ``np.bitwise_or.at`` builder this filter used to have; the table is what
    ``bit_table`` hands every SSTable footer, and it decides
    which probes are false positives, i.e. every golden page counter.
    """

    def test_golden_table_of_a_thousand_keys(self):
        bf = BloomFilter(1000, 7.3, seed=42)
        bf.add_many(np.arange(1000, dtype=np.uint64) * 7919 + 13)
        assert (bf.num_bits, bf.num_hashes) == (7300, 5)
        assert bits_digest(bf) == "ed63e04249e21cb2"

    def test_golden_table_with_wraparound_and_a_second_batch(self):
        bf = BloomFilter(64, 10.0, seed=7)
        wrapped = np.array([-3, -2, -1, 0, 1, 2**63 - 1, -(2**63)], dtype=np.int64)
        bf.add_many(wrapped.astype(np.uint64))
        # The second batch ORs into a non-empty table.
        bf.add_many(np.arange(5, dtype=np.uint64))
        assert (bf.num_bits, bf.num_hashes, bf.count) == (640, 7, 12)
        assert bits_digest(bf) == "05dffd0684d07a5b"

    def test_build_is_independent_of_batching(self):
        # More keys than one scatter block, against one key at a time.
        keys = (np.arange(9_000, dtype=np.int64) * 48_271 - 2**40).astype(np.uint64)
        whole = BloomFilter(keys.size, 6.0, seed=5)
        whole.add_many(keys)
        single = BloomFilter(keys.size, 6.0, seed=5)
        for key in keys[:300].tolist():
            single.add(key)
        single.add_many(keys[300:4_000])
        single.add_many(keys[4_000:])
        assert np.array_equal(whole.bit_table, single.bit_table)
        assert whole.count == single.count == keys.size

    def test_add_wraps_a_negative_key_like_an_array_key(self):
        by_add = BloomFilter(8, 10.0, seed=3)
        by_batch = BloomFilter(8, 10.0, seed=3)
        for key in (-(2**63), -5, 2**63 - 1):
            by_add.add(key)
        by_batch.add_many(np.array([-(2**63), -5, 2**63 - 1], dtype=np.int64).astype(np.uint64))
        assert np.array_equal(by_add.bit_table, by_batch.bit_table)
        assert -5 in by_add


class TestFromState:
    """A footer's bit table comes back as the filter it was taken from, or not at all."""

    def _filter(self):
        bf = BloomFilter(100, 7.3, seed=4)
        bf.add_many(np.arange(0, 700, 7, dtype=np.int64))
        return bf

    def test_the_stored_table_round_trips(self):
        bf = self._filter()
        restored = BloomFilter.from_state(100, 7.3, 4, bf.count, bf.bit_table)
        assert restored.bit_table.tobytes() == bf.bit_table.tobytes()
        probes = np.arange(-50, 800, dtype=np.int64)
        assert restored.might_contain_many(probes).tolist() == bf.might_contain_many(probes).tolist()
        assert [restored.might_contain(key) for key in range(-50, 800)] == [
            bf.might_contain(key) for key in range(-50, 800)
        ]

    @pytest.mark.parametrize("delta", [-1, 1], ids=["one-byte-short", "one-byte-long"])
    def test_a_table_of_another_length_is_refused(self, delta):
        bits = self._filter().bit_table
        stored = bits[:delta] if delta < 0 else np.append(bits, np.uint8(0))
        with pytest.raises(
            ValueError,
            match=f"has {bits.size + delta} bytes but the filter parameters imply {bits.size}$",
        ):
            BloomFilter.from_state(100, 7.3, 4, 100, stored)


class TestSharedProbeOffsets:
    """Filters of one hash count share one read-only probe-offset column."""

    def test_one_column_per_hash_count_and_nobody_may_write_it(self):
        first, second = BloomFilter(20, 7.3, seed=1), BloomFilter(500, 7.3, seed=2)
        other = BloomFilter(20, 3.0, seed=1)
        assert first._probe_offsets is second._probe_offsets
        assert first._probe_offsets.tolist() == [[i] for i in range(first.num_hashes)]
        assert other.num_hashes != first.num_hashes
        assert other._probe_offsets.shape == (other.num_hashes, 1)
        with pytest.raises(ValueError, match="read-only"):
            first._probe_offsets[0, 0] = 9


int64_keys = st.integers(min_value=-(2**63), max_value=2**63 - 1)


class TestScalarBatchedParity:
    @given(
        members=st.lists(int64_keys, min_size=1, max_size=60),
        probes=st.lists(int64_keys, min_size=1, max_size=60),
        # From the degenerate "fewer than 8 bits" filter up to a roomy one.
        bits_per_entry=st.floats(min_value=0.0, max_value=16.0),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=150, deadline=None)
    def test_scalar_probe_equals_batched_probe(self, members, probes, bits_per_entry, seed):
        bf = BloomFilter(len(members), bits_per_entry, seed=seed)
        bf.add_many(np.asarray(members, dtype=np.int64).astype(np.uint64))
        for key in members:
            assert bf.might_contain(key)
            assert bf.might_contain_many(np.array([key], dtype=np.int64))[0]
        for key in probes:
            batched = bf.might_contain_many(np.array([key], dtype=np.int64))[0]
            assert bf.might_contain(key) == batched


_MASK = 2**64 - 1
_M1, _M2 = 0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F
#: The values where ``int64`` and ``uint64`` images and the seed's addition wrap.
_EDGES = [0, 1, 2**63 - 1, -(2**63), -1, 2**63, _MASK - 1, _MASK]


def _oracle_positions(key: int, seed: int, num_hashes: int, num_bits: int) -> list[int]:
    """The probe positions of one key, in plain Python ints."""
    mixed = (key + seed) & _MASK
    h1 = (mixed * _M1) & _MASK
    h1 ^= h1 >> 29
    h2 = (mixed * _M2) & _MASK
    h2 ^= h2 >> 31
    h2 |= 1
    return [((h1 + i * h2) & _MASK) % num_bits for i in range(num_hashes)]


@st.composite
def _typed_keys(draw) -> np.ndarray:
    """A non-empty ``int64`` or ``uint64`` key array, edges of either range included."""
    signed = draw(st.booleans())
    low, high = (-(2**63), 2**63 - 1) if signed else (0, _MASK)
    edges = [key for key in _EDGES if low <= key <= high]
    keys = draw(st.lists(st.sampled_from(edges) | st.integers(low, high), min_size=1, max_size=40))
    return np.array(keys, dtype=np.int64 if signed else np.uint64)


class TestProbePositionOracle:
    """The vectorised kernel is the plain-int formula ``((h1 + i*h2) & MASK) % m``."""

    @given(
        keys=_typed_keys(),
        bits_per_entry=st.integers(0, 20) | st.floats(0.0, 20.0),
        seed=st.integers(0, 2**32) | st.sampled_from([2**63, _MASK]),
    )
    @settings(max_examples=200, deadline=None)
    def test_positions_are_int64_in_range_and_equal_the_oracle(
        self, keys, bits_per_entry, seed
    ):
        bf = BloomFilter(keys.size, bits_per_entry, seed=seed)
        positions = bf._probe_positions(keys)
        assert positions.dtype == np.int64
        assert positions.shape == (bf.num_hashes, keys.size)
        assert ((positions >= 0) & (positions < bf.num_bits)).all()
        assert positions.T.tolist() == [
            _oracle_positions(key, seed, bf.num_hashes, bf.num_bits) for key in keys.tolist()
        ]

    @given(keys=_typed_keys(), probes=_typed_keys(), seed=st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_every_key_type_answers_alike(self, keys, probes, seed):
        """``int64``, its ``uint64`` image and a list of the ``int64`` keys ask
        the same question.  (A list mixing keys below and above 2^63 is not a
        key array: NumPy reads it as ``float64``.)"""
        bf = BloomFilter(keys.size, 6.0, seed=seed)
        bf.add_many(keys)
        assert bf.might_contain_many(keys).all()
        unsigned = probes.astype(np.uint64)
        answers = bf.might_contain_many(unsigned)
        signed = unsigned.view(np.int64)
        assert bf.might_contain_many(signed).tolist() == answers.tolist()
        assert bf.might_contain_many(signed.tolist()).tolist() == answers.tolist()
        assert [bf.might_contain(key) for key in signed.tolist()] == answers.tolist()
