"""Tests for the I/O-accounting virtual disk."""

from dataclasses import fields

import pytest

from repro.storage import IOCounters, VirtualDisk


class TestIOCounters:
    def test_totals(self):
        counters = IOCounters(
            query_reads=5, query_writes=1, compaction_reads=3, compaction_writes=4, flush_writes=2
        )
        assert counters.total_reads == 8
        assert counters.total_writes == 7
        assert counters.total == 15

    def test_snapshot_is_independent_copy(self):
        counters = IOCounters(query_reads=5)
        snap = counters.snapshot()
        counters.query_reads += 10
        assert snap.query_reads == 5

    def test_delta(self):
        before = IOCounters(query_reads=5, flush_writes=1)
        after = IOCounters(query_reads=9, flush_writes=4, compaction_reads=2)
        delta = after.delta(before)
        assert delta.query_reads == 4
        assert delta.flush_writes == 3
        assert delta.compaction_reads == 2

    @pytest.mark.parametrize("name", [f.name for f in fields(IOCounters)])
    def test_snapshot_and_delta_carry_every_counter(self, name):
        counters = IOCounters(**{name: 7})
        snap = counters.snapshot()
        setattr(counters, name, 12)
        assert snap == IOCounters(**{name: 7})
        assert counters.delta(snap) == IOCounters(**{name: 5})
        assert counters.delta(counters) == IOCounters()


class TestVirtualDisk:
    def test_read_write_recording(self):
        disk = VirtualDisk()
        disk.read_pages(3)
        disk.read_pages(2, compaction=True)
        disk.write_pages(4, flush=True)
        disk.write_pages(5, compaction=True)
        disk.write_pages(1)
        assert disk.counters.query_reads == 3
        assert disk.counters.compaction_reads == 2
        assert disk.counters.flush_writes == 4
        assert disk.counters.compaction_writes == 5
        assert disk.counters.query_writes == 1

    def test_rejects_negative_counts(self):
        disk = VirtualDisk()
        with pytest.raises(ValueError):
            disk.read_pages(-1)
        with pytest.raises(ValueError):
            disk.write_pages(-1)

    def test_counts_pages_and_nothing_else(self):
        """Pages are the disk's only unit: a disk is its counters."""
        disk = VirtualDisk()
        disk.read_pages(4)
        disk.write_pages(2, flush=True)
        assert [f.name for f in fields(VirtualDisk)] == ["counters"]
        assert disk.counters == IOCounters(query_reads=4, flush_writes=2)
        assert disk.counters.total == 6

    def test_reset(self):
        disk = VirtualDisk()
        disk.read_pages(3)
        disk.reset()
        assert disk.counters.total == 0

    def test_snapshot_then_delta_workflow(self):
        disk = VirtualDisk()
        disk.read_pages(2)
        before = disk.snapshot()
        disk.read_pages(7)
        delta = disk.counters.delta(before)
        assert delta.query_reads == 7
