"""Tests for the Promotion Look-aside Buffer (Fig. 4 semantics)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.host.plb import PLB


def start_entry(plb, ssd_tag=10, frame=0, lines=8, complete_at=12_100):
    entry = plb.start(ssd_tag, frame, lines, complete_at)
    assert entry is not None
    return entry


def test_start_and_lookup():
    plb = PLB(entries=4)
    entry = start_entry(plb)
    assert plb.lookup(10) is entry
    assert plb.lookup(11) is None
    assert plb._hits.ratio == pytest.approx(0.5)  # every probe is counted
    assert plb.in_flight == 1


def test_capacity_limit():
    plb = PLB(entries=2)
    start_entry(plb, ssd_tag=1)
    start_entry(plb, ssd_tag=2)
    assert plb.start(3, 0, 8, 0) is None
    assert not plb.has_free_entry


def test_duplicate_promotion_rejected():
    plb = PLB(entries=4)
    start_entry(plb, ssd_tag=1)
    with pytest.raises(ValueError):
        plb.start(1, 1, 8, 0)


def test_inbound_line_sets_copied_bit():
    plb = PLB(entries=4)
    entry = start_entry(plb)
    assert plb.inbound_line(entry, 0) is True
    assert entry.copied[0]


def test_inbound_after_cpu_store_is_dropped():
    """Fig. 4c: the store owns the line; the stale inbound copy dies."""
    plb = PLB(entries=4)
    entry = start_entry(plb)
    plb.cpu_store(entry, 3)
    assert plb.inbound_line(entry, 3) is False
    assert plb.stats.counters()["plb.inbound_lines_dropped"] == 1


def test_cpu_load_routing():
    plb = PLB(entries=4)
    entry = start_entry(plb)
    assert plb.cpu_load_from_dram(entry, 2) is False  # not copied: go to SSD
    plb.inbound_line(entry, 2)
    assert plb.cpu_load_from_dram(entry, 2) is True


def test_cpu_store_redirect_counted():
    plb = PLB(entries=4)
    entry = start_entry(plb)
    plb.cpu_store(entry, 0)
    assert plb.stats.counters()["plb.store_redirects"] == 1


def test_all_copied():
    plb = PLB(entries=4)
    entry = start_entry(plb, lines=3)
    for line in range(3):
        plb.inbound_line(entry, line)
    assert entry.all_copied


def test_retire_frees_entry():
    plb = PLB(entries=1)
    entry = start_entry(plb)
    plb.retire(entry)
    assert plb.in_flight == 0
    assert plb.has_free_entry
    assert plb.lookup(10) is None


def test_retire_twice_raises():
    plb = PLB(entries=2)
    entry = start_entry(plb)
    plb.retire(entry)
    with pytest.raises(ValueError):
        plb.retire(entry)


def test_entries_listing():
    plb = PLB(entries=4)
    start_entry(plb, ssd_tag=1)
    start_entry(plb, ssd_tag=2)
    assert {e.ssd_tag for e in plb.entries()} == {1, 2}


def test_invalid_capacity_rejected():
    with pytest.raises(ValueError):
        PLB(0)


@settings(deadline=None, max_examples=50)
@given(
    st.lists(
        st.tuples(st.sampled_from(["store", "inbound"]), st.integers(0, 7)),
        min_size=1,
        max_size=64,
    )
)
def test_no_lost_updates_under_any_interleaving(events):
    """Property: once a CPU store owns a line, no inbound copy may land on
    it — the DRAM copy of that line must be the store's, always."""
    plb = PLB(entries=1)
    entry = plb.start(0, 0, 8, 0)
    owner = ["nobody"] * 8  # who wrote the line last, per DRAM state
    stored = set()
    for kind, line in events:
        if kind == "store":
            plb.cpu_store(entry, line)
            owner[line] = "cpu"
            stored.add(line)
        else:
            if plb.inbound_line(entry, line):
                owner[line] = "ssd"
    for line in stored:
        assert owner[line] == "cpu", f"line {line} lost a CPU store"
    # And every line that saw any event is marked copied.
    for _kind, line in events:
        assert entry.copied[line]
