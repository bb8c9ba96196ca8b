"""Shadow domain-tag tests: the dynamic counterpart of simflow.

The suite-wide conftest enables tagging for every test, so these tests
exercise the tag algebra directly and then prove the property the
sanitizer exists for: a deliberate lpn-as-ppn misuse raises at the
mixing point, while the real systems run clean end to end.
"""

import copy
import pickle
import struct

import pytest

from repro import FlatFlash, small_config
from repro.sim import domain_tags
from repro.sim.domain_tags import DomainTagError, TaggedInt
from repro.ssd.device import ByteAddressableSSD
from repro.units import LPN, PPN, VPN, HostPage


# --------------------------------------------------------------------- #
# Enable/disable switch
# --------------------------------------------------------------------- #


def test_disabled_tagging_is_identity():
    previous = domain_tags.set_enabled(False)
    try:
        value = LPN(7)
        assert type(value) is int
        assert domain_tags.domain_of(value) is None
        # check() never raises while tagging is off.
        domain_tags.check(PPN(3), "LPN")
    finally:
        domain_tags.set_enabled(previous)


def test_set_enabled_returns_previous_state():
    previous = domain_tags.set_enabled(True)
    assert domain_tags.set_enabled(previous) is True
    assert domain_tags.enabled() == previous


# --------------------------------------------------------------------- #
# Tag algebra
# --------------------------------------------------------------------- #


def test_tagged_value_behaves_like_its_int():
    value = LPN(5)
    assert isinstance(value, int)
    assert isinstance(value, TaggedInt)
    assert int(value) == 5
    assert value.domain == "LPN"
    assert repr(value) == "LPN(5)"
    assert domain_tags.domain_of(value) == "LPN"


def test_additive_plain_keeps_the_tag():
    neighbour = LPN(5) + 1
    assert isinstance(neighbour, TaggedInt)
    assert neighbour.domain == "LPN"
    also = 1 + LPN(5)
    assert also.domain == "LPN"
    back = LPN(5) - 2
    assert back.domain == "LPN"


def test_same_domain_difference_is_a_plain_distance():
    distance = LPN(9) - LPN(2)
    assert distance == 7
    assert not isinstance(distance, TaggedInt)


def test_cross_domain_arithmetic_raises():
    with pytest.raises(DomainTagError):
        LPN(1) + PPN(2)
    with pytest.raises(DomainTagError):
        PPN(2) - VPN(1)


def test_cross_domain_comparison_raises():
    with pytest.raises(DomainTagError):
        LPN(1) < PPN(2)
    with pytest.raises(DomainTagError):
        LPN(1) == PPN(1)
    with pytest.raises(DomainTagError):
        HostPage(4) >= VPN(4)


def test_same_domain_comparison_is_plain_bool():
    assert LPN(1) < LPN(2)
    assert LPN(3) == LPN(3)
    assert PPN(5) >= PPN(5)


def test_comparison_with_plain_int_is_allowed():
    # Range checks like `0 <= ppn < total` must keep working.
    assert 0 <= PPN(3) < 10
    assert LPN(4) == 4


def test_scaling_leaves_the_domain():
    assert not isinstance(LPN(4) * 2, TaggedInt)
    assert not isinstance(LPN(9) // 2, TaggedInt)
    assert not isinstance(LPN(9) % 4, TaggedInt)
    quotient, remainder = divmod(PPN(9), 4)
    assert not isinstance(quotient, TaggedInt)
    assert not isinstance(remainder, TaggedInt)
    assert not isinstance(PPN(1) << 3, TaggedInt)


def test_scaling_still_rejects_cross_domain():
    with pytest.raises(DomainTagError):
        LPN(4) * PPN(2)
    with pytest.raises(DomainTagError):
        LPN(4) % PPN(2)


def test_hash_and_dict_keys_see_the_plain_int():
    table = {LPN(3): "entry"}
    assert table[3] == "entry"
    assert table[LPN(3)] == "entry"
    assert 3 in table
    assert hash(LPN(3)) == hash(3)


def test_struct_pack_accepts_tagged_values():
    assert struct.pack("<Q", LPN(7)) == struct.pack("<Q", 7)


def test_retagging_is_the_sanctioned_translation():
    # The cast points are the permission slip: merged-BAR mode reads a
    # host-visible page number as a flash ppn through exactly this cast.
    host_page = HostPage(PPN(12))
    assert host_page.domain == "HOST_PAGE"
    assert int(host_page) == 12


def test_pickle_and_deepcopy_preserve_the_tag():
    original = PPN(42)
    for clone in (pickle.loads(pickle.dumps(original)), copy.deepcopy(original)):
        assert isinstance(clone, TaggedInt)
        assert clone.domain == "PPN"
        assert int(clone) == 42


# --------------------------------------------------------------------- #
# check(): the consumer-side guard
# --------------------------------------------------------------------- #


def test_check_passes_untagged_and_matching_values():
    domain_tags.check(5, "PPN")
    domain_tags.check(PPN(5), "PPN")


def test_check_rejects_wrong_domain_with_context():
    with pytest.raises(DomainTagError) as excinfo:
        domain_tags.check(LPN(5), "PPN", "FlashArray")
    message = str(excinfo.value)
    assert "PPN" in message
    assert "FlashArray" in message
    assert "LPN(5)" in message


# --------------------------------------------------------------------- #
# The bug class, on the real device
# --------------------------------------------------------------------- #


def test_lpn_as_ppn_misuse_raises_on_the_flash_array():
    # No payloads: the NAND's own tag checks are what must catch the misuse.
    device = ByteAddressableSSD(small_config(track_data=False))
    host_page, _cost = device.map_page(LPN(0))
    lpn = device.resolve_lpn(host_page)
    assert domain_tags.domain_of(lpn) == "LPN"
    # Correct route: translate through the FTL first.
    ppn = device.ftl.lookup(lpn)
    assert domain_tags.domain_of(ppn) == "PPN"
    device.flash.read(ppn)
    # The classic FTL bug: handing the logical page straight to the NAND.
    with pytest.raises(DomainTagError):
        device.flash.read(lpn)
    with pytest.raises(DomainTagError):
        device.flash.program(lpn)
    with pytest.raises(DomainTagError):
        device.flash.invalidate(lpn)


def test_ppn_as_lpn_misuse_raises_on_the_cache():
    device = ByteAddressableSSD(small_config())
    _host_page, _cost = device.map_page(LPN(1))
    ppn = device.ftl.lookup(LPN(1))
    with pytest.raises(DomainTagError):
        device.cache.lookup(ppn)


def test_vpn_as_lpn_misuse_raises_on_the_ftl():
    device = ByteAddressableSSD(small_config())
    with pytest.raises(DomainTagError):
        device.ftl.map_page(VPN(0))


# --------------------------------------------------------------------- #
# The systems run clean with tagging on
# --------------------------------------------------------------------- #


def test_flatflash_end_to_end_is_tag_clean():
    assert domain_tags.enabled()
    system = FlatFlash(small_config())
    region = system.mmap(8, name="tags")
    # Hammer a few pages hard enough to trigger promotion, eviction and
    # the SSD-Cache/FTL/GC machinery behind them.
    for page in range(8):
        for _ in range(4):
            system.store(region.page_addr(page, 0), 8, b"12345678")
            system.load(region.page_addr(page, 0), 8)
    system.ssd.gc.flush_dirty()
    system.ssd.gc.collect()
    system.quiesce()
    system.munmap(region)
