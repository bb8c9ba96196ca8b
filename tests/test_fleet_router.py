"""Property-based tests: the shard router is a bijection, always.

Whatever sequence of placements, remaps and removals failover throws at
it, the router must remain a bijection between placed global pages and
``(device, local page)`` slots — and a fleet built on it must survive
the removal of any single device when durable pages carry replicas.
"""

from hypothesis import given, settings, strategies as st

from repro.config import small_config
from repro.fleet import FleetConfig, FlatFlashFleet, ShardRouter, make_policy

NUM_DEVICES = 3

policies = st.sampled_from(["striped", "hashed", "blocked"])

# A placement script: (vpn, device, local) triples drawn from small
# ranges so collisions (already-placed pages, claimed slots) do occur
# and must be rejected without corrupting the map.
placements = st.lists(
    st.tuples(
        st.integers(0, 23),
        st.integers(0, NUM_DEVICES - 1),
        st.integers(0, 15),
    ),
    min_size=1,
    max_size=60,
)


def _assert_bijective(router, model):
    """The router agrees with a plain dict model and is one-to-one."""
    assert len(router) == len(model)
    assert router.placed_vpns() == sorted(model)
    slots = list(model.values())
    assert len(set(slots)) == len(slots), "two pages share a slot"
    for vpn, (device, local) in model.items():
        assert router.route(vpn) == (device, local)
        assert router.vpn_at(device, local) == vpn
    for device in range(NUM_DEVICES):
        expected = sorted(
            (vpn, local)
            for vpn, (dev, local) in model.items()
            if dev == device
        )
        assert router.pages_on(device) == expected


@settings(deadline=None, max_examples=60)
@given(policies, placements)
def test_router_stays_bijective_under_placement(policy_name, script):
    router = ShardRouter(make_policy(policy_name), NUM_DEVICES)
    model = {}
    for vpn, device, local in script:
        try:
            router.place(vpn, device, local)
        except ValueError:
            # Page already placed or slot already claimed: the model
            # must agree that this placement was illegal.
            assert vpn in model or (device, local) in model.values()
        else:
            assert vpn not in model and (device, local) not in model.values()
            model[vpn] = (device, local)
    _assert_bijective(router, model)


@settings(deadline=None, max_examples=60)
@given(
    placements,
    st.lists(
        st.tuples(
            st.integers(0, 23),
            st.integers(0, NUM_DEVICES - 1),
            st.integers(16, 31),  # remap targets in a disjoint slot range
        ),
        max_size=40,
    ),
)
def test_router_round_trips_under_remap(script, moves):
    router = ShardRouter(make_policy("striped"), NUM_DEVICES)
    model = {}
    for vpn, device, local in script:
        if vpn not in model and (device, local) not in model.values():
            router.place(vpn, device, local)
            model[vpn] = (device, local)
    for vpn, device, local in moves:
        if vpn in model and (device, local) not in model.values():
            router.remap(vpn, device, local)
            model[vpn] = (device, local)
        _assert_bijective(router, model)
    _assert_bijective(router, model)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 23))
def test_policies_pick_devices_in_range(vpn):
    for name in ("striped", "hashed", "blocked"):
        policy = make_policy(name, chunk=4)
        device = policy.device_of(vpn, NUM_DEVICES)
        assert 0 <= device < NUM_DEVICES
        # Pure function of the page number: replayable by construction.
        assert device == policy.device_of(vpn, NUM_DEVICES)


# --------------------------------------------------------------------- #
# End-to-end: arbitrary single-device removal with R >= 2
# --------------------------------------------------------------------- #

writes = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 255)),
    min_size=1,
    max_size=30,
)


@settings(deadline=None, max_examples=12)
@given(policies, st.integers(0, NUM_DEVICES - 1), writes)
def test_fleet_survives_any_single_device_removal(policy_name, victim, ops):
    fleet = FlatFlashFleet(
        small_config(track_data=True),
        FleetConfig(
            num_devices=NUM_DEVICES,
            replication_factor=2,
            striping=policy_name,
            stripe_chunk_pages=2,
        ),
    )
    region = fleet.mmap(8, persist=True, name="durable")
    expected = {}
    for page, value in ops:
        fleet.store_u64(region.page_addr(page), value)
        expected[page] = value
    fleet.devices[victim].ssd.fail_stop()
    # Durable pages must read back intact from the promoted replicas,
    # and the router must still be a bijection over all placed pages.
    for page, value in expected.items():
        got, _ = fleet.load_u64(region.page_addr(page))
        assert got == value
    assert fleet.fleet_summary()["durable_pages_lost"] == 0
    router = fleet._router
    for vpn in router.placed_vpns():
        device, local = router.route(vpn)
        assert device != victim or fleet.device_state(victim) == "active"
        assert router.vpn_at(device, local) == vpn
