"""Property tests for the platform's server table (repro.platform.cluster).

Placement slices one free-capacity table per platform instead of
rebuilding it from the servers on every call.  These tests check the
table against the server ledgers through random placements, migrations
and new sites, and pin that placement picks the same servers as a table
rebuilt on every call.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import Scenario
from repro.errors import CapacityError, PlacementError
from repro.geo.coords import GeoPoint
from repro.platform.cluster import Platform, ServerTable
from repro.platform.entities import (
    App,
    Customer,
    PlatformKind,
    ResourceVector,
    Server,
    Site,
    VMSpec,
)
from repro.platform.migration import migrate
from repro.platform.nep import build_nep_platform
from repro.platform.placement import (
    BestFitPolicy,
    FirstFitPolicy,
    NepPlacementPolicy,
    RandomPolicy,
    SubscriptionRequest,
)

PROVINCES = ("Beijing", "Hebei")
POLICIES = ("nep", "first-fit", "best-fit", "random")


def _policy(name: str, seed: int):
    if name == "random":
        return RandomPolicy(np.random.default_rng(seed))
    return {"nep": NepPlacementPolicy, "first-fit": FirstFitPolicy,
            "best-fit": BestFitPolicy}[name]()


def _site(index: int, cores: list[int]) -> Site:
    province = PROVINCES[index % len(PROVINCES)]
    site = Site(site_id=f"s{index}", name=f"site-{index}", city=province,
                province=province, location=GeoPoint(30.0 + index, 110.0))
    for m, count in enumerate(cores):
        site.servers.append(Server(
            server_id=f"s{index}-m{m}", site_id=site.site_id,
            capacity=ResourceVector(count, count * 4, 2_000)))
    return site


def _tenant(platform: Platform) -> Platform:
    platform.register_customer(Customer("c0", "cust"))
    platform.register_app(App("a0", "c0", "cdn", "img0"))
    return platform


def _request(count: int, cores: int, province: str | None):
    return SubscriptionRequest(
        customer_id="c0", app_id="a0", image_id="img0",
        spec=VMSpec(cores, cores * 2, 100), vm_count=count,
        province=province)


def _try_migrate(platform: Platform, vm_pick: int, server_pick: int) -> None:
    placed = [vm for vm in platform.vms.values() if vm.placed]
    if not placed:
        return
    servers = list(platform.iter_servers())
    target = servers[server_pick % len(servers)]
    try:
        migrate(platform, placed[vm_pick % len(placed)], target.server_id)
    except CapacityError:
        pass


def _assert_table_current(platform: Platform) -> None:
    """The platform's table equals one rebuilt from the server ledgers."""
    table = platform.server_table()
    servers = list(platform.iter_servers())
    assert len(table.servers) == len(servers)
    assert all(a is b for a, b in zip(table.servers, servers))
    np.testing.assert_array_equal(
        table.cap_cpu, [s.capacity.cpu_cores for s in servers])
    np.testing.assert_array_equal(
        table.free_cpu,
        [s.capacity.cpu_cores - s.allocated.cpu_cores for s in servers])
    np.testing.assert_array_equal(
        table.free_mem,
        [s.capacity.memory_gb - s.allocated.memory_gb for s in servers])
    np.testing.assert_array_equal(
        table.free_disk,
        [s.capacity.disk_gb - s.allocated.disk_gb for s in servers])


_PLACE = st.tuples(st.just("place"), st.sampled_from(POLICIES),
                   st.sampled_from((None, *PROVINCES)), st.integers(1, 6),
                   st.integers(1, 16), st.booleans())
_MIGRATE = st.tuples(st.just("migrate"), st.integers(0, 999),
                     st.integers(0, 999))
_ADD_SITE = st.tuples(st.just("add_site"),
                      st.lists(st.integers(4, 32), min_size=1, max_size=3))


class TestServerTable:
    @settings(max_examples=80, deadline=None)
    @given(ops=st.lists(st.one_of(_PLACE, _MIGRATE, _ADD_SITE),
                        max_size=25),
           checks=st.lists(st.booleans(), min_size=25, max_size=25),
           seed=st.integers(0, 3))
    def test_table_tracks_server_ledgers(self, ops, checks, seed):
        platform = _tenant(Platform(name="t", kind=PlatformKind.EDGE))
        for index in range(2):
            platform.add_site(_site(index, [16, 32, 8]))
        policies = {name: _policy(name, seed) for name in POLICIES}
        for op, check in zip(ops, checks):
            if op[0] == "place":
                _, name, province, count, cores, partial = op
                try:
                    policies[name].place(platform,
                                         _request(count, cores, province),
                                         allow_partial=partial)
                except PlacementError:
                    pass
            elif op[0] == "migrate":
                _try_migrate(platform, op[1], op[2])
            else:
                platform.add_site(_site(len(platform.sites), op[1]))
            # Sometimes let the next operation find no table built yet.
            if check:
                _assert_table_current(platform)
        _assert_table_current(platform)
        platform.validate()

    def test_table_is_not_pickled(self):
        platform = _tenant(Platform(name="t", kind=PlatformKind.EDGE))
        platform.add_site(_site(0, [16, 8]))
        before = pickle.dumps(platform)
        NepPlacementPolicy().place(platform, _request(1, 4, None))
        placed = pickle.dumps(platform)
        # Pickling drops the table and unhooks its servers...
        assert platform._server_table is None
        assert all(s._table_slot is None for s in platform.iter_servers())
        assert pickle.dumps(platform) == placed
        # ...so a platform never placed on pickles as it always did.
        fresh = pickle.loads(before)
        fresh.server_table()
        assert pickle.dumps(fresh) == before
        for copy in (platform, pickle.loads(placed)):
            NepPlacementPolicy().place(copy, _request(2, 4, None))
            _assert_table_current(copy)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", POLICIES)
    def test_assignments_match_rebuild_per_call(self, name, seed,
                                                monkeypatch):
        def assignments() -> list[tuple[str, str | None]]:
            scenario = Scenario.smoke_scale().with_overrides(seed=seed)
            platform = _tenant(build_nep_platform(scenario))
            policy = _policy(name, seed)
            rng = np.random.default_rng(seed)
            provinces = sorted({site.province for site in platform.sites})
            for step in range(60):
                province = provinces[int(rng.integers(len(provinces)))] \
                    if rng.random() < 0.7 else None
                request = _request(int(rng.integers(1, 30)),
                                   int(rng.choice([2, 4, 8, 16, 32])),
                                   province)
                try:
                    policy.place(platform, request,
                                 allow_partial=bool(rng.random() < 0.5))
                except PlacementError:
                    pass
                if step % 7 == 0:
                    _try_migrate(platform, int(rng.integers(999)),
                                 int(rng.integers(999)))
            return [(vm.vm_id, vm.server_id) for vm in platform.vms.values()]

        kept = assignments()
        # The placement before the platform owned its table: columns
        # rebuilt from the servers on every call.
        monkeypatch.setattr(Platform, "server_table",
                            lambda self: ServerTable(self.sites))
        rebuilt = assignments()
        assert len(kept) > 100
        assert kept == rebuilt
