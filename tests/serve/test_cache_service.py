"""Cache service: the shared-tier protocol over real TCP."""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.core import MoaraCluster
from repro.core.frontend import Frontend
from repro.serve.cache_service import CacheService, RemoteSizeTier
from repro.serve.fleet import ServiceThread
from repro.serve.protocol import SyncRpcChannel
from repro.serve.transport import RemoteNetwork


@pytest.fixture
def service():
    thread = ServiceThread("cache-service-test")
    service = CacheService(ttl=60.0, join_window=5.0)
    thread.call(service.start())
    yield service
    try:
        thread.call(service.close(), timeout=5.0)
    finally:
        thread.stop()


def _rpc(service: CacheService, shard: int) -> SyncRpcChannel:
    channel = SyncRpcChannel("127.0.0.1", service.port)
    channel.connect()
    welcome = channel.request(
        {"kind": "hello", "mode": "rpc", "shard": shard}
    )
    assert welcome["kind"] == "welcome"
    return channel


def test_get_put_and_single_writer_rule(service) -> None:
    key = "(web = true)"
    shard_a, shard_b = 0, 1
    rpc_a, rpc_b = _rpc(service, shard_a), _rpc(service, shard_b)
    try:
        owner = service.tier.router.owner(key)
        non_owner = shard_b if owner == shard_a else shard_a
        rpc_owner = rpc_a if owner == shard_a else rpc_b
        rpc_other = rpc_b if owner == shard_a else rpc_a
        # Anyone may fill a cold entry.
        reply = rpc_other.request(
            {"kind": "put", "key": key, "cost": 60.0, "shard": non_owner}
        )
        assert reply["applied"] is True
        # A non-owner must NOT overwrite a live entry...
        reply = rpc_other.request(
            {"kind": "put", "key": key, "cost": 999.0, "shard": non_owner}
        )
        assert reply["applied"] is False
        # ...the owner may.
        reply = rpc_owner.request(
            {"kind": "put", "key": key, "cost": 70.0, "shard": owner}
        )
        assert reply["applied"] is True
        reply = rpc_a.request({"kind": "get", "key": key, "shard": shard_a})
        assert reply["cost"] == 70.0
        stats = rpc_a.request({"kind": "stats"})["stats"]
        assert stats["single_writer_drops"] == 1
        assert stats["entries"] == 1
    finally:
        rpc_a.close()
        rpc_b.close()


def test_probe_registry_pushes_resolution_to_joined_shard(service) -> None:
    key = "(db = true)"

    async def scenario():
        # Shard 1 keeps a subscription connection open (like a real
        # front-end); shard 0 is the prober and needs RPC only.
        tier1 = RemoteSizeTier("127.0.0.1", service.port, shard=1)
        await tier1.start()
        rpc0 = _rpc(service, 0)
        try:
            rpc0.request(
                {"kind": "open", "key": key, "shard": 0, "tag": "pr-1"}
            )
            # Shard 1 misses, finds shard 0's probe in flight, joins it.
            got: list = []
            joined = tier1.join_probe(
                key, 1, 0, lambda k, cost, now: got.append((k, cost))
            )
            assert joined is True
            # A shard never joins its own probe.
            reply = rpc0.request({"kind": "join", "key": key, "shard": 0})
            assert reply["joined"] is False
            # The prober resolves; shard 1's callback fires via the push.
            reply = rpc0.request(
                {"kind": "resolve", "key": key, "tag": "pr-1", "cost": 42.0}
            )
            assert reply["resolved"] is True
            deadline = time.monotonic() + 3.0
            while not got and time.monotonic() < deadline:
                await asyncio.sleep(0.02)
            assert got == [(key, 42.0)]
            # The answer was force-published cluster-wide.
            assert tier1.get(key, 0.0, shard=1) == 42.0
            # A stale tag cannot resolve twice.
            reply = rpc0.request(
                {"kind": "resolve", "key": key, "tag": "pr-1", "cost": 7.0}
            )
            assert reply["resolved"] is False
        finally:
            rpc0.close()
            await tier1.close()

    asyncio.run(scenario())


def test_push_resolution_bumps_the_attached_network_burst(service) -> None:
    """A push is an inbound event: on a tier wired to the shard's
    :class:`RemoteNetwork` it ends the current synchronous burst, and the
    joined probe's callbacks see the resolved cost."""
    key = "(db = true)"

    async def scenario():
        network = RemoteNetwork("127.0.0.1", 1, node_id=-1, reconnect=False)
        tier = RemoteSizeTier("127.0.0.1", service.port, shard=1, network=network)
        await tier.start()
        rpc0 = _rpc(service, 0)
        try:
            rpc0.request({"kind": "open", "key": key, "shard": 0, "tag": "pr-2"})
            got: list = []
            assert tier.join_probe(
                key, 1, 0, lambda k, cost, now: got.append((k, cost))
            )
            assert len(tier.probes) == 1
            burst = network.burst_seq
            rpc0.request(
                {"kind": "resolve", "key": key, "tag": "pr-2", "cost": 9.0}
            )
            deadline = time.monotonic() + 3.0
            while not got and time.monotonic() < deadline:
                await asyncio.sleep(0.02)
            assert got == [(key, 9.0)]
            assert network.burst_seq == burst + 1
            assert len(tier.probes) == 0
        finally:
            rpc0.close()
            await tier.close()

    asyncio.run(scenario())


def test_join_window_expires_stale_probes() -> None:
    thread = ServiceThread("cache-window-test")
    service = CacheService(ttl=60.0, join_window=0.05)
    thread.call(service.start())
    try:
        rpc0, rpc1 = _rpc(service, 0), _rpc(service, 1)
        try:
            rpc0.request(
                {"kind": "open", "key": "(g = true)", "shard": 0, "tag": "t"}
            )
            time.sleep(0.15)  # older than the join window
            reply = rpc1.request(
                {"kind": "join", "key": "(g = true)", "shard": 1}
            )
            assert reply["joined"] is False
        finally:
            rpc0.close()
            rpc1.close()
    finally:
        try:
            thread.call(service.close(), timeout=5.0)
        finally:
            thread.stop()


def test_remote_tier_degrades_to_private_behaviour_when_service_dies(
    service,
) -> None:
    async def scenario():
        tier = RemoteSizeTier("127.0.0.1", service.port, shard=0)
        await tier.start()
        assert tier.put("(k = true)", 10.0, 0.0, shard=0) is True
        assert tier.get("(k = true)", 0.0, shard=0) == 10.0
        # Sever the RPC link: every call must degrade, none may raise.
        tier.rpc.close()
        tier.rpc.port = 1  # nothing listens there
        tier.rpc.host = "127.0.0.1"
        assert tier.get("(k = true)", 0.0, shard=0) is None
        assert tier.put("(k = true)", 11.0, 0.0, shard=0) is False
        assert tier.join_probe("(k = true)", 0, 0, lambda *a: None) is False
        assert tier.resolve_probe("(k = true)", "t", 5.0, 0.0) is None
        tier.open_probe("(k = true)", 0, "t", 0)  # no-op, no raise
        await tier.close()

    asyncio.run(scenario())


def test_service_learns_shards_and_rebuilds_router(service) -> None:
    assert len(service.tier.router) == 0
    rpc5 = _rpc(service, 5)
    rpc9 = _rpc(service, 9)
    try:
        assert service.tier.router.members == {5, 9}
        # owner() now works over the learned membership.
        assert service.tier.router.owner("(x = true)") in {5, 9}
    finally:
        rpc5.close()
        rpc9.close()


def test_lost_push_link_releases_joined_probes(service) -> None:
    """A shard parked on another shard's probe through the service is
    released NULL when its push connection dies: the query completes on
    default costs instead of waiting for a push that cannot arrive."""
    cluster = MoaraCluster(num_nodes=32, seed=5, num_frontends=0)
    cluster.set_group("a", cluster.node_ids[:8])
    cluster.set_group("g", cluster.node_ids[4:16])
    text = "SELECT COUNT(*) WHERE a = true AND g = true"

    async def scenario():
        tier = RemoteSizeTier("127.0.0.1", service.port, shard=1)
        await tier.start()
        rpc0 = _rpc(service, 0)
        try:
            # Shard 0's wire probe for g is in flight...
            rpc0.request(
                {"kind": "open", "key": "(g = true)", "shard": 0, "tag": "pr-0"}
            )
            fe = Frontend(
                cluster.network,
                cluster.overlay,
                node_id=-9,
                shard_id=1,
                shared_sizes=tier,  # type: ignore[arg-type]
            )
            # ...so shard 1 probes a itself and parks on g.
            qid = fe.submit(text)
            assert cluster.stats.shared_probe_joins == 1
            assert len(tier.probes) == 1
            assert tier.probes.get("(g = true)") is not None
            tier._sub_writer.close()  # the push link dies
            deadline = time.monotonic() + 3.0
            while len(tier.probes) and time.monotonic() < deadline:
                await asyncio.sleep(0.02)
            assert len(tier.probes) == 0
            cluster.run_until_idle()
            result = fe.results.pop(qid)
            assert not result.failed
            assert result.value == len(cluster.members_satisfying("a = true AND g = true"))
            assert "(g = true)" not in result.probed_costs
            assert fe.is_idle()
        finally:
            rpc0.close()
            await tier.close()

    asyncio.run(scenario())
