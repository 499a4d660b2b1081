"""ChaosTransport: scripted link faults on the loopback plane.

The contract under chaos (the same one the ``chaos_links`` campaign's
oracle enforces): the plane may answer slowly or return **explicitly
failed** results — never silently wrong answers, never a hang — and a
healed link serves correct answers again.  These tests drive each fault
kind in isolation, pin the mid-query link-kill satellite (a send on a
dead link must surface as a failed query, not a lost frame), and check
the failure path of :class:`RemoteNetwork` without any sockets.
"""

from __future__ import annotations

import json

from repro.core.cluster import MoaraCluster
from repro.serve.chaos import ChaosTransport, LinkFault
from repro.serve.transport import LocalLoopback, LoopbackPlane, RemoteNetwork
from repro.sim import network as simnet


def _backend(seed: int = 11, nodes: int = 60) -> MoaraCluster:
    cluster = MoaraCluster(num_nodes=nodes, num_frontends=0, seed=seed)
    ids = cluster.overlay.node_ids
    cluster.set_group("web", ids[: nodes // 4])
    cluster.set_attribute_all("load", 3.0)
    return cluster


def _chaos_plane(seed: int = 5, **kw) -> LoopbackPlane:
    return LoopbackPlane(_backend(**kw), num_frontends=2, chaos_seed=seed)


QUERY = "SELECT COUNT(*) WHERE web = true"
AVG = "SELECT AVG(load) WHERE web = true"


def test_chaos_wrappers_are_transparent_without_faults() -> None:
    plain = LoopbackPlane(_backend(), num_frontends=2)
    chaos = _chaos_plane()
    assert all(isinstance(t, ChaosTransport) for t in chaos.transports)
    for query in (QUERY, AVG):
        a, b = plain.query(query), chaos.query(query)
        assert json.dumps(a.value) == json.dumps(b.value)
        assert a.cover == b.cover
        assert not b.failed


def test_delay_fault_answers_slowly_but_correctly() -> None:
    reference = LoopbackPlane(_backend(), num_frontends=2).query(QUERY)
    plane = _chaos_plane()
    t0 = plane.backend.engine.now
    for transport in plane.transports:
        transport.inject(
            LinkFault("delay", delay=0.5, until=plane.backend.engine.now + 60)
        )
    result = plane.query(QUERY)
    assert not result.failed
    assert result.value == reference.value
    # The held frames forced the plane clock forward by at least one
    # round-trip's worth of injected latency.
    assert plane.backend.engine.now >= t0 + 0.5


def test_drop_fault_fails_explicitly_instead_of_hanging() -> None:
    plane = _chaos_plane()
    for transport in plane.transports:
        transport.inject(LinkFault("drop", p=1.0, direction="outbound"))
    result = plane.query(QUERY)
    assert result.failed
    # NULL resolution, not a fabricated answer: nothing contributed.
    assert result.contributors == 0
    assert result.failure
    assert any(t.drops > 0 for t in plane.transports)


def test_inbound_partition_eats_responses_and_fails_the_query() -> None:
    plane = _chaos_plane()
    for transport in plane.transports:
        transport.inject(LinkFault("partition", direction="inbound"))
    # Requests go out, every response is eaten: the query must resolve
    # as an explicit failure once the plane goes idle — never hang.
    result = plane.query(QUERY)
    assert result.failed


def test_reset_kills_in_flight_work_mid_query() -> None:
    # The transport.py satellite pin: a query whose frames are already
    # on the wire when the link dies resolves NULL *now*.  Delay holds
    # the outbound frames in flight; the reset then eats them.
    plane = _chaos_plane()
    shard = plane.route(QUERY)
    transport = plane.transports[shard]
    transport.inject(LinkFault("delay", delay=5.0, direction="outbound"))
    frontend = plane.frontends[shard]
    qid = frontend.submit(QUERY)
    assert transport.pending_release() is not None, "frames must be held"
    transport.reset_link(duration=1.0)
    transport.pump()
    assert qid in frontend.results
    result = frontend.results.pop(qid)
    assert result.failed
    assert "reset" in result.failure


def test_send_during_reset_window_fails_fast() -> None:
    plane = _chaos_plane()
    shard = plane.route(QUERY)
    transport = plane.transports[shard]
    transport.reset_link(duration=30.0)
    transport.pump()  # flush the reset's own failure event
    result = plane.query(QUERY)
    assert result.failed
    assert transport.stats.link_send_failures > 0


def test_duplicate_fault_keeps_answers_correct_and_is_accounted() -> None:
    reference = LoopbackPlane(_backend(), num_frontends=2).query(AVG)
    plane = _chaos_plane()
    for transport in plane.transports:
        transport.inject(LinkFault("duplicate", p=1.0))
    result = plane.query(AVG)
    assert not result.failed
    assert json.dumps(result.value) == json.dumps(reference.value)
    # The wire made copies and owned up to them (the probe-budget oracle
    # subtracts exactly these counts).
    assert sum(
        sum(t.dup_counts.values()) for t in plane.transports
    ) > 0


def test_faults_expire_and_the_link_heals() -> None:
    plane = _chaos_plane()
    transport = plane.transports[plane.route(QUERY)]
    transport.inject(
        LinkFault("drop", p=1.0, until=plane.backend.engine.now + 1.0)
    )
    first = plane.query(QUERY)
    assert first.failed
    plane.backend.engine.run(until=plane.backend.engine.now + 2.0)
    healed = plane.query(QUERY)
    assert not healed.failed
    reference = LoopbackPlane(_backend(), num_frontends=2).query(QUERY)
    assert healed.value == reference.value


def test_chaos_is_deterministic_from_its_seed() -> None:
    def run(seed: int) -> list[tuple[bool, object]]:
        plane = _chaos_plane(seed=seed)
        for transport in plane.transports:
            transport.inject(LinkFault("drop", p=0.5))
        out = []
        for _ in range(6):
            r = plane.query(QUERY)
            out.append((r.failed, r.value))
        return out

    assert run(9) == run(9)


def test_chaos_transport_satisfies_the_frontend_seam() -> None:
    plane = _chaos_plane()
    for transport in plane.transports:
        assert isinstance(transport, simnet.FrontendTransport)


# ---------------------------------------------------------------------------
# RemoteNetwork failure paths (no sockets)
# ---------------------------------------------------------------------------


class _RecordingFrontend:
    def __init__(self) -> None:
        self.failures: list[tuple[object, str]] = []

    def on_link_failure(self, tags, reason) -> None:
        self.failures.append((tags, reason))


def test_remote_network_send_on_dead_link_fails_the_query() -> None:
    # PR 6 lost this frame silently (the caller found out via HTTP
    # timeout); now the dead-writer send surfaces as a failed tag.
    net = RemoteNetwork("127.0.0.1", 1, node_id=-1, reconnect=False)
    frontend = _RecordingFrontend()
    net.attach(frontend)
    net.send(-1, 7, "FRONTEND_QUERY", {"qid": "q-dead"})
    # No event loop is running, so the failure lands synchronously.
    assert frontend.failures == [({"q-dead"}, "overlay link down")]
    assert net.stats.link_send_failures == 1
    assert net.stats.dropped_messages == 1


def test_remote_network_expired_deadline_refuses_the_send() -> None:
    from repro.serve.resilience import Deadline

    clock_t = [100.0]
    deadline = Deadline.after(1.0, clock=lambda: clock_t[0])
    clock_t[0] += 2.0
    net = RemoteNetwork("127.0.0.1", 1, node_id=-1, reconnect=False)
    frontend = _RecordingFrontend()
    net.attach(frontend)
    with net.deadline_scope(deadline):
        net.send(-1, 7, "SIZE_PROBE", {"probe_id": "p-late"})
    assert net.stats.deadline_expired == 1
    assert frontend.failures == [({"p-late"}, "end-to-end deadline exceeded")]


def test_reset_window_fails_the_wire_tag() -> None:
    # The reset window fails a send's query under the ledger's tag rule:
    # a falsy-but-present qid is the tag, the probe id only stands in
    # when the payload has no qid.
    chaos = ChaosTransport(LocalLoopback(_backend(), node_id=-1))
    frontend = _RecordingFrontend()
    chaos.attach(frontend)
    chaos.reset_link(duration=10.0)
    chaos.send(-1, 7, "FRONTEND_QUERY", {"qid": "", "probe_id": "p-9"})
    chaos.send(-1, 7, "SIZE_PROBE", {"probe_id": "p-1"})
    chaos.pump(drain_backend=False)
    assert frontend.failures == [
        (None, "link reset"),
        ({""}, "link reset"),
        ({"p-1"}, "link reset"),
    ]
    assert chaos.stats.link_send_failures == 2
    assert chaos.stats.tagged("") == 1
