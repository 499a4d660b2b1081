"""Unit tests for the simulated network."""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest

from repro.core.cluster import MoaraCluster
from repro.serve.chaos import ChaosTransport
from repro.serve.transport import LocalLoopback
from repro.sim import (
    Engine,
    LANLatencyModel,
    Message,
    MessageStats,
    Network,
    UniformLatencyModel,
    ZeroLatencyModel,
)


@dataclass
class Recorder:
    """A process that remembers everything it receives."""

    node_id: int
    received: list[Message] = field(default_factory=list)
    received_at: list[float] = field(default_factory=list)
    engine: Engine | None = None

    def handle_message(self, message: Message) -> None:
        self.received.append(message)
        if self.engine is not None:
            self.received_at.append(self.engine.now)


def make_net(
    model=None,
) -> tuple[Engine, Network, Recorder, Recorder]:
    engine = Engine()
    network = Network(engine, model or ZeroLatencyModel())
    a = Recorder(1, engine=engine)
    b = Recorder(2, engine=engine)
    network.attach(a)
    network.attach(b)
    return engine, network, a, b


def test_message_delivered(network: Network) -> None:
    a = Recorder(1)
    b = Recorder(2)
    network.attach(a)
    network.attach(b)
    network.send(1, 2, "PING", {"x": 42})
    network.engine.run_until_idle()
    assert len(b.received) == 1
    assert b.received[0].mtype == "PING"
    assert b.received[0].payload == {"x": 42}
    assert b.received[0].src == 1


def test_duplicate_attach_rejected(network: Network) -> None:
    network.attach(Recorder(1))
    with pytest.raises(ValueError):
        network.attach(Recorder(1))


def test_stats_count_messages(network: Network) -> None:
    a, b = Recorder(1), Recorder(2)
    network.attach(a)
    network.attach(b)
    for _ in range(5):
        network.send(1, 2, "QUERY")
    network.send(2, 1, "RESPONSE")
    network.engine.run_until_idle()
    stats = network.stats
    assert stats.total_messages == 6
    assert stats.by_type["QUERY"] == 5
    assert stats.by_type["RESPONSE"] == 1
    assert stats.sent_by_node[1] == 5
    assert stats.received_by_node[2] == 5
    # Counts-only default: message counts are exact, bytes are not tracked.
    assert stats.total_bytes == 0


def test_detailed_bytes_mode_tracks_bytes() -> None:
    engine = Engine()
    network = Network(engine, ZeroLatencyModel(), MessageStats(detailed_bytes=True))
    network.attach(Recorder(1))
    network.attach(Recorder(2))
    network.send(1, 2, "QUERY", {"blob": "x" * 100})
    engine.run_until_idle()
    assert network.stats.total_bytes > 100


def test_message_size_lazy_and_cached() -> None:
    engine = Engine()
    network = Network(engine, ZeroLatencyModel())  # counts-only stats
    receiver = Recorder(2)
    network.attach(Recorder(1))
    network.attach(receiver)
    network.send(1, 2, "QUERY", {"blob": "x" * 100})
    engine.run_until_idle()
    (message,) = receiver.received
    # Counts-only mode never walked the payload ...
    assert message._size is None
    # ... but the estimate is still available on demand, and cached.
    first = message.size
    assert first > 100
    assert message._size == first
    assert message.size == first


def _network_ledger() -> tuple[Network, MessageStats]:
    network = Network(Engine(), ZeroLatencyModel())
    network.attach(Recorder(1))
    network.attach(Recorder(2))
    return network, network.stats


def _loopback_ledger() -> tuple[LocalLoopback, MessageStats]:
    transport = LocalLoopback(MoaraCluster(num_nodes=8, num_frontends=0), -1)
    return transport, transport.stats


def _chaos_ledger() -> tuple[ChaosTransport, MessageStats]:
    inner, _ = _loopback_ledger()
    transport = ChaosTransport(inner)
    return transport, transport.stats


@pytest.mark.parametrize(
    "ledger",
    [_network_ledger, _loopback_ledger, _chaos_ledger],
    ids=["network", "loopback", "chaos"],
)
def test_tag_attribution_distinguishes_absent_from_falsy(ledger) -> None:
    transport, stats = ledger()
    transport.send(1, 2, "QUERY", {"qid": "q1"})
    transport.send(1, 2, "QUERY", {"qid": "q1"})
    # A falsy-but-present qid is attributed as-is, not misrouted to probe_id.
    transport.send(1, 2, "QUERY", {"qid": "", "probe_id": "p9"})
    # An absent qid falls back to the probe tag.
    transport.send(1, 2, "PROBE", {"probe_id": "p1"})
    assert stats.total_messages == 4
    assert stats.tagged("q1") == 2
    assert stats.tagged("") == 1
    assert stats.tagged("p9") == 0
    assert stats.tagged("p1") == 1


def test_send_many_counts_once_per_destination() -> None:
    engine, network, a, b = make_net()
    network.send_many(1, [2, 1, 2], "QUERY", {"qid": "q"})
    # A single send is posted on its own, never as a batch.
    network.send(2, 1, "RESPONSE", {"qid": "q"})
    engine.run_until_idle()
    stats = network.stats
    assert [m.dst for m in b.received] == [2, 2]
    assert [m.mtype for m in a.received] == ["QUERY", "RESPONSE"]
    assert stats.total_messages == 4
    assert stats.sent_by_node == {1: 3, 2: 1}
    assert stats.received_by_node == {2: 2, 1: 2}
    assert stats.tagged("q") == 4
    assert stats.batched_messages == 3


def test_crashed_destination_drops(network: Network) -> None:
    a, b = Recorder(1), Recorder(2)
    network.attach(a)
    network.attach(b)
    network.crash(2)
    network.send(1, 2, "QUERY")
    network.engine.run_until_idle()
    assert b.received == []
    assert network.stats.dropped_messages == 1
    # The send itself is still counted: the bytes left node 1.
    assert network.stats.total_messages == 1


def test_crashed_source_cannot_send(network: Network) -> None:
    a, b = Recorder(1), Recorder(2)
    network.attach(a)
    network.attach(b)
    network.crash(1)
    network.send(1, 2, "QUERY")
    network.engine.run_until_idle()
    assert b.received == []


def test_recovery_restores_delivery(network: Network) -> None:
    a, b = Recorder(1), Recorder(2)
    network.attach(a)
    network.attach(b)
    network.crash(2)
    network.recover(2)
    network.send(1, 2, "QUERY")
    network.engine.run_until_idle()
    assert len(b.received) == 1


def test_is_alive_tracks_state(network: Network) -> None:
    network.attach(Recorder(1))
    assert network.is_alive(1)
    network.crash(1)
    assert not network.is_alive(1)
    network.recover(1)
    assert network.is_alive(1)
    assert not network.is_alive(99)


def test_wire_delay_applied() -> None:
    model = UniformLatencyModel(0.5, 0.5, seed=1)
    engine, network, a, b = make_net(model)
    network.send(1, 2, "PING")
    engine.run_until_idle()
    assert b.received_at == [pytest.approx(0.5)]


def test_latency_symmetric_and_stable() -> None:
    model = UniformLatencyModel(0.01, 0.2, seed=3)
    d1 = model.wire_delay(5, 9)
    assert model.wire_delay(9, 5) == d1
    assert model.wire_delay(5, 9) == d1
    assert model.wire_delay(5, 5) == 0.0


def test_fanout_serializes_at_sender() -> None:
    """A k-way fan-out should take ~k send service times."""
    model = LANLatencyModel(wire_low=0.0, wire_high=0.0, service_time=1.0)
    engine = Engine()
    network = Network(engine, model)
    sender = Recorder(0, engine=engine)
    network.attach(sender)
    receivers = []
    for i in range(1, 5):
        receiver = Recorder(i, engine=engine)
        network.attach(receiver)
        receivers.append(receiver)
    for receiver in receivers:
        network.send(0, receiver.node_id, "QUERY")
    engine.run_until_idle()
    arrival_times = sorted(r.received_at[0] for r in receivers)
    # Each send occupies the sender for 1s; receive service is 0.5s.
    assert arrival_times == [
        pytest.approx(1.5),
        pytest.approx(2.5),
        pytest.approx(3.5),
        pytest.approx(4.5),
    ]


def test_detach_removes_node(network: Network) -> None:
    network.attach(Recorder(1))
    network.detach(1)
    assert 1 not in network.node_ids
    network.attach(Recorder(1))  # can re-attach after detach


def test_live_node_ids(network: Network) -> None:
    network.attach(Recorder(1))
    network.attach(Recorder(2))
    network.crash(1)
    assert network.live_node_ids == [2]
    assert sorted(network.node_ids) == [1, 2]
