"""Unit tests for message accounting."""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import fields

import pytest

from repro.sim import MessageStats
from repro.sim.stats import QueryRecord, wire_size

#: one payload per message type, so detailed-mode byte totals are known
PAYLOADS = {
    "QUERY": {"blob": "x" * 60},
    "RESPONSE": {"blob": "y" * 10},
    "UPDATE": {"n": 1},
}


def _detailed() -> MessageStats:
    return MessageStats(detailed_bytes=True)


def _send(stats: MessageStats, src: int, dst: int, mtype: str) -> None:
    stats.record_send(src, (dst,), mtype, PAYLOADS.get(mtype, {}))


def test_record_and_report() -> None:
    stats = _detailed()
    _send(stats, 1, 2, "QUERY")
    _send(stats, 2, 1, "RESPONSE")
    _send(stats, 1, 3, "QUERY")
    assert stats.total_messages == 3
    assert stats.total_bytes == (
        2 * wire_size(PAYLOADS["QUERY"]) + wire_size(PAYLOADS["RESPONSE"])
    )
    assert stats.by_type == {"QUERY": 2, "RESPONSE": 1}
    assert stats.sent_by_node[1] == 2
    assert stats.received_by_node[1] == 1


def test_record_send_counts_a_fan_out_in_one_call() -> None:
    stats = _detailed()
    tag = stats.record_send(1, [2, 3, 2], "QUERY", {"qid": "q7"})
    assert tag == "q7"
    assert stats.total_messages == 3
    assert stats.total_bytes == 3 * wire_size({"qid": "q7"})
    assert stats.by_type == {"QUERY": 3}
    assert stats.sent_by_node == {1: 3}
    assert stats.received_by_node == {2: 2, 3: 1}
    assert stats.tagged("q7") == 3
    # Counts-only mode (the default) never estimates bytes.
    plain = MessageStats()
    plain.record_send(1, [2, 3], "QUERY", {"qid": "q7"})
    assert plain.total_bytes == 0


def test_wire_tag_rule() -> None:
    assert MessageStats.wire_tag({"qid": "q", "probe_id": "p"}) == "q"
    assert MessageStats.wire_tag({"qid": "", "probe_id": "p"}) == ""
    assert MessageStats.wire_tag({"probe_id": "p"}) == "p"
    assert MessageStats.wire_tag({"sub_id": "s"}) is None


def test_messages_per_node() -> None:
    stats = MessageStats()
    for _ in range(30):
        _send(stats, 1, 2, "X")
    assert stats.messages_per_node(10) == 3.0
    with pytest.raises(ValueError):
        stats.messages_per_node(0)


def test_snapshot_is_immutable_copy() -> None:
    stats = MessageStats()
    _send(stats, 1, 2, "QUERY")
    snap = stats.snapshot()
    _send(stats, 1, 2, "QUERY")
    assert snap.total_messages == 1
    assert stats.total_messages == 2
    assert snap.by_type == {"QUERY": 1}


def test_delta_since() -> None:
    stats = _detailed()
    _send(stats, 1, 2, "QUERY")
    snap = stats.snapshot()
    _send(stats, 1, 2, "QUERY")
    _send(stats, 3, 4, "UPDATE")
    delta = stats.delta_since(snap)
    assert delta.total_messages == 2
    assert delta.total_bytes == (
        wire_size(PAYLOADS["QUERY"]) + wire_size(PAYLOADS["UPDATE"])
    )
    assert delta.by_type == {"QUERY": 1, "UPDATE": 1}
    assert delta.sent_by_node == {1: 1, 3: 1}
    assert delta.received_by_node == {2: 1, 4: 1}


def test_snapshot_messages_of() -> None:
    stats = MessageStats()
    _send(stats, 1, 2, "QUERY")
    _send(stats, 1, 2, "STATUS_UPDATE")
    _send(stats, 1, 2, "STATUS_UPDATE")
    snap = stats.snapshot()
    assert snap.messages_of("QUERY") == 1
    assert snap.messages_of("STATUS_UPDATE", "QUERY") == 3
    assert snap.messages_of("MISSING") == 0


def test_reset() -> None:
    stats = _detailed()
    _send(stats, 1, 2, "QUERY")
    stats.record_drop()
    stats.reset()
    assert stats.total_messages == 0
    assert stats.total_bytes == 0
    assert stats.dropped_messages == 0
    assert not stats.by_type


def test_reset_zeroes_every_counter_and_keeps_configuration() -> None:
    stats = MessageStats(detailed_bytes=True, max_query_log=7)
    config = {"detailed_bytes", "max_query_log"}
    counters = [spec for spec in fields(stats) if spec.name not in config]
    held = {}
    for spec in counters:
        value = getattr(stats, spec.name)
        if isinstance(value, OrderedDict):
            value["tag"] = None
        elif isinstance(value, Counter):
            value["key"] += 1
        elif isinstance(value, list):
            value.append(QueryRecord("q", 1.0, 1))
        else:
            setattr(stats, spec.name, 1)
        held[spec.name] = getattr(stats, spec.name)
        assert getattr(stats, spec.name), spec.name
    stats.reset()
    for spec in counters:
        value = getattr(stats, spec.name)
        assert not value, spec.name
        if isinstance(held[spec.name], (dict, list)):
            # Cleared in place: holders of the container keep seeing it.
            assert value is held[spec.name], spec.name
    assert stats.detailed_bytes is True
    assert stats.max_query_log == 7
