"""Simulated message-passing network.

The network delivers :class:`Message` objects between registered
:class:`Process` instances, charging wire delay and per-node service time
according to the configured :class:`~repro.sim.latency.LatencyModel`, and
recording every send in :class:`~repro.sim.stats.MessageStats`.

Queueing model: a node serializes its sends (a k-way fan-out costs k send
service times at the sender) and serializes the ingestion of arrivals.  This
is what lets the LAN/WAN models reproduce the fan-out- and straggler-
dominated latencies of the paper's Emulab and PlanetLab experiments.

Byte accounting is lazy: a :class:`Message` does not walk its payload at
construction.  ``message.size`` is computed (and cached) on first access,
and the stats estimate bytes only with ``detailed_bytes=True`` -- the
default counts-only mode skips payload walks entirely, which is what the
paper's message-count metrics need.

Every send call -- :meth:`Network.send` for one destination,
:meth:`Network.send_many` for a fan-out -- is counted by one
:meth:`MessageStats.record_send` call, and its deliveries are posted
through the engine's ``post1_at``/``post_batch_at``.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Protocol, Sequence, runtime_checkable

from repro.sim.engine import Engine
from repro.sim.latency import LatencyModel, ZeroLatencyModel
from repro.sim.stats import MessageStats, estimate_size, wire_size

__all__ = [
    "FrontendTransport",
    "Message",
    "Network",
    "Process",
    "estimate_size",
]

#: bound ``object.__new__`` used by the network's inlined Message
#: construction (skips the ``__init__`` call frame on the hot path).
_new_message = object.__new__


@runtime_checkable
class Process(Protocol):
    """Anything that can be attached to the network."""

    node_id: int

    def handle_message(self, message: "Message") -> None:
        """Process one delivered message."""


@runtime_checkable
class FrontendTransport(Protocol):
    """The transport seam the query plane's :class:`~repro.core.frontend.
    Frontend` is written against.

    This protocol is the *entire* surface a front-end needs from the
    world, which is what lets the simulated plane (this module's
    :class:`Network`) and the deployed asyncio plane
    (:class:`repro.serve.transport.RemoteNetwork` /
    :class:`repro.serve.transport.LocalLoopback`) share the
    planner/cache/router code verbatim:

    * :meth:`attach` / :meth:`send` — register the front-end for inbound
      :class:`Message` delivery and emit wire messages toward tree roots;
    * :attr:`stats` — the :class:`~repro.sim.stats.MessageStats` ledger
      every send and query completion is recorded in;
    * :attr:`now` — the transport's clock (simulated seconds on the
      engine, monotonic wall seconds in a deployed front-end);
    * :attr:`burst_seq` — a counter that advances whenever an inbound
      event is processed.  Probe/sub-query joins are only legal within
      one ``burst_seq`` value ("same synchronous burst"), which is the
      rule that stops a lost response from poisoning later queries.
    """

    stats: MessageStats

    def attach(self, process: Process) -> None: ...

    def send(
        self,
        src: int,
        dst: int,
        mtype: str,
        payload: Optional[dict[str, Any]] = None,
    ) -> Any: ...

    @property
    def now(self) -> float: ...

    @property
    def burst_seq(self) -> int: ...


class Message:
    """A single network message.

    ``size`` is computed lazily from the payload on first access and cached
    (pass an explicit non-zero ``size`` to pin it).  Constructing a message
    therefore costs no payload walk -- the simulator's hottest allocation
    site stays O(1).
    """

    __slots__ = ("mtype", "src", "dst", "payload", "sent_at", "_size")

    def __init__(
        self,
        mtype: str,
        src: int,
        dst: int,
        payload: Optional[dict[str, Any]] = None,
        size: int = 0,
        sent_at: float = 0.0,
    ) -> None:
        self.mtype = mtype
        self.src = src
        self.dst = dst
        self.payload = {} if payload is None else payload
        self.sent_at = sent_at
        self._size: Optional[int] = size if size else None

    @property
    def size(self) -> int:
        """Estimated wire size in bytes (header + payload), computed lazily."""
        size = self._size
        if size is None:
            size = wire_size(self.payload)
            self._size = size
        return size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message({self.mtype!r}, {self.src}->{self.dst}, "
            f"payload={self.payload!r}, sent_at={self.sent_at})"
        )


class Network:
    """Delivers messages between processes over a latency model."""

    def __init__(
        self,
        engine: Engine,
        latency_model: Optional[LatencyModel] = None,
        stats: Optional[MessageStats] = None,
    ) -> None:
        self.engine = engine
        self.latency_model = latency_model or ZeroLatencyModel()
        self.stats = stats or MessageStats()
        self._processes: dict[int, Process] = {}
        self._crashed: set[int] = set()
        self._sender_free: dict[int, float] = {}
        self._receiver_free: dict[int, float] = {}
        #: the delivery callback bound ONCE: ``self._deliver`` creates a
        #: fresh bound-method object per access, and it is scheduled once
        #: per message.
        self._deliver_cb = self._deliver
        self._fast_path = isinstance(self.latency_model, ZeroLatencyModel)
        self._const_send_service = self.latency_model.constant_send_service
        self._const_receive_service = self.latency_model.constant_receive_service
        self._pair_delay_cache = self.latency_model.pair_delay_cache
        self._fused = bool(
            self.latency_model.fuse_delivery
            and self._const_receive_service is not None
        )

    @property
    def now(self) -> float:
        """The transport clock (:class:`FrontendTransport` seam)."""
        return self.engine._now

    @property
    def burst_seq(self) -> int:
        """Synchronous-burst counter (:class:`FrontendTransport` seam):
        the engine's processed-event count, which only advances between
        bursts of same-tick submissions."""
        return self.engine.events_processed

    def set_latency_model(self, model: LatencyModel) -> None:
        """Swap the latency model (e.g., after node ids are known)."""
        self.latency_model = model
        self._fast_path = isinstance(model, ZeroLatencyModel)
        # Models with node-independent service times publish them as
        # constants so the per-message path skips two method calls.
        self._const_send_service = model.constant_send_service
        self._const_receive_service = model.constant_receive_service
        self._pair_delay_cache = model.pair_delay_cache
        # Models with a deterministic constant receive service opt into
        # fused delivery: the receiver-serialized ready time is computed
        # at send time and the arrive+deliver event pair collapses to one.
        self._fused = bool(
            model.fuse_delivery and self._const_receive_service is not None
        )

    def attach(self, process: Process) -> None:
        """Register a process under its ``node_id``."""
        node_id = process.node_id
        if node_id in self._processes:
            raise ValueError(f"node {node_id} already attached")
        self._processes[node_id] = process
        self._crashed.discard(node_id)

    def detach(self, node_id: int) -> None:
        """Remove a process entirely (graceful leave)."""
        self._processes.pop(node_id, None)
        self._crashed.discard(node_id)

    def crash(self, node_id: int) -> None:
        """Mark a node as failed; its in-flight and future messages drop."""
        if node_id in self._processes:
            self._crashed.add(node_id)

    def recover(self, node_id: int) -> None:
        """Bring a crashed node back."""
        self._crashed.discard(node_id)

    def is_alive(self, node_id: int) -> bool:
        """True if the node is attached and not crashed."""
        return node_id in self._processes and node_id not in self._crashed

    def filter_alive(self, node_ids: Iterable[int]) -> set[int]:
        """The subset of ``node_ids`` that is attached and not crashed.

        One call for a whole fan-out target set instead of one
        :meth:`is_alive` call per target (hot path: query forwarding).
        When every target is alive the *input set itself* is returned --
        callers must treat the result as read-only."""
        processes = self._processes
        crashed = self._crashed
        if not crashed:
            if isinstance(node_ids, (set, frozenset)):
                # C-level subset probe; the common no-failures case does
                # no per-element Python work and allocates nothing.
                if processes.keys() >= node_ids:
                    return node_ids
                return {n for n in node_ids if n in processes}
            return {n for n in node_ids if n in processes}
        return {n for n in node_ids if n in processes and n not in crashed}

    @property
    def node_ids(self) -> list[int]:
        """All attached node ids (crashed or not)."""
        return list(self._processes)

    @property
    def live_node_ids(self) -> list[int]:
        """Attached node ids that are not crashed."""
        return [n for n in self._processes if n not in self._crashed]

    def send(
        self,
        src: int,
        dst: int,
        mtype: str,
        payload: Optional[dict[str, Any]] = None,
    ) -> None:
        """Send one message (the one-destination case of :meth:`send_many`).

        Kept as its own body rather than delegating: a reply is the most
        frequent send, and the delegation's extra frame and message list
        measurably slowed the LAN workload.  It counts and posts through
        the same :meth:`MessageStats.record_send` and ``post1_at`` calls,
        and posts a single event, never a batch.
        """
        if payload is None:
            payload = {}
        stats = self.stats
        stats.record_send(src, (dst,), mtype, payload)
        if src in self._crashed:
            # A crashed node cannot actually emit traffic.
            stats.dropped_messages += 1
            return
        engine = self.engine
        now = engine._now  # plain slot read; .now is a property
        # Inlined Message construction: no __init__ frame per message.
        message = _new_message(Message)
        message.mtype = mtype
        message.src = src
        message.dst = dst
        message.payload = payload
        message.sent_at = now
        message._size = None
        if self._fast_path:
            engine.post1_at(now, self._deliver_cb, message)
            return
        model = self.latency_model
        depart = self._sender_free.get(src, 0.0)
        if depart < now:
            depart = now
        svc = self._const_send_service
        depart += svc if svc is not None else model.send_service_time(src)
        self._sender_free[src] = depart
        # Probe the model's per-pair memo inline (saves a method call on
        # every warm pair); a miss computes and fills it.
        cache = self._pair_delay_cache
        if cache is not None:
            delay = cache.get((src, dst) if src <= dst else (dst, src))
            if delay is None:
                delay = model.wire_delay(src, dst)
        else:
            delay = model.wire_delay(src, dst)
        arrival = depart + delay
        if not self._fused:
            engine.post1_at(arrival, self._arrive, message)
            return
        # Fused arrive+deliver: the receive-side serialization is a
        # published constant, so the ready time is computable here and
        # the message schedules as ONE delivery event instead of an arrive
        # event that re-schedules a deliver event.
        stats.fused_deliveries += 1
        rsvc = self._const_receive_service
        if rsvc:
            ready = self._receiver_free.get(dst, 0.0)
            if ready < arrival:
                ready = arrival
            arrival = ready + rsvc
            self._receiver_free[dst] = arrival
        engine.post1_at(arrival, self._deliver_cb, message)

    def send_many(
        self,
        src: int,
        dsts: Sequence[int],
        mtype: str,
        payload: Optional[dict[str, Any]] = None,
    ) -> None:
        """Send one payload from ``src`` to every node in ``dsts``.

        Every message is counted in stats, once per call (the bytes left
        ``src`` whether or not a destination is alive on arrival),
        matching the paper's message accounting.  The destinations share
        the payload dict: receivers treat payloads as read-only.  On a
        zero-latency model every delivery lands at the current tick, so
        the whole fan-out posts as ONE engine batch entry (the engine
        fires one event per item, in order, so ``burst_seq`` advances
        exactly as for one post per message).
        """
        n = len(dsts)
        if not n:
            return
        if payload is None:
            payload = {}
        stats = self.stats
        stats.record_send(src, dsts, mtype, payload)
        if src in self._crashed:
            # A crashed node cannot actually emit traffic.
            stats.dropped_messages += n
            return
        engine = self.engine
        now = engine._now  # plain slot read; .now is a property
        fast = self._fast_path
        messages = engine.batch_list() if fast else []
        for dst in dsts:
            # Inlined Message construction: no __init__ frame per message.
            message = _new_message(Message)
            message.mtype = mtype
            message.src = src
            message.dst = dst
            message.payload = payload
            message.sent_at = now
            message._size = None
            messages.append(message)
        if fast:
            stats.batched_messages += n
            engine.post_batch_at(now, self._deliver_cb, messages)
            return
        model = self.latency_model
        svc = self._const_send_service
        cache = self._pair_delay_cache
        post1 = engine.post1_at
        if self._fused:
            # Fused arrive+deliver, as in send().
            stats.fused_deliveries += n
            callback = self._deliver_cb
            rsvc = self._const_receive_service
        else:
            callback = self._arrive
            rsvc = None
        receiver_free = self._receiver_free
        depart = self._sender_free.get(src, 0.0)
        if depart < now:
            depart = now
        for message in messages:
            dst = message.dst
            depart += svc if svc is not None else model.send_service_time(src)
            if cache is not None:
                delay = cache.get((src, dst) if src <= dst else (dst, src))
                if delay is None:
                    delay = model.wire_delay(src, dst)
            else:
                delay = model.wire_delay(src, dst)
            arrival = depart + delay
            if rsvc:
                ready = receiver_free.get(dst, 0.0)
                if ready < arrival:
                    ready = arrival
                ready += rsvc
                receiver_free[dst] = ready
                post1(ready, callback, message)
            else:
                post1(arrival, callback, message)
        self._sender_free[src] = depart

    def _arrive(self, message: Message) -> None:
        """Arrival at the destination NIC: queue behind earlier arrivals."""
        dst = message.dst
        if dst not in self._processes or dst in self._crashed:
            self.stats.record_drop()
            return
        now = self.engine._now
        ready = self._receiver_free.get(dst, 0.0)
        if ready < now:
            ready = now
        svc = self._const_receive_service
        ready += svc if svc is not None else self.latency_model.receive_service_time(dst)
        self._receiver_free[dst] = ready
        if ready <= now:
            self._deliver(message)
        else:
            self.engine.post1_at(ready, self._deliver_cb, message)

    def _deliver(self, message: Message) -> None:
        dst = message.dst
        process = self._processes.get(dst)
        crashed = self._crashed
        if process is None or (crashed and dst in crashed):
            self.stats.record_drop()
            return
        process.handle_message(message)
