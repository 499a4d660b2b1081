"""Transport-level fault injection for the loopback serve plane.

:class:`ChaosTransport` wraps a :class:`~repro.serve.transport.
LocalLoopback` and misbehaves like a real overlay link under a scripted
network fault: frames are dropped, delayed, duplicated, one-way
partitioned, or the whole link is reset mid-flight.  Faults are
**deterministic from a seed** (one private ``random.Random`` per wrapped
link, consulted in frame order on a single thread), so a chaos campaign
replays bit-identically.

The wrapper sits on both sides of the link:

* **outbound** (front-end → overlay): ``send`` applies the active
  faults before the frame reaches the backend cluster.  A send during a
  reset window *fails fast* — the affected query resolves NULL via
  :meth:`repro.core.frontend.Frontend.on_link_failure`, exactly the
  dead-socket behaviour of :class:`~repro.serve.transport.RemoteNetwork`
  — while a partition eats the frame silently (the sender cannot tell).
* **inbound** (overlay → front-end): the wrapper attaches itself to the
  inner transport and filters the delivery stream the same way.

Held (delayed) frames release on the backend's simulated clock during
:meth:`pump`; :meth:`pending_release` lets the plane driver advance the
clock to the next release instead of declaring the plane stuck.

The campaign schema exposes all of this as ``faults:`` entries next to
the crash/rack failure kinds (see ``docs/CAMPAIGNS.md``); the oracle's
contract under chaos is: answers may be slow or **explicitly failed**
(``QueryResult.failed``), but never wrong, and no in-flight state may
leak once the plane quiesces.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import Counter
from typing import Any, Optional

from repro.serve.transport import LocalLoopback
from repro.sim.network import Message

__all__ = ["ChaosTransport", "LinkFault"]

#: fault kinds, in the order they are consulted per frame (a reset
#: window preempts everything; a partition/drop eats the frame before
#: delay or duplicate get a say).
FAULT_KINDS = ("reset", "partition", "drop", "delay", "duplicate")
DIRECTIONS = ("outbound", "inbound", "both")


class LinkFault:
    """One active fault on one direction of one link."""

    __slots__ = ("kind", "direction", "p", "delay", "until")

    def __init__(
        self,
        kind: str,
        direction: str = "both",
        p: float = 1.0,
        delay: float = 0.0,
        until: Optional[float] = None,
    ) -> None:
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")
        if direction not in DIRECTIONS:
            raise ValueError(f"unknown fault direction {direction!r}")
        self.kind = kind
        self.direction = direction
        self.p = p
        self.delay = delay
        #: plane-time expiry; None = active until cleared explicitly
        self.until = until

    def matches(self, direction: str, now: float) -> bool:
        if self.until is not None and now >= self.until:
            return False
        return self.direction in (direction, "both")


class ChaosTransport:
    """A fault-injecting frame proxy around :class:`LocalLoopback`.

    Implements the same :class:`~repro.sim.network.FrontendTransport`
    seam, so an unmodified front-end attaches to it exactly as it would
    to the real link.
    """

    #: duck-type marker the loopback plane uses to decide whether an
    #: idle-with-missing stall is an injected fault (resolve NULL) or a
    #: plane bug (raise).
    is_chaos = True

    def __init__(self, inner: LocalLoopback, seed: int = 0) -> None:
        self.inner = inner
        self.node_id = inner.node_id
        self.stats = inner.stats
        self._rng = random.Random(seed)
        self._frontend: Any = None
        self._faults: list[LinkFault] = []
        self._dead_until = float("-inf")
        self._seq = itertools.count()
        #: held (delayed) frames: (release_at, seq, direction, thunk-args)
        self._held: list[tuple] = []
        #: queued NULL-resolutions delivered on the next pump, so a send
        #: failing mid-``submit`` never re-enters the front-end
        self._pending_failures: list[tuple[Optional[set], str]] = []
        #: extra copies injected per message type (the probe-budget
        #: oracle subtracts these: a duplicated SIZE_PROBE is the wire's
        #: doing, not a front-end regression)
        self.dup_counts: Counter = Counter()
        self.drops = 0
        self.resets = 0
        inner.attach(self)

    # -- FrontendTransport seam ---------------------------------------

    def attach(self, process: Any) -> None:
        self._frontend = process

    @property
    def now(self) -> float:
        return self.inner.now

    @property
    def burst_seq(self) -> int:
        return self.inner.burst_seq

    def send(
        self,
        src: int,
        dst: int,
        mtype: str,
        payload: Optional[dict[str, Any]] = None,
    ) -> None:
        if payload is None:
            payload = {}
        tag = self.stats.record_send(src, (dst,), mtype, payload)
        now = self.now
        if now < self._dead_until:
            # Reset window: the socket is gone, the sender *knows* — the
            # affected query fails fast instead of waiting out a timeout.
            self.stats.record_drop()
            self.stats.link_send_failures += 1
            self.drops += 1
            if tag is not None:
                self._pending_failures.append(({tag}, "link reset"))
            return
        fate, delay = self._fate("outbound", now)
        if fate == "drop":
            self.stats.record_drop()
            self.drops += 1
            return
        if fate == "delay":
            heapq.heappush(
                self._held,
                (now + delay, next(self._seq), "out", (src, dst, mtype, payload)),
            )
            return
        self.inner.backend.network.send(src, dst, mtype, payload)
        if fate == "duplicate":
            self.dup_counts[mtype] += 1
            self.inner.backend.network.send(src, dst, mtype, payload)

    # -- inbound interception (we are the inner transport's frontend) --

    def handle_message(self, message: Message) -> None:
        now = self.now
        if now < self._dead_until:
            self.stats.record_drop()
            self.drops += 1
            return
        fate, delay = self._fate("inbound", now)
        if fate == "drop":
            self.stats.record_drop()
            self.drops += 1
            return
        if fate == "delay":
            heapq.heappush(
                self._held, (now + delay, next(self._seq), "in", message)
            )
            return
        self._deliver_in(message)
        if fate == "duplicate":
            self.dup_counts[message.mtype] += 1
            self._deliver_in(message)

    def on_membership_change(self, joined: set, left: set) -> None:
        # Control-plane pass-through: membership deltas model the
        # overlay service's push stream, which chaos does not script
        # (crash/rack failure kinds already cover membership churn).
        if self._frontend is not None:
            self._frontend.on_membership_change(joined, left)

    def _deliver_in(self, message: Message) -> None:
        if self._frontend is not None:
            self._frontend.handle_message(message)

    def _fate(self, direction: str, now: float) -> tuple[str, float]:
        """Decide one frame's fate from the active faults (first match
        in FAULT_KINDS order wins; duplicate composes with delivery)."""
        self._faults = [
            f for f in self._faults if f.until is None or now < f.until
        ]
        for kind in ("partition", "drop"):
            for fault in self._faults:
                if fault.kind == kind and fault.matches(direction, now):
                    if kind == "partition" or self._rng.random() < fault.p:
                        return "drop", 0.0
        for fault in self._faults:
            if fault.kind == "delay" and fault.matches(direction, now):
                if self._rng.random() < fault.p:
                    return "delay", fault.delay
        for fault in self._faults:
            if fault.kind == "duplicate" and fault.matches(direction, now):
                if self._rng.random() < fault.p:
                    return "duplicate", 0.0
        return "deliver", 0.0

    # -- fault scripting ----------------------------------------------

    def inject(self, fault: LinkFault) -> LinkFault:
        """Activate a drop/delay/duplicate/partition fault; ``reset``
        faults go through :meth:`reset_link` (they are an event, not a
        state)."""
        if fault.kind == "reset":
            self.reset_link(
                0.0 if fault.until is None else max(0.0, fault.until - self.now)
            )
            return fault
        self._faults.append(fault)
        return fault

    def clear(self, fault: LinkFault) -> None:
        if fault in self._faults:
            self._faults.remove(fault)

    def reset_link(self, duration: float = 0.0) -> None:
        """Kill the link now: every held frame is lost, everything in
        flight fails (NULL resolution), and for ``duration`` seconds
        further sends fail fast — the loopback analog of a TCP RST
        followed by :class:`RemoteNetwork`'s reconnect window."""
        self.resets += 1
        lost = len(self._held)
        self._held.clear()
        self.drops += lost
        for _ in range(lost):
            self.stats.record_drop()
        self._dead_until = max(self._dead_until, self.now + duration)
        self._pending_failures.append((None, "link reset"))

    # -- delivery ------------------------------------------------------

    def pending_release(self) -> Optional[float]:
        """Earliest held-frame release time (None when nothing is held)."""
        return self._held[0][0] if self._held else None

    def pump(self, drain_backend: bool = True) -> int:
        """Inner pump + release due held frames + deliver queued
        failures; returns total events delivered (activity signal)."""
        delivered = self.inner.pump(drain_backend=drain_backend)
        now = self.now
        while self._held and self._held[0][0] <= now:
            _, _, direction, item = heapq.heappop(self._held)
            delivered += 1
            if direction == "out":
                self.inner.backend.network.send(*item)
            else:
                self._deliver_in(item)
        while self._pending_failures:
            tags, reason = self._pending_failures.pop(0)
            delivered += 1
            if self._frontend is not None:
                self._frontend.on_link_failure(tags, reason)
        return delivered

    def close(self) -> None:
        self.inner.close()
