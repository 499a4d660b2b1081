"""The standalone shared group-size cache service.

One process hosts a :class:`repro.core.plan_cache.SharedGroupSizeCache`
— the *same class* the in-process sharded plane uses, not a re-implementation
— and speaks its single-writer / probe-registry protocol over TCP so that
front-end shards in different processes still get the tier's guarantees:

* one wire probe per group **cluster-wide** (a shard that misses while
  another shard's probe is in flight subscribes to that probe's answer
  through the service instead of duplicating it);
* single-writer-per-group for piggybacked estimates (the group's
  consistent-hash owner shard wins; everyone else's stale writes drop);
* one churn feed for adaptive TTLs (the service observes overlay
  membership once, not once per shard).

The in-process tier remains the **default** backend — a front-end server
started without ``--cache`` builds its own private
:class:`~repro.core.plan_cache.GroupSizeCache` exactly like a standalone
simulated front-end.  The service is the opt-in piece that makes N
front-end *processes* behave like the one-process sharded plane.

Each front-end keeps **two** connections:

* an *RPC* connection (``hello {mode: "rpc", shard}``) carrying strictly
  request/response traffic (``get``/``put``/``open``/``join``/
  ``resolve``/``stats``/…).  The front-end's cache calls are synchronous,
  so the client blocks one localhost round-trip per call
  (:class:`repro.serve.protocol.SyncRpcChannel`) — the memcached trade.
* a *subscription* connection (``hello {mode: "sub", shard}``) on which
  the service pushes ``resolved {key, cost}`` frames when a probe this
  shard subscribed to is answered by its prober (or released NULL by
  churn).

Time: clients' clocks are not comparable, so the service timestamps
everything (entry TTLs, probe joinability) with **its own** clock.  The
simulator's same-synchronous-burst joinability rule becomes a wall-clock
window here: the service builds the tier with a join predicate that
accepts a probe for ``join_window`` seconds after it opened, and stamps
every open and join with its clock.  The registry around that predicate
(a :class:`~repro.core.single_flight.SingleFlight` table) is untouched
shared code.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Optional

from repro.core.adaptive_ttl import AdaptiveTTL
from repro.core.plan_cache import (
    CacheStats,
    ShardedSizeCache,
    SharedGroupSizeCache,
)
from repro.core.shard_router import FrontendShardRouter
from repro.core.single_flight import SingleFlight, always_joinable
from repro.serve.protocol import (
    FrameError,
    SyncRpcChannel,
    encode_frame,
    read_frame,
)
from repro.serve.resilience import CircuitBreaker, DeadlineExceeded

__all__ = ["CacheService", "RemoteSizeTier"]

#: default cross-shard probe-join window (seconds).  Generous relative
#: to a localhost probe round-trip, small relative to any TTL: a probe
#: older than this is presumed stuck and a fresh one is sent instead —
#: the same bias the simulator's same-burst rule encodes.
DEFAULT_JOIN_WINDOW = 0.25


class CacheService:
    """Serve a :class:`SharedGroupSizeCache` tier on a TCP port."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        num_shards: Optional[int] = None,
        ttl: float = 60.0,
        ttl_min: float = 5.0,
        adaptive: bool = True,
        churn_window: float = 30.0,
        join_window: float = DEFAULT_JOIN_WINDOW,
        overlay_addr: Optional[tuple[str, int]] = None,
    ) -> None:
        self.host = host
        self.port = port
        self._t0 = time.monotonic()
        #: None = learn the shard set from client HELLOs (the router is
        #: rebuilt via from_members as shards introduce themselves);
        #: an int pins the ring to shards 0..N-1 up front.
        self._fixed_shards = num_shards
        self._members: set[int] = (
            set(range(num_shards)) if num_shards else set()
        )
        router = (
            FrontendShardRouter(num_shards)
            if num_shards
            else FrontendShardRouter.from_members(set())
        )
        self.join_window = join_window
        self.tier = SharedGroupSizeCache(
            router=router,
            ttl=ttl,
            ttl_policy=AdaptiveTTL.if_enabled(
                adaptive, ttl_min, ttl, churn_window
            ),
            # Remote shards share no event counter: a probe stays
            # joinable for join_window seconds of this service's clock
            # (opens and joins are stamped with self.now()).
            joinable=lambda flight, now: now - flight.token <= join_window,
        )
        self.overlay_addr = overlay_addr
        self._server: Optional[asyncio.base_events.Server] = None
        #: shard -> subscription writers (pushes fan out to all of them).
        self._subs: dict[int, set[asyncio.StreamWriter]] = {}
        #: every live client connection (RPC and sub) — severed on
        #: close(), so clients of a dead service see a dead socket
        #: instead of a ghost that keeps answering from stale state.
        self._writers: set[asyncio.StreamWriter] = set()
        self._observer_task: Optional[asyncio.Task] = None

    def now(self) -> float:
        return time.monotonic() - self._t0

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.overlay_addr is not None:
            self._observer_task = asyncio.ensure_future(
                self._observe_overlay()
            )

    async def close(self) -> None:
        if self._observer_task is not None:
            self._observer_task.cancel()
            try:
                await self._observer_task
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in list(self._writers):
            writer.close()

    async def _observe_overlay(self) -> None:
        """Subscribe to the overlay service's membership pushes so churn
        feeds the tier's adaptive TTLs exactly once cluster-wide."""
        assert self.overlay_addr is not None
        try:
            reader, writer = await asyncio.open_connection(*self.overlay_addr)
            writer.write(encode_frame({"kind": "hello", "role": "observer"}))
            await writer.drain()
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                if frame.get("kind") == "members":
                    self.tier.on_membership_change(self.now())
        except (ConnectionError, FrameError, asyncio.CancelledError, OSError):
            pass

    # -- shard membership ----------------------------------------------

    def _admit_shard(self, shard: int) -> None:
        if self._fixed_shards is not None or shard in self._members:
            return
        self._members.add(shard)
        # Owner assignments follow the live shard set, as the ring
        # daemon's router does on the front-end side.
        self.tier.router = FrontendShardRouter.from_members(self._members)

    # -- push fan-out --------------------------------------------------

    def _push_resolved(
        self, shard: int, key: str, cost: Optional[float]
    ) -> None:
        frame = encode_frame({"kind": "resolved", "key": key, "cost": cost})
        for writer in self._subs.get(shard, ()):
            if not writer.is_closing():
                writer.write(frame)

    # -- connections ---------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        sub_shard: Optional[int] = None
        self._writers.add(writer)
        try:
            hello = await read_frame(reader)
            if hello is None or hello.get("kind") != "hello":
                writer.write(
                    encode_frame({"kind": "error", "message": "expected hello"})
                )
                await writer.drain()
                return
            shard = int(hello.get("shard", 0))
            self._admit_shard(shard)
            writer.write(
                encode_frame(
                    {
                        "kind": "welcome",
                        "ttl": self.tier.ttl,
                        "join_window": self.join_window,
                    }
                )
            )
            await writer.drain()
            if hello.get("mode") == "sub":
                sub_shard = shard
                self._subs.setdefault(shard, set()).add(writer)
                # Subscription connections are push-only from here on;
                # block until the peer goes away.
                while await read_frame(reader) is not None:
                    pass
                return
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                writer.write(encode_frame(self._handle_rpc(frame)))
                await writer.drain()
                # A resolve may have queued pushes on sub writers.
                for writers in self._subs.values():
                    for out in writers:
                        if not out.is_closing():
                            await out.drain()
        except (FrameError, ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._writers.discard(writer)
            if sub_shard is not None:
                self._subs.get(sub_shard, set()).discard(writer)
            writer.close()

    # -- RPC dispatch --------------------------------------------------

    def _handle_rpc(self, frame: dict[str, Any]) -> dict[str, Any]:
        kind = frame.get("kind")
        tier = self.tier
        now = self.now()
        try:
            if kind == "get":
                cost = tier.get(frame["key"], now, frame["shard"])
                return {"kind": "value", "cost": cost}
            if kind == "put":
                applied = tier.put(
                    frame["key"], frame["cost"], now, frame["shard"]
                )
                return {"kind": "ok", "applied": applied}
            if kind == "open":
                tier.open_probe(
                    frame["key"], frame["shard"], frame["tag"], now
                )
                return {"kind": "ok"}
            if kind == "join":
                shard = frame["shard"]
                joined = tier.join_probe(
                    frame["key"],
                    shard,
                    now,
                    lambda key, cost, _now, s=shard: self._push_resolved(
                        s, key, cost
                    ),
                )
                return {"kind": "ok", "joined": joined}
            if kind == "resolve":
                released = tier.resolve_probe(
                    frame["key"], frame["tag"], frame["cost"], now
                )
                for callback in released or ():
                    callback(frame["key"], frame["cost"], now)
                return {"kind": "ok", "resolved": released is not None}
            if kind == "churn":
                tier.on_membership_change(now)
                return {"kind": "ok"}
            if kind == "purge":
                return {"kind": "ok", "removed": tier.purge(now)}
            if kind == "clear":
                tier.clear()
                return {"kind": "ok"}
            if kind == "stats":
                return {"kind": "ok", "stats": self.stats_snapshot()}
        except (KeyError, ValueError, TypeError) as exc:
            return {"kind": "error", "message": f"{kind}: {exc}"}
        return {"kind": "error", "message": f"unknown rpc kind {kind!r}"}

    def stats_snapshot(self) -> dict[str, Any]:
        tier = self.tier
        return {
            "entries": len(tier),
            "hits": tier.stats.hits,
            "misses": tier.stats.misses,
            "expirations": tier.stats.expirations,
            "evictions": tier.stats.evictions,
            "hit_rate": tier.stats.hit_rate,
            "probe_joins": tier.probe_joins,
            "publishes": tier.publishes,
            "single_writer_drops": tier.single_writer_drops,
            "shards": sorted(self._members),
            "by_shard": {
                shard: {"hits": stats.hits, "misses": stats.misses}
                for shard, stats in sorted(tier.shard_stats.items())
            },
        }


class RemoteSizeTier:
    """A front-end's client handle on a remote :class:`CacheService`.

    Duck-types the slice of the :class:`SharedGroupSizeCache` surface the
    front-end actually touches (``view``/``get``/``put``/``open_probe``/
    ``join_probe``/``resolve_probe``/``stats_for``/
    ``on_membership_change``), so ``Frontend(shared_sizes=tier)`` cannot
    tell a socket from the in-process object.  RPCs block on
    :class:`~repro.serve.protocol.SyncRpcChannel`; probe resolutions for
    joined probes arrive as pushes on the subscription connection, which
    :meth:`start` wires into the owning event loop.

    Degradation: if the service link drops, ``get`` misses, ``put`` and
    ``open_probe`` are no-ops, and ``join_probe`` returns False — the
    front-end falls back to exactly its private-cache behaviour (it
    probes for itself).  Results stay correct; only probe dedup and
    cross-shard freshness are lost until the service returns.

    Recovery: a :class:`~repro.serve.resilience.CircuitBreaker` gates
    every RPC.  Consecutive link failures trip it, turning further
    calls into instant misses (no connect timeout per query); when it
    half-opens, the one admitted probe call re-runs the HELLO handshake
    — which re-registers this shard with the service's router — and
    restarts the subscription connection.  Degradation is bounded by
    the breaker's reset window instead of lasting forever.
    """

    def __init__(
        self,
        host: str,
        port: int,
        shard: int,
        network: Any = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.shard = shard
        #: the shard's RemoteNetwork (for the clock and burst counter);
        #: optional so the tier can be used standalone in tests.
        self.network = network
        self.rpc = SyncRpcChannel(host, port)
        self.ttl = 60.0
        self._stats = CacheStats()
        self.breaker = breaker or CircuitBreaker()
        self.reconnects = 0
        #: joined probes (by key, which is also the flight id) and the
        #: callbacks waiting on their push; a push or a lost push link
        #: closes them.
        self.probes = SingleFlight(always_joinable)
        self._sub_task: Optional[asyncio.Task] = None
        self._sub_writer: Optional[asyncio.StreamWriter] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Open both connections and start the push reader task."""
        self._loop = asyncio.get_running_loop()
        self.rpc.connect()
        hello = self.rpc.request(
            {"kind": "hello", "mode": "rpc", "shard": self.shard}
        )
        self.ttl = hello.get("ttl", self.ttl)
        await self._open_sub()
        self.breaker.record_success()

    async def close(self) -> None:
        if self._sub_task is not None:
            self._sub_task.cancel()
            try:
                await self._sub_task
            except asyncio.CancelledError:
                pass
        if self._sub_writer is not None:
            self._sub_writer.close()
        self.rpc.close()

    async def _open_sub(self) -> None:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        writer.write(
            encode_frame({"kind": "hello", "mode": "sub", "shard": self.shard})
        )
        await writer.drain()
        welcome = await read_frame(reader)
        if welcome is None or welcome.get("kind") != "welcome":
            writer.close()
            raise ConnectionError(f"cache service refused us: {welcome!r}")
        if self._sub_writer is not None:
            self._sub_writer.close()
        self._sub_writer = writer
        self._sub_task = asyncio.ensure_future(self._read_pushes(reader))

    def _revive(self) -> None:
        """Re-open the RPC connection after an outage.

        The HELLO handshake is what registers this shard with the
        service (and, for a restarted service learning its members from
        scratch, what rebuilds the router), so a bare reconnect is not
        enough — every revival replays it.  The subscription connection
        restarts on the owning event loop.
        """
        self.rpc.connect()
        hello = self.rpc.request(
            {"kind": "hello", "mode": "rpc", "shard": self.shard}
        )
        self.ttl = hello.get("ttl", self.ttl)
        self.reconnects += 1
        if self.network is not None and self.network.stats is not None:
            self.network.stats.link_reconnects += 1
        self._schedule_resub()

    def _schedule_resub(self) -> None:
        loop = self._loop
        if loop is None or loop.is_closed():
            return

        def _spawn() -> None:
            if self._sub_task is None or self._sub_task.done():
                self._sub_task = asyncio.ensure_future(self._resub())

        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if running is loop:
            _spawn()
        else:
            loop.call_soon_threadsafe(_spawn)

    async def _resub(self) -> None:
        try:
            await self._open_sub()
        except (ConnectionError, OSError):
            # The RPC revival succeeded moments ago; if the sub side
            # lost the race with another outage, the next revival
            # (breaker half-open) retries it.
            pass

    async def _read_pushes(self, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                if frame.get("kind") == "resolved":
                    self._on_resolved(frame["key"], frame["cost"])
        except (ConnectionError, FrameError, asyncio.CancelledError):
            pass
        finally:
            # The push stream is gone: every joined probe this shard is
            # waiting on would otherwise wait forever.  Release them
            # NULL — the front-end re-probes for itself (Section 7's
            # fail-not-hang contract, applied to the cache tier).
            now = self._now()
            for flight in self.probes.fail_all(lambda flight: True):
                for callback in flight.waiters:
                    callback(flight.key, None, now)

    def _on_resolved(self, key: str, cost: Optional[float]) -> None:
        flight = self.probes.pop(key)
        if self.network is not None:
            # A push is an inbound event: it ends the current synchronous
            # burst, like any delivery on the overlay link.
            self.network.bump_burst()
        now = self._now()
        for callback in flight.waiters if flight is not None else ():
            callback(key, cost, now)

    def _now(self) -> float:
        return self.network.now if self.network is not None else 0.0

    def _request(self, frame: dict[str, Any]) -> Optional[dict[str, Any]]:
        if not self.breaker.allow():
            return None  # open breaker: degrade instantly, no connect wait
        deadline = (
            self.network.active_deadline if self.network is not None else None
        )
        try:
            if not self.rpc.connected:
                self._revive()
            reply = self.rpc.request(frame, deadline=deadline)
        except DeadlineExceeded:
            # The *caller's* budget ran out — says nothing about the
            # service's health, so the breaker doesn't hear about it.
            if self.network is not None and self.network.stats is not None:
                self.network.stats.deadline_expired += 1
            return None
        except (ConnectionError, OSError):
            self.breaker.record_failure()
            return None
        self.breaker.record_success()
        return reply

    def link_health(self) -> dict[str, Any]:
        """Per-link state for ``/stats`` (see ``docs/API.md``)."""
        state = "connected" if self.rpc.connected else "degraded"
        if self.breaker.state == CircuitBreaker.OPEN:
            state = "breaker-open"
        return {
            "state": state,
            "reconnects": self.reconnects,
            "breaker": self.breaker.snapshot(),
        }

    # -- SharedGroupSizeCache surface ----------------------------------

    @property
    def enabled(self) -> bool:
        return self.ttl > 0

    def view(self, shard: int) -> ShardedSizeCache:
        return ShardedSizeCache(self, shard)  # type: ignore[arg-type]

    def stats_for(self, shard: int) -> CacheStats:
        # Client-local counters (what *this* process observed); the
        # service keeps the authoritative cluster-wide ledger.
        return self._stats

    def __len__(self) -> int:
        reply = self._request({"kind": "stats"})
        return reply["stats"]["entries"] if reply else 0

    def get(self, key: str, now: float, shard: int = 0) -> Optional[float]:
        reply = self._request({"kind": "get", "key": key, "shard": shard})
        cost = reply["cost"] if reply else None
        if cost is None:
            self._stats.misses += 1
        else:
            self._stats.hits += 1
        return cost

    def put(self, key: str, cost: float, now: float, shard: int = 0) -> bool:
        reply = self._request(
            {"kind": "put", "key": key, "cost": cost, "shard": shard}
        )
        return bool(reply and reply.get("applied"))

    def open_probe(self, key: str, shard: int, tag: str, seq: int) -> None:
        self._request(
            {"kind": "open", "key": key, "shard": shard, "tag": tag}
        )

    def join_probe(
        self, key: str, shard: int, seq: int, callback: Callable
    ) -> bool:
        reply = self._request({"kind": "join", "key": key, "shard": shard})
        if not (reply and reply.get("joined")):
            return False
        if self.probes.join(key, callback, None) is None:
            self.probes.open(key, key, callback)
        return True

    def resolve_probe(
        self, key: str, tag: str, cost: Optional[float], now: float
    ) -> Optional[list]:
        reply = self._request(
            {"kind": "resolve", "key": key, "tag": tag, "cost": cost}
        )
        if reply and reply.get("resolved"):
            # Remote waiters are served by service pushes; locally there
            # is nothing left to call, but a non-None return tells the
            # front-end the answer was published (skip the plain put).
            return []
        return None

    def on_membership_change(self, now: float) -> None:
        # The service watches the overlay itself (one churn feed
        # cluster-wide); per-shard notifications would double-count.
        pass

    def purge(self, now: float) -> int:
        reply = self._request({"kind": "purge"})
        return reply.get("removed", 0) if reply else 0

    def clear(self) -> None:
        self._request({"kind": "clear"})

    def service_stats(self) -> Optional[dict[str, Any]]:
        reply = self._request({"kind": "stats"})
        return reply["stats"] if reply else None
