"""Query-plane caches: memoized planning and TTL'd group-size estimates.

At the ROADMAP's "millions of users" scale the front-end is the first
bottleneck: the seed implementation re-ran ``plan_predicate`` /
``choose_cover`` for every submission and re-probed tree roots for group
sizes on every composite query (the paper's ``2 * np`` probe cost,
Section 6.3).  Both inputs are highly repetitive in real monitoring
workloads -- dashboards and periodic monitors re-issue the same handful of
query shapes forever -- so this module gives the front-end two caches:

* :class:`PlanCache` memoizes the planner.  Keys are the *normalized*
  predicate (its canonical form, so syntactic variants of one predicate
  share an entry) plus the :class:`~repro.core.planner.SemanticContext`
  version, which the context bumps on every :meth:`declare`; a semantics
  change therefore invalidates stale plans without any explicit flush.
* :class:`GroupSizeCache` holds per-group query-cost estimates
  (``2 * np``) with a TTL.  It is fed by size-probe replies *and* by the
  cost piggybacked on every sub-query answer from a tree root, so a warm
  front-end can usually choose a cover without sending a single probe.
* :class:`SharedGroupSizeCache` lifts the size cache into a tier **shared
  by every front-end shard** (the SDIMS/Memcached move: one cache tier
  behind N stateless frontends).  All shards read through it, a probe
  registry guarantees **one wire probe per group cluster-wide** (late
  shards subscribe to the in-flight probe instead of duplicating it, and
  the answer is published to every shard at once), and a
  **single-writer-per-group** rule -- the group's consistent-hash owner
  shard, see :class:`repro.core.shard_router.FrontendShardRouter` --
  keeps the tier's contents independent of which shard's piggybacked
  estimate happened to arrive last, so behaviour stays deterministic
  under the simulator regardless of shard interleaving.

Both TTL'd caches take an optional churn-adaptive policy
(:class:`repro.core.adaptive_ttl.AdaptiveTTL`): each entry's TTL is then
scaled between configured min/max bounds by the group's observed churn
(changed estimates, overlay membership events) instead of using one
fixed global.

All caches are deliberately synchronous and in-process: the front-ends
are simulated client machines and the discrete-event engine already
serializes access (a deployed query plane would back
:class:`SharedGroupSizeCache` with a memcached-style service; its
publish latency is not modelled, the probe round-trips are).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional

from repro.core.adaptive_ttl import AdaptiveTTL
from repro.core.planner import (
    Clause,
    QueryPlan,
    SemanticContext,
    choose_cover,
    plan_predicate,
)
from repro.core.predicates import Predicate
from repro.core.single_flight import Flight, SingleFlight, same_burst

if TYPE_CHECKING:  # circular at runtime only for type hints
    from repro.core.shard_router import FrontendShardRouter

__all__ = [
    "CacheStats",
    "GroupSizeCache",
    "PlanCache",
    "ShardedSizeCache",
    "SharedGroupSizeCache",
]


@dataclass
class CacheStats:
    """Hit/miss/expiry counters shared by both cache kinds."""

    hits: int = 0
    misses: int = 0
    expirations: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.expirations = 0
        self.evictions = 0


class PlanCache:
    """LRU memoization of ``plan_predicate`` and ``choose_cover``.

    A planner entry is keyed on ``(predicate.canonical(), semantics
    version)``; entries planned under an older semantics version simply
    stop being reachable and age out of the LRU.  Cover choices are
    memoized separately because they also depend on the probed costs.
    """

    def __init__(
        self, semantics: SemanticContext, maxsize: int = 1024
    ) -> None:
        if maxsize < 1:
            raise ValueError(
                "maxsize must be >= 1; disable plan caching with "
                "FrontendConfig(plan_cache_size=0) instead"
            )
        self.semantics = semantics
        self.maxsize = maxsize
        self.stats = CacheStats()
        self.cover_stats = CacheStats()
        self._plans: OrderedDict[tuple[str, int], QueryPlan] = OrderedDict()
        self._covers: OrderedDict[tuple, Clause] = OrderedDict()

    def __len__(self) -> int:
        return len(self._plans)

    def plan(self, predicate: Predicate) -> tuple[QueryPlan, bool]:
        """Plan a predicate; returns ``(plan, was_cache_hit)``."""
        key = (predicate.canonical(), self.semantics.version)
        plan = self._plans.get(key)
        if plan is not None:
            self._plans.move_to_end(key)
            self.stats.hits += 1
            return plan, True
        self.stats.misses += 1
        plan = plan_predicate(predicate, self.semantics)
        self._plans[key] = plan
        if len(self._plans) > self.maxsize:
            self._plans.popitem(last=False)
            self.stats.evictions += 1
        return plan, False

    def cover(self, plan: QueryPlan, costs: Mapping[str, float]) -> Clause:
        """Memoized ``choose_cover``: same plan + same costs = same cover."""
        key = (
            plan.original.canonical(),
            self.semantics.version,
            tuple(sorted(costs.items())),
        )
        cover = self._covers.get(key)
        if cover is not None:
            self._covers.move_to_end(key)
            self.cover_stats.hits += 1
            return cover
        self.cover_stats.misses += 1
        cover = choose_cover(plan, costs)
        self._covers[key] = cover
        if len(self._covers) > self.maxsize:
            self._covers.popitem(last=False)
            self.cover_stats.evictions += 1
        return cover

    def clear(self) -> None:
        self._plans.clear()
        self._covers.clear()


class GroupSizeCache:
    """TTL'd map of canonical group predicate -> query-cost estimate.

    ``ttl <= 0`` disables the cache entirely (every ``get`` misses and
    ``put`` is a no-op), which is how the front-end exposes the seed's
    probe-every-query behaviour for comparison benchmarks.

    With a ``ttl_policy`` (:class:`~repro.core.adaptive_ttl.AdaptiveTTL`)
    each entry's lifetime is chosen per put from the group's observed
    churn; ``ttl`` then acts as the policy-less fallback and the policy's
    bounds govern.  A fresh estimate that *differs* from a still-live
    entry is itself counted as a churn event (the group's size moved
    while we believed the old value), so the cache self-reports the churn
    it witnesses.  ``on_ttl`` (when set) receives every adaptively
    assigned TTL, feeding the histogram in :mod:`repro.sim.stats`.
    """

    def __init__(
        self,
        ttl: float = 60.0,
        maxsize: int = 4096,
        ttl_policy: Optional[AdaptiveTTL] = None,
        on_ttl: Optional[Callable[[float], None]] = None,
    ) -> None:
        self.ttl = ttl
        self.maxsize = maxsize
        self.ttl_policy = ttl_policy
        self.on_ttl = on_ttl
        self.stats = CacheStats()
        self._entries: OrderedDict[str, tuple[float, float]] = OrderedDict()

    @property
    def enabled(self) -> bool:
        return self.ttl > 0

    def __len__(self) -> int:
        return len(self._entries)

    def put(self, key: str, cost: float, now: float) -> None:
        """Record a fresh cost estimate for a group (probe or piggyback)."""
        if not self.enabled:
            return
        prior = self._entries.get(key)
        if prior is not None:
            self._entries.move_to_end(key)
        ttl = self.ttl
        policy = self.ttl_policy
        if policy is not None:
            if prior is not None and prior[0] != cost and now <= prior[1]:
                # The estimate moved while the old one was still fresh:
                # observed group churn shortens this key's future TTLs.
                policy.observe(key, now)
            ttl = policy.ttl_for(key, now)
            if self.on_ttl is not None:
                self.on_ttl(ttl)
        self._entries[key] = (cost, now + ttl)
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def get(self, key: str, now: float) -> Optional[float]:
        """Fresh cost estimate for a group, or None on miss/expiry."""
        if not self.enabled:
            self.stats.misses += 1
            return None
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        cost, expires_at = entry
        if now > expires_at:
            del self._entries[key]
            self.stats.expirations += 1
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return cost

    def purge(self, now: float) -> int:
        """Drop all expired entries; returns how many were removed."""
        stale = [
            key
            for key, (_, expires_at) in self._entries.items()
            if now > expires_at
        ]
        for key in stale:
            del self._entries[key]
        self.stats.expirations += len(stale)
        return len(stale)

    def clear(self) -> None:
        self._entries.clear()


#: a shared-probe waiter callback: ``callback(key, cost_or_None, now)``.
SharedSizeCallback = Callable[[str, Optional[float], float], None]


class SharedGroupSizeCache(GroupSizeCache):
    """The cluster-wide group-size tier every front-end shard reads.

    Extends :class:`GroupSizeCache` with the three properties a shared
    tier needs (see the module docstring):

    * **read-through by every shard** -- :meth:`get`/:meth:`put` take the
      calling shard and keep per-shard :class:`CacheStats` next to the
      cluster-wide ones;
    * **one probe per group cluster-wide** -- the probe registry
      (:meth:`open_probe` / :meth:`join_probe` / :meth:`resolve_probe`,
      over a :class:`~repro.core.single_flight.SingleFlight` table with
      one flight per group) lets a shard that misses subscribe to
      another shard's in-flight probe; the resolving shard publishes the
      answer once and every waiter's callback fires, so adding shards
      does not multiply probe traffic.  How long a probe stays joinable
      is the ``joinable`` predicate the owner passes in: the same
      synchronous burst by default, a wall-clock window in the cache
      service (:mod:`repro.serve.cache_service`);
    * **single writer per group** -- a piggybacked estimate only updates
      a *live* entry when it comes from the group's consistent-hash
      owner shard (:meth:`FrontendShardRouter.owner`); anyone may fill a
      cold entry (the probe registry serializes who does).  Dropped
      writes are counted in :attr:`single_writer_drops`.
    """

    def __init__(
        self,
        router: "FrontendShardRouter",
        ttl: float = 60.0,
        maxsize: int = 4096,
        ttl_policy: Optional[AdaptiveTTL] = None,
        on_ttl: Optional[Callable[[float], None]] = None,
        joinable: Callable[[Flight, Any], bool] = same_burst,
    ) -> None:
        super().__init__(
            ttl=ttl, maxsize=maxsize, ttl_policy=ttl_policy, on_ttl=on_ttl
        )
        self.router = router
        self.shard_stats: dict[int, CacheStats] = {}
        #: one in-flight wire probe per group key (flight id = key);
        #: ``data`` is the prober's ``(shard, tag)``, waiters are
        #: callbacks.  ``joinable`` decides freshness: same burst in
        #: process, a wall-clock window in the cache service.
        self.probes = SingleFlight(joinable)
        #: piggybacked writes rejected by the single-writer rule.
        self.single_writer_drops = 0
        #: cross-shard probe subscriptions (deduplicated wire probes).
        self.probe_joins = 0
        #: probe answers force-written by their registered prober.
        self.publishes = 0

    def view(self, shard: int) -> "ShardedSizeCache":
        """A front-end shard's handle on this tier (shard id baked in)."""
        return ShardedSizeCache(self, shard)

    def stats_for(self, shard: int) -> CacheStats:
        stats = self.shard_stats.get(shard)
        if stats is None:
            stats = self.shard_stats[shard] = CacheStats()
        return stats

    # ------------------------------------------------------------------
    # sharded read/write
    # ------------------------------------------------------------------

    def get(  # type: ignore[override]
        self, key: str, now: float, shard: int = 0
    ) -> Optional[float]:
        shard_stats = self.stats_for(shard)
        expirations_before = self.stats.expirations
        cost = super().get(key, now)
        if cost is None:
            shard_stats.misses += 1
            if self.stats.expirations > expirations_before:
                shard_stats.expirations += 1
        else:
            shard_stats.hits += 1
        return cost

    def put(  # type: ignore[override]
        self, key: str, cost: float, now: float, shard: int = 0
    ) -> bool:
        """Write-through with the single-writer-per-group rule.

        Returns True when the write was applied.  A non-owner shard may
        fill a missing/expired entry (cold fill; the probe registry
        serializes who gets to) but never overwrite a live one.
        """
        if not self.enabled:
            return False
        entry = self._entries.get(key)
        if (
            entry is not None
            and now <= entry[1]
            and shard != self.router.owner(key)
        ):
            self.single_writer_drops += 1
            return False
        super().put(key, cost, now)
        return True

    # ------------------------------------------------------------------
    # cluster-wide probe registry
    # ------------------------------------------------------------------

    def open_probe(self, key: str, shard: int, tag: str, seq: Any) -> None:
        """Register a wire probe this shard just sent for ``key``;
        ``seq`` is the join predicate's token (burst seq or service
        clock)."""
        # Superseded rule: a newer probe replaces the registry entry, and
        # the old prober's late answer resolves nothing (tag check in
        # resolve_probe).  Waiters parked on the replaced probe are
        # re-homed onto the new one: any answer for the group serves
        # them, and dropping them would strand their queries.
        stale = self.probes.pop(key)
        flight = self.probes.open(key, key, None, seq, (shard, tag))
        if stale is not None:
            flight.waiters = stale.waiters

    def join_probe(
        self,
        key: str,
        shard: int,
        seq: Any,
        callback: SharedSizeCallback,
    ) -> bool:
        """Subscribe to another shard's in-flight probe for ``key``.

        Returns True (and registers the callback) iff a probe from a
        *different* shard is in flight and still joinable; the caller
        then sends no wire probe of its own.
        """
        flight = self.probes.get(key)
        if flight is None or flight.data[0] == shard:
            return False  # never join our own probe (local dedup does)
        if self.probes.join(key, callback, seq) is None:
            return False
        self.probe_joins += 1
        return True

    def resolve_probe(
        self, key: str, tag: str, cost: Optional[float], now: float
    ) -> Optional[list[SharedSizeCallback]]:
        """Close the registered probe for ``key`` (answer or NULL).

        Only the probe that opened the entry resolves it (``tag`` must
        match); anything else -- a superseded probe's late answer, a
        double resolution -- returns None and the caller falls back to a
        plain (single-writer-checked) put.  A real answer is
        force-published: the prober is that fill's designated writer
        regardless of ownership.  The waiters' callbacks are returned
        for the caller to invoke; a NULL resolution (the probed root
        departed) publishes nothing but still releases every waiter.
        """
        flight = self.probes.get(key)
        if flight is None or flight.data[1] != tag:
            return None
        self.probes.pop(key)
        if cost is not None:
            GroupSizeCache.put(self, key, cost, now)
            self.publishes += 1
        return flight.waiters

    def on_membership_change(self, now: float) -> None:
        """Overlay churn: raise the global churn rate (shorter TTLs)."""
        if self.ttl_policy is not None:
            self.ttl_policy.observe_global(now)


class ShardedSizeCache:
    """One shard's read-through handle on a :class:`SharedGroupSizeCache`.

    Presents the plain :class:`GroupSizeCache` interface (``get``/``put``
    without a shard argument, ``stats``, ``len``), so the front-end -- and
    every existing test -- is agnostic about whether its size cache is
    private or the shared tier.  ``stats`` are this shard's counters.
    """

    __slots__ = ("shared", "shard")

    def __init__(self, shared: SharedGroupSizeCache, shard: int) -> None:
        self.shared = shared
        self.shard = shard

    @property
    def stats(self) -> CacheStats:
        return self.shared.stats_for(self.shard)

    @property
    def enabled(self) -> bool:
        return self.shared.enabled

    @property
    def ttl(self) -> float:
        return self.shared.ttl

    def __len__(self) -> int:
        return len(self.shared)

    def get(self, key: str, now: float) -> Optional[float]:
        return self.shared.get(key, now, self.shard)

    def put(self, key: str, cost: float, now: float) -> bool:
        return self.shared.put(key, cost, now, self.shard)

    def purge(self, now: float) -> int:
        return self.shared.purge(now)

    def clear(self) -> None:
        self.shared.clear()
