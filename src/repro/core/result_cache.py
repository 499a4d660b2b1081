"""Root-side result cache and execution sharing.

PR 1 made a *single* front-end cheap on repeated workloads (plan cache,
group-size cache, shared sub-queries within one burst), but identical
sub-queries arriving at a tree root from *different* front-ends still
triggered a full tree walk each.  This module gives every
:class:`~repro.core.moara_node.MoaraNode` acting as a root the memory to
absorb that duplicated work, the same server-side sharing move that
Enmeshed Queries makes for overlapping continuous queries:

* execution sharing -- when a sub-query arrives while an identical
  execution is already walking the tree, the late arrival (from any
  front-end) joins the pending execution's flight in the root's
  :class:`~repro.core.single_flight.SingleFlight` table
  (``MoaraNode.inflight``) and is answered from its single result: one
  tree walk, N answers.  Joining is staleness-free (every subscriber
  sees the same fresh execution), so it is enabled by default.
* :class:`ResultCache` -- a TTL'd, LRU-bounded map from execution key to
  the finished partial aggregate, so repeated identical sub-queries
  within the TTL are answered with *zero* tree messages.  A cached
  answer is stale by up to the TTL (the approximate-query-processing
  contract: explicitly bounded staleness in exchange for latency), so
  the cache is **opt-in** via ``MoaraConfig.result_cache_ttl``.  Entries
  are invalidated eagerly on overlay membership change (the existing
  ``on_membership_change`` path clears the cache), on local attribute
  updates that feed the aggregate, and on ``STATUS_UPDATE`` reports for
  the cached group; remote value changes that never generate protocol
  traffic are only bounded by the TTL.

Execution identity
------------------

An execution key is ``(query attribute, aggregate-function signature,
query-predicate canonical form, group canonical form)``.  Both layers
engage only for **single-group covers**: for a multi-group cover the
roots suppress duplicate contributions *per query id* across their trees
(Section 6.2), so the partial cached at one root depends on which
overlap nodes happened to answer via the other trees of that particular
execution -- mixing partials from different executions across the roots
of one cover could double-count.  A single-group cover's answer is
self-contained and safe to reuse.

Conventions mirror :mod:`repro.core.plan_cache`: TTL'd ``OrderedDict``
LRU with :class:`~repro.core.plan_cache.CacheStats`-style counters, and
``ttl <= 0`` disabling the cache entirely.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.adaptive_ttl import AdaptiveTTL
from repro.core.plan_cache import CacheStats

__all__ = [
    "CachedResult",
    "ResultCache",
    "ResultCacheStats",
    "execution_key",
]

#: An execution key: (query attr, function signature, query predicate
#: canonical, group predicate canonical).
ExecutionKey = tuple


def execution_key(
    query: Any, group_key: str, cover: Optional[tuple]
) -> Optional[ExecutionKey]:
    """Identity of one root-side sub-query execution, or None if the
    execution's result is not reusable across query ids.

    ``cover`` is the full cover the front-end chose (piggybacked on the
    ``FRONTEND_QUERY`` payload); only single-group covers are reusable
    (see the module docstring).  Requests from callers that do not
    announce their cover are never cached.
    """
    if cover is None or len(cover) != 1:
        return None
    return (
        query.attr,
        query.function.signature(),
        query.predicate.canonical(),
        group_key,
    )


@dataclass
class ResultCacheStats(CacheStats):
    """Cache counters plus eager-invalidation accounting."""

    #: entries dropped by membership change / attribute update / status
    #: report, before their TTL expired.
    invalidations: int = 0

    def reset(self) -> None:  # noqa: D102 - inherited semantics
        super().reset()
        self.invalidations = 0


@dataclass(frozen=True)
class CachedResult:
    """One finished execution, as remembered by a root."""

    #: the merged partial aggregate (pre-``finalize``; what a root reply
    #: carries on the wire).  Stored as a private deep copy; callers get
    #: their own copy from :meth:`ResultCache.get`.
    partial: Any
    #: number of nodes that contributed to the aggregate.
    contributors: int
    #: canonical form of the group predicate (the tree that was walked).
    group_key: str
    #: every attribute feeding this result (query attribute + predicate
    #: attributes); a local update to any of them invalidates the entry.
    attrs: frozenset[str]
    cached_at: float
    expires_at: float


class ResultCache:
    """TTL'd LRU map of execution key -> :class:`CachedResult`.

    ``ttl <= 0`` disables the cache (every ``get`` misses, ``put`` is a
    no-op), which is the default: root-side result caching is an explicit
    staleness contract the operator opts into.

    With a ``ttl_policy`` (:class:`~repro.core.adaptive_ttl.AdaptiveTTL`)
    each entry's lifetime is scaled by the *group's* observed churn --
    the owning node feeds the policy from the ``STATUS_UPDATE`` stream
    and overlay membership events it already handles -- so a flapping
    group's results expire quickly while a stable group keeps the full
    ``ttl`` (the policy's upper bound).  ``on_ttl`` receives every
    adaptively assigned TTL for the stats histogram.
    """

    #: recognised eviction policies (see :attr:`eviction`).
    EVICTION_POLICIES = ("lru", "hot")

    def __init__(
        self,
        ttl: float = 0.0,
        maxsize: int = 512,
        ttl_policy: Optional[AdaptiveTTL] = None,
        on_ttl: Optional[Callable[[float], None]] = None,
        eviction: str = "lru",
    ) -> None:
        if eviction not in self.EVICTION_POLICIES:
            raise ValueError(
                f"unknown eviction policy {eviction!r}; "
                f"use one of {self.EVICTION_POLICIES}"
            )
        self.ttl = ttl
        self.maxsize = maxsize
        self.ttl_policy = ttl_policy
        self.on_ttl = on_ttl
        #: how the cache picks a victim when full: ``"lru"`` drops the
        #: least recently touched entry; ``"hot"`` is metrics-driven --
        #: it drops the entry with the fewest hits since insertion
        #: (recency as tie-break), so a dashboard query re-issued every
        #: few seconds survives a scan of one-off queries that would
        #: flush a plain LRU (the ROADMAP's "keep hot dashboards hot").
        self.eviction = eviction
        self.stats = ResultCacheStats()
        self._entries: OrderedDict[ExecutionKey, CachedResult] = OrderedDict()
        #: hits per live entry since it was (re-)inserted; drives "hot"
        #: eviction and is reported by :meth:`hit_counts`.
        self._hits: dict[ExecutionKey, int] = {}

    @property
    def enabled(self) -> bool:
        return self.ttl > 0

    def __len__(self) -> int:
        return len(self._entries)

    def put(
        self,
        key: ExecutionKey,
        partial: Any,
        contributors: int,
        group_key: str,
        attrs: frozenset[str],
        now: float,
    ) -> None:
        """Remember a finished execution's result.

        The partial is deep-copied in: cached state must not alias the
        (possibly mutable) aggregate travelling to the front-end.
        """
        if not self.enabled:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        ttl = self.ttl
        if self.ttl_policy is not None:
            # Churn is tracked per group tree: the key the owning node
            # feeds from STATUS_UPDATE arrivals (see moara_node).
            ttl = self.ttl_policy.ttl_for(group_key, now)
            if self.on_ttl is not None:
                self.on_ttl(ttl)
        self._entries[key] = CachedResult(
            partial=copy.deepcopy(partial),
            contributors=contributors,
            group_key=group_key,
            attrs=attrs,
            cached_at=now,
            expires_at=now + ttl,
        )
        self._hits[key] = 0
        if len(self._entries) > self.maxsize:
            self._evict_one()

    def _evict_one(self) -> None:
        """Drop one victim according to :attr:`eviction`."""
        if self.eviction == "hot":
            # Least-hit entry loses; among equals the least recently
            # touched (earliest in the OrderedDict) loses, which makes
            # zero observed hits degenerate to plain LRU exactly.
            victim = min(
                self._entries, key=lambda key: self._hits.get(key, 0)
            )
        else:
            victim = next(iter(self._entries))
        del self._entries[victim]
        self._hits.pop(victim, None)
        self.stats.evictions += 1

    def hit_counts(self) -> dict[ExecutionKey, int]:
        """Hits per live entry (the metric driving ``"hot"`` eviction)."""
        return dict(self._hits)

    def get(self, key: ExecutionKey, now: float) -> Optional[CachedResult]:
        """A fresh cached result (with its own copy of the partial), or
        None on miss/expiry."""
        if not self.enabled:
            self.stats.misses += 1
            return None
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        if now > entry.expires_at:
            del self._entries[key]
            self._hits.pop(key, None)
            self.stats.expirations += 1
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        self._hits[key] = self._hits.get(key, 0) + 1
        # Each hit hands out an independent partial: front-ends merge
        # (and users mutate) their answers freely.
        return CachedResult(
            partial=copy.deepcopy(entry.partial),
            contributors=entry.contributors,
            group_key=entry.group_key,
            attrs=entry.attrs,
            cached_at=entry.cached_at,
            expires_at=entry.expires_at,
        )

    # ------------------------------------------------------------------
    # eager invalidation
    # ------------------------------------------------------------------

    def invalidate_group(self, group_key: str) -> int:
        """Drop every entry whose tree is ``group_key`` (a STATUS_UPDATE
        arrived: group membership under this root changed).  Returns how
        many entries were dropped."""
        stale = [
            key
            for key, entry in self._entries.items()
            if entry.group_key == group_key
        ]
        for key in stale:
            del self._entries[key]
            self._hits.pop(key, None)
        self.stats.invalidations += len(stale)
        return len(stale)

    def invalidate_attr(self, attr: str) -> int:
        """Drop every entry fed by ``attr`` (a local attribute update
        changed this root's own contribution).  Returns the count."""
        stale = [
            key
            for key, entry in self._entries.items()
            if attr in entry.attrs
        ]
        for key in stale:
            del self._entries[key]
            self._hits.pop(key, None)
        self.stats.invalidations += len(stale)
        return len(stale)

    def clear(self) -> int:
        """Drop everything (overlay membership changed: any subtree may
        have moved under or away from this root).  Returns the count."""
        dropped = len(self._entries)
        self._entries.clear()
        self._hits.clear()
        self.stats.invalidations += dropped
        return dropped

    def purge(self, now: float) -> int:
        """Drop all expired entries; returns how many were removed."""
        stale = [
            key
            for key, entry in self._entries.items()
            if now > entry.expires_at
        ]
        for key in stale:
            del self._entries[key]
            self._hits.pop(key, None)
        self.stats.expirations += len(stale)
        return len(stale)
