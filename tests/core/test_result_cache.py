"""Unit tests for the root-side ResultCache."""

from __future__ import annotations

import pytest

from repro.core.moara_node import MoaraConfig
from repro.core.parser import parse_query
from repro.core.result_cache import ResultCache, execution_key


def _key(n: int = 0) -> tuple:
    return ("cpu", "avg", f"(pred-{n})", f"(group-{n})")


def _put(cache: ResultCache, key: tuple, now: float, partial=7) -> None:
    cache.put(
        key,
        partial,
        contributors=3,
        group_key=key[3],
        attrs=frozenset({"cpu", "g"}),
        now=now,
    )


class TestExecutionKey:
    def test_single_group_cover_is_reusable(self) -> None:
        query = parse_query("SELECT COUNT(*) WHERE g = true")
        key = execution_key(query, "(g = true)", ("(g = true)",))
        assert key is not None
        assert key[3] == "(g = true)"

    def test_multi_group_cover_is_not_reusable(self) -> None:
        """Multi-tree covers dedup contributions per query id across
        trees (Section 6.2); partials from different executions must not
        be mixed, so they are never cached."""
        query = parse_query("SELECT COUNT(*) WHERE g = true OR h = true")
        cover = ("(g = true)", "(h = true)")
        assert execution_key(query, "(g = true)", cover) is None

    def test_unannounced_cover_is_not_reusable(self) -> None:
        query = parse_query("SELECT COUNT(*) WHERE g = true")
        assert execution_key(query, "(g = true)", None) is None

    def test_key_distinguishes_function_parameters(self) -> None:
        from repro.core.aggregation import Histogram
        from repro.core.parser import parse_predicate
        from repro.core.query import Query

        pred = parse_predicate("g = true")
        wide = Query(attr="cpu", function=Histogram(0.0, 100.0, 4), predicate=pred)
        narrow = Query(attr="cpu", function=Histogram(0.0, 10.0, 4), predicate=pred)
        cover = (pred.canonical(),)
        assert execution_key(wide, cover[0], cover) != execution_key(
            narrow, cover[0], cover
        )


class TestResultCache:
    def test_hit_within_ttl(self) -> None:
        cache = ResultCache(ttl=5.0)
        _put(cache, _key(), now=0.0)
        entry = cache.get(_key(), now=4.9)
        assert entry is not None
        assert entry.partial == 7
        assert entry.contributors == 3
        assert cache.stats.hits == 1

    def test_miss_after_ttl(self) -> None:
        cache = ResultCache(ttl=5.0)
        _put(cache, _key(), now=0.0)
        assert cache.get(_key(), now=5.1) is None
        assert cache.stats.expirations == 1
        assert cache.stats.misses == 1
        assert len(cache) == 0

    def test_disabled_cache_never_stores(self) -> None:
        cache = ResultCache(ttl=0.0)
        assert not cache.enabled
        _put(cache, _key(), now=0.0)
        assert len(cache) == 0
        assert cache.get(_key(), now=0.0) is None

    def test_lru_eviction(self) -> None:
        cache = ResultCache(ttl=100.0, maxsize=2)
        _put(cache, _key(0), now=0.0)
        _put(cache, _key(1), now=0.0)
        cache.get(_key(0), now=0.0)  # refresh 0; 1 becomes LRU
        _put(cache, _key(2), now=0.0)
        assert cache.get(_key(1), now=0.0) is None
        assert cache.get(_key(0), now=0.0) is not None
        assert cache.stats.evictions == 1

    def test_hot_eviction_keeps_the_most_hit_entry(self) -> None:
        """Metrics-driven eviction: the hot dashboard's entry survives a
        scan that would evict it under plain LRU."""
        cache = ResultCache(ttl=100.0, maxsize=2, eviction="hot")
        _put(cache, _key(0), now=0.0)
        _put(cache, _key(1), now=0.0)
        for _ in range(3):
            cache.get(_key(1), now=0.0)  # key 1 is the hot dashboard
        _put(cache, _key(2), now=0.0)  # overflow: evicts cold key 0
        assert cache.get(_key(0), now=0.0) is None
        assert cache.get(_key(1), now=0.0) is not None
        assert cache.stats.evictions == 1

    def test_hot_eviction_prefers_the_newcomer_when_all_cold(self) -> None:
        """With no hits anywhere, 'hot' degenerates to insertion order
        (min() over equal counts takes the oldest entry)."""
        cache = ResultCache(ttl=100.0, maxsize=2, eviction="hot")
        _put(cache, _key(0), now=0.0)
        _put(cache, _key(1), now=0.0)
        _put(cache, _key(2), now=0.0)
        assert cache.get(_key(0), now=0.0) is None
        assert cache.get(_key(1), now=0.0) is not None

    def test_hit_counts_track_gets_and_evictions(self) -> None:
        cache = ResultCache(ttl=100.0, maxsize=2, eviction="hot")
        _put(cache, _key(0), now=0.0)
        cache.get(_key(0), now=0.0)
        cache.get(_key(0), now=0.0)
        assert cache.hit_counts()[_key(0)] == 2
        _put(cache, _key(1), now=0.0)
        _put(cache, _key(2), now=0.0)  # evicts key 1 (0 hits)
        assert _key(1) not in cache.hit_counts()

    def test_unknown_eviction_policy_is_rejected(self) -> None:
        with pytest.raises(ValueError, match="eviction"):
            ResultCache(ttl=1.0, eviction="random")
        with pytest.raises(ValueError, match="result_cache_eviction"):
            MoaraConfig(result_cache_eviction="random")

    def test_invalidate_attr_drops_fed_entries_only(self) -> None:
        cache = ResultCache(ttl=100.0)
        _put(cache, _key(0), now=0.0)
        cache.put(
            _key(1),
            1,
            contributors=1,
            group_key="(h = true)",
            attrs=frozenset({"mem"}),
            now=0.0,
        )
        assert cache.invalidate_attr("cpu") == 1
        assert cache.get(_key(0), now=0.0) is None
        assert cache.get(_key(1), now=0.0) is not None
        assert cache.stats.invalidations == 1

    def test_invalidate_group_drops_that_tree(self) -> None:
        cache = ResultCache(ttl=100.0)
        _put(cache, _key(0), now=0.0)
        _put(cache, _key(1), now=0.0)
        assert cache.invalidate_group(_key(0)[3]) == 1
        assert cache.get(_key(0), now=0.0) is None
        assert cache.get(_key(1), now=0.0) is not None

    def test_clear_drops_everything_and_counts(self) -> None:
        cache = ResultCache(ttl=100.0)
        _put(cache, _key(0), now=0.0)
        _put(cache, _key(1), now=0.0)
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.stats.invalidations == 2

    def test_purge_drops_only_expired(self) -> None:
        cache = ResultCache(ttl=5.0)
        _put(cache, _key(0), now=0.0)
        _put(cache, _key(1), now=3.0)
        assert cache.purge(now=6.0) == 1
        assert len(cache) == 1

    def test_served_partials_do_not_alias_the_cache(self) -> None:
        """Mutable aggregates (top-k tuples, histogram buckets) handed to
        one consumer must not corrupt later hits."""
        cache = ResultCache(ttl=100.0)
        _put(cache, _key(), now=0.0, partial=[3, 2, 1])
        first = cache.get(_key(), now=0.0)
        first.partial.clear()
        second = cache.get(_key(), now=0.0)
        assert second.partial == [3, 2, 1]

    def test_stats_reset_clears_invalidations(self) -> None:
        cache = ResultCache(ttl=100.0)
        _put(cache, _key(), now=0.0)
        cache.clear()
        cache.stats.reset()
        assert cache.stats.invalidations == 0
        assert cache.stats.lookups == 0
