"""Regression tests: a cached ``None`` is a cache *hit*.

``LruCache.get`` used to return ``None`` both for absent keys and for
keys whose cached value was legitimately ``None``, so a task whose
immutable environment serialized to ``None`` was re-fetched from the
store on every delivery and counted as a miss in the paper's Section
4.2 hit-rate statistics.  The MISS sentinel disambiguates: the readers
count a hit whenever it does not come back."""

from repro.vinz.cache import MISS, FiberCache, LruCache


class TestMissSentinel:
    def test_cached_none_is_a_hit(self):
        cache = LruCache()
        cache.put("k", None)
        assert cache.get("k", MISS) is None

    def test_absent_key_returns_sentinel(self):
        cache = LruCache()
        assert cache.get("nope", MISS) is MISS

    def test_sentinel_reachable_from_both_classes(self):
        assert LruCache.MISS is MISS
        assert FiberCache.MISS is MISS

    def test_contains_does_not_disturb_stats_or_order(self):
        cache = LruCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert "a" in cache and "c" not in cache
        cache.put("c", 3)  # "a" is still LRU: __contains__ didn't touch it
        assert "a" not in cache

    def test_default_still_none_for_legacy_callers(self):
        assert LruCache().get("absent") is None


class TestFiberCacheForwardsDefaults:
    def test_task_env_cached_none_round_trips(self):
        cache = FiberCache()
        cache.put_task_env("t1", None)
        assert cache.get_task_env("t1", FiberCache.MISS) is None
        assert cache.get_task_env("t2", FiberCache.MISS) is FiberCache.MISS

    def test_continuation_cached_none_round_trips(self):
        cache = FiberCache()
        cache.put_continuation("f1", 3, None)
        assert cache.get_continuation("f1", 3, MISS) is None
        assert cache.get_continuation("f1", 4, MISS) is MISS
