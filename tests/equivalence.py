"""Replay driver comparing the real cache against the brute-force model.

One run applies a seeded op stream to both sides and checks, per
operation: hit/miss/not-found classification, returned values, the
write-through invariant, and the capacity bound; at the end: the exact
resident sequence (eviction order) and full backend equality.  The two
sides keep separate backends so a wrong write cannot mask itself.
"""

from __future__ import annotations

import random

from kevlar.cache import Cache, CacheConfig, Policy
from kevlar.errors import NotFoundError

from reference_model import MemoryStore, ModelCache, random_ops


def run_equivalence(seed: int, n_ops: int, *, capacity: int | None = None,
                    policy: Policy | None = None, n_ids: int = 32) -> int:
    """Replay one random sequence; raises AssertionError on any divergence.

    Returns the number of operations applied.
    """
    rng = random.Random(seed ^ 0x5EED)
    capacity = capacity if capacity is not None else rng.randint(1, 8)
    policy = policy if policy is not None else (Policy.LRU if seed % 2 == 0 else Policy.FIFO)

    store = MemoryStore()
    config = CacheConfig(capacity=capacity, id_size=8, value_size=64, policy=policy)
    cache = Cache(config, store)
    model = ModelCache(capacity, policy, backend={})

    queries = 0
    classified = 0  # hits + misses + not_found accumulated across free()s

    def drain_stats(c: Cache) -> int:
        return c.stats.hits + c.stats.misses + c.stats.not_found

    ops = random_ops(seed, n_ops, n_ids=n_ids)
    for op in ops:
        if op[0] == "save":
            _, key_id, value = op
            model.save(key_id, value)
            cache.save_object(key_id, value)
            assert store.read_ss(key_id) == value, "write-through violated"
        elif op[0] == "query":
            _, key_id = op
            queries += 1
            expected_class, expected_value = model.query(key_id)
            hits, misses = cache.stats.hits, cache.stats.misses
            try:
                got = cache.query(key_id)
            except NotFoundError:
                got = None
                actual_class = "not_found"
            else:
                actual_class = "hit" if cache.stats.hits > hits else "miss"
                assert cache.stats.misses == misses + (actual_class == "miss")
            assert actual_class == expected_class, (
                f"seed={seed} op query({key_id!r}): {actual_class} != {expected_class}"
            )
            assert got == expected_value, f"seed={seed}: value mismatch for {key_id!r}"
        else:
            model.free()
            classified += drain_stats(cache)
            cache.free()
            cache = Cache(config, store)
        assert len(cache) <= capacity, "capacity exceeded"

    assert cache.resident_ids() == model.resident_ids(), (
        f"seed={seed}: resident sequence diverged"
    )
    assert store.data == model.backend, f"seed={seed}: backend contents diverged"
    classified += drain_stats(cache)
    assert classified == queries, f"seed={seed}: stats do not account for every query"
    return len(ops)
