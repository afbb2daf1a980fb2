import dataclasses
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from kevlar.cache import (
    Cache,
    CacheConfig,
    Policy,
)
from kevlar.errors import (
    IdTooLongError,
    InvalidConfigError,
    NotFoundError,
    StoreIOError,
    ValueTooLongError,
)

from equivalence import run_equivalence
from reference_model import MemoryStore


def make_cache(capacity=2, id_size=12, value_size=32, policy=Policy.LRU, store=None):
    store = store if store is not None else MemoryStore()
    config = CacheConfig(capacity=capacity, id_size=id_size, value_size=value_size,
                         policy=policy)
    return Cache(config, store), store


def test_init_cache_is_empty_and_does_not_touch_backend():
    cache, store = make_cache()  # the 12B-id / 32B-value shape
    assert len(cache) == 0
    assert cache.stats.hits == cache.stats.misses == cache.stats.saves == 0
    assert store.data == {}


def test_minimal_legal_config():
    cache, _ = make_cache(capacity=1, id_size=1, value_size=1, policy=Policy.FIFO)
    assert len(cache) == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"capacity": 0},
        {"capacity": -1},
        {"id_size": 0},
        {"value_size": 0},
        {"policy": "lru"},
    ],
)
def test_invalid_config_rejected(kwargs):
    base = dict(capacity=2, id_size=12, value_size=32, policy=Policy.LRU)
    base.update(kwargs)
    with pytest.raises(InvalidConfigError):
        CacheConfig(**base)


def test_save_is_write_through():
    cache, store = make_cache()
    cache.save_object(b"k1", b"\x01" * 32)
    assert store.read_ss(b"k1") == b"\x01" * 32
    assert cache.resident_ids() == [b"k1"]


def test_overwrite_replaces_both_tiers():
    cache, store = make_cache()
    cache.save_object(b"k1", b"v1")
    cache.save_object(b"k1", b"v2")
    assert len(cache) == 1
    assert cache.query(b"k1") == b"v2"
    assert store.read_ss(b"k1") == b"v2"


def test_lru_sequence_from_examples():
    cache, _ = make_cache(policy=Policy.LRU)
    cache.save_object(b"a", b"v1")
    cache.save_object(b"b", b"v2")
    assert cache.query(b"a") == b"v1"   # refreshes a
    cache.save_object(b"c", b"v3")      # evicts b
    assert sorted(cache.resident_ids()) == [b"a", b"c"]
    misses = cache.stats.misses
    assert cache.query(b"b") == b"v2"   # served from the backend
    assert cache.stats.misses == misses + 1


def test_fifo_sequence_from_examples():
    cache, _ = make_cache(policy=Policy.FIFO)
    cache.save_object(b"a", b"v1")
    cache.save_object(b"b", b"v2")
    assert cache.query(b"a") == b"v1"   # FIFO: no refresh
    cache.save_object(b"c", b"v3")      # evicts a (oldest inserted)
    assert sorted(cache.resident_ids()) == [b"b", b"c"]
    misses = cache.stats.misses
    assert cache.query(b"a") == b"v1"
    assert cache.stats.misses == misses + 1


def test_lru_overwrite_refreshes_position():
    cache, _ = make_cache(policy=Policy.LRU)
    cache.save_object(b"a", b"v1")
    cache.save_object(b"b", b"v2")
    cache.save_object(b"a", b"v1b")     # a becomes most recently used
    cache.save_object(b"c", b"v3")      # evicts b
    assert sorted(cache.resident_ids()) == [b"a", b"c"]


def test_fifo_overwrite_keeps_position():
    cache, _ = make_cache(policy=Policy.FIFO)
    cache.save_object(b"a", b"v1")
    cache.save_object(b"b", b"v2")
    cache.save_object(b"a", b"v1b")     # insertion order unchanged
    cache.save_object(b"c", b"v3")      # still evicts a
    assert sorted(cache.resident_ids()) == [b"b", b"c"]


def test_query_never_saved_is_not_found():
    cache, _ = make_cache()
    with pytest.raises(NotFoundError):
        cache.query(b"ghost")
    assert cache.stats.not_found == 1


def test_miss_promotes_into_volatile_tier():
    cache, store = make_cache(capacity=2)
    store.write_ss(b"cold", b"vc")      # written behind the cache's back
    assert b"cold" not in cache
    assert cache.query(b"cold") == b"vc"
    assert b"cold" in cache
    assert cache.stats.misses == 1
    assert cache.query(b"cold") == b"vc"
    assert cache.stats.hits == 1


def test_eviction_is_volatile_only():
    cache, store = make_cache(capacity=2)
    for key_id in (b"a", b"b", b"c"):
        cache.save_object(key_id, key_id + b"-value")
    assert cache.stats.evictions == 1
    assert len(cache) == 2
    # evicted id remains retrievable through the cache (backend fallback)
    assert cache.query(b"a") == b"a-value"
    assert store.read_ss(b"b") == b"b-value"


def test_capacity_bound_holds():
    cache, _ = make_cache(capacity=3)
    for i in range(20):
        cache.save_object(f"id{i:02d}".encode(), b"v")
        assert len(cache) <= 3


def test_round_robin_over_two_keys_with_capacity_one_always_misses():
    cache, _ = make_cache(capacity=1)
    cache.save_object(b"a", b"va")
    cache.save_object(b"b", b"vb")      # evicts a
    for _ in range(10):
        assert cache.query(b"a") == b"va"
        assert cache.query(b"b") == b"vb"
    assert cache.stats.hits == 0
    assert cache.stats.misses == 20


def test_id_and_value_bounds():
    cache, _ = make_cache(id_size=4, value_size=8)
    with pytest.raises(IdTooLongError):
        cache.query(b"too-long-id")
    with pytest.raises(IdTooLongError):
        cache.save_object(b"too-long-id", b"v")
    with pytest.raises(ValueTooLongError):
        cache.save_object(b"id", b"x" * 9)
    with pytest.raises(ValueError):
        cache.save_object(b"", b"v")
    assert len(cache) == 0


@pytest.mark.parametrize("policy", list(Policy))
def test_full_cache_checks_ids_that_are_not_resident(policy):
    cache, _ = make_cache(capacity=2, id_size=4, policy=policy)
    cache.save_object(b"a", b"va")
    cache.save_object(b"b", b"vb")
    stats = dataclasses.replace(cache.stats)
    with pytest.raises(ValueError) as info:
        cache.query(b"")
    assert type(info.value) is ValueError
    with pytest.raises(IdTooLongError):
        cache.query(b"x" * 5)
    assert cache.stats == stats
    assert cache.resident_ids() == [b"a", b"b"]
    # An id that is not bytes is checked, converted and then found.
    assert cache.query(bytearray(b"a")) == b"va"
    assert cache.stats.hits == stats.hits + 1


def test_freed_cache_raises_before_any_lookup():
    cache, store = make_cache()
    cache.save_object(b"a", b"va")
    cache.free()
    store.fail_reads = True
    for key_id in (b"a", b"ghost", b"", b"x" * 13, bytearray(b"a")):
        with pytest.raises(RuntimeError):
            cache.query(key_id)
    assert cache.stats.hits == cache.stats.misses == cache.stats.not_found == 0


def test_store_write_failure_leaves_volatile_unchanged():
    cache, store = make_cache()
    cache.save_object(b"a", b"v1")
    before = cache.resident_ids()
    store.fail_writes = True
    with pytest.raises(StoreIOError):
        cache.save_object(b"b", b"v2")      # new id
    with pytest.raises(StoreIOError):
        cache.save_object(b"a", b"v1-new")  # overwrite
    assert cache.resident_ids() == before
    assert cache.query(b"a") == b"v1"
    store.fail_writes = False
    assert b"b" not in store.data


def test_store_read_failure_propagates():
    cache, store = make_cache()
    store.data[b"x"] = b"v"
    store.fail_reads = True
    with pytest.raises(StoreIOError):
        cache.query(b"x")
    assert cache.stats.misses == 0
    assert cache.stats.not_found == 0


def test_oversized_backend_value_bypasses_volatile_tier():
    cache, store = make_cache(value_size=8)
    store.data[b"big"] = b"x" * 100
    assert cache.query(b"big") == b"x" * 100
    assert b"big" not in cache


def test_free_releases_volatile_and_keeps_backend(tmp_path, store):
    config = CacheConfig(capacity=4, id_size=12, value_size=32)
    cache = Cache(config, store)
    for key_id in (b"k1", b"k2", b"k3"):
        cache.save_object(key_id, key_id + b"-v")
    digest_before = {
        p.name: hashlib.sha256(p.read_bytes()).digest() for p in store.root_dir.iterdir()
    }
    cache.free()
    digest_after = {
        p.name: hashlib.sha256(p.read_bytes()).digest() for p in store.root_dir.iterdir()
    }
    assert digest_after == digest_before
    for key_id in (b"k1", b"k2", b"k3"):
        assert store.read_ss(key_id) == key_id + b"-v"
    with pytest.raises(RuntimeError):
        cache.query(b"k1")
    # a fresh cache over the same store repopulates on demand
    fresh = Cache(config, store)
    assert len(fresh) == 0
    assert fresh.query(b"k2") == b"k2-v"
    assert fresh.stats.misses == 1
    assert b"k2" in fresh


def test_free_on_empty_cache_is_noop_on_storage(tmp_path, store):
    names_before = sorted(p.name for p in store.root_dir.iterdir())
    cache = Cache(CacheConfig(capacity=2), store)
    cache.free()
    assert sorted(p.name for p in store.root_dir.iterdir()) == names_before


# The cases keep the ids of the bucket-count sweep of the former hashed index;
# the index is now one ordered dict, so the sweep runs over resident-entry counts.
@pytest.mark.parametrize("entries", [1, 2, 16, 256])
def test_index_soundness_across_bucket_counts(entries):
    cache, _ = make_cache(capacity=entries, id_size=16)
    ids = [f"entry-{i:03d}".encode() for i in range(entries)]
    for key_id in ids:
        cache.save_object(key_id, key_id)
    for key_id in ids:
        assert key_id in cache
        assert cache.query(key_id) == key_id
    assert cache.stats.hits == len(ids)


def test_contains_does_not_refresh_recency():
    cache, _ = make_cache(policy=Policy.LRU)
    cache.save_object(b"a", b"va")
    cache.save_object(b"b", b"vb")
    assert b"a" in cache                # membership check, not an access
    cache.save_object(b"c", b"vc")      # must evict a, not b
    assert sorted(cache.resident_ids()) == [b"b", b"c"]


def test_stats_account_for_every_query():
    cache, store = make_cache(capacity=2, id_size=16)
    store.data[b"backend-only"] = b"v"
    outcomes = 0
    for key_id in (b"a", b"b", b"a", b"backend-only", b"ghost", b"a", b"ghost"):
        try:
            cache.query(key_id)
        except NotFoundError:
            pass
        outcomes += 1
        stats = cache.stats
        assert stats.hits + stats.misses + stats.not_found == outcomes


@pytest.mark.parametrize("seed", range(12))
def test_model_equivalence_quick(seed):
    run_equivalence(seed, n_ops=400)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_ops=st.integers(min_value=1, max_value=120),
)
@settings(max_examples=40)
def test_model_equivalence_property(seed, n_ops):
    run_equivalence(seed, n_ops=n_ops)
