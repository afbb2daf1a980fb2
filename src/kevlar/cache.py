"""Fixed-capacity write-through cache over a durable key-value backend.

Resident entries live in one ordered dict from id to value whose
iteration order is the eviction order (first key = next victim): an LRU
hit moves its id to the end, FIFO keeps insertion order, and eviction
pops the first item, all in O(1).  Every save commits to the backend
before the volatile tier changes, so killing the owner process loses
nothing.

A query for a non-resident id falls back to the backend and, on
success, promotes the object into the volatile tier (demand fill),
evicting per policy when the cache is full.  Eviction is volatile-only;
evicted ids stay readable through the backend.

The backend is anything with the store read/write surface::

    read_ss(id) -> bytes      # raises NotFoundError when absent
    write_ss(id, value) -> None

A cache is single-owner: transferable between threads, not safe for
simultaneous use.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass

from .errors import (
    IdTooLongError,
    InvalidConfigError,
    NotFoundError,
    ValueTooLongError,
)


class Policy(enum.Enum):
    """Eviction policy: least recently used, or insertion order."""

    LRU = "lru"
    FIFO = "fifo"


@dataclass(frozen=True)
class CacheConfig:
    """Bounds of one cache instance.

    capacity counts entries (not bytes); id_size and value_size are
    maxima in bytes, shorter ids and values are stored at their actual
    length.
    """

    capacity: int
    id_size: int = 128
    value_size: int = 65536
    policy: Policy = Policy.LRU

    def __post_init__(self) -> None:
        for name in ("capacity", "id_size", "value_size"):
            bound = getattr(self, name)
            if not isinstance(bound, int) or isinstance(bound, bool) or bound < 1:
                raise InvalidConfigError(f"{name} must be a positive integer, got {bound!r}")
        if not isinstance(self.policy, Policy):
            raise InvalidConfigError(f"policy must be a Policy, got {self.policy!r}")


@dataclass
class CacheStats:
    """Operation counters; hits + misses + not_found equals query calls."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    saves: int = 0
    not_found: int = 0


class Cache:
    """Volatile write-through tier in front of a sealed store."""

    def __init__(self, config: CacheConfig, store) -> None:
        if not isinstance(config, CacheConfig):
            raise InvalidConfigError(f"config must be a CacheConfig, got {config!r}")
        self.config = config
        self.stats = CacheStats()
        self._store = store
        self._lru = config.policy is Policy.LRU
        # Iteration order is eviction order: the first key is the next
        # victim, the last the most recent entry.
        self._entries: OrderedDict[bytes, bytes] = OrderedDict()
        self._freed = False

    # -- validation -------------------------------------------------------

    def _check_live(self) -> None:
        if self._freed:
            raise RuntimeError("cache has been freed")

    def _check_id(self, id: bytes) -> bytes:
        id = bytes(id)
        if not id:
            raise ValueError("id must be non-empty")
        if len(id) > self.config.id_size:
            raise IdTooLongError(f"id is {len(id)} bytes, limit {self.config.id_size}")
        return id

    # -- public surface -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, id: bytes) -> bool:
        """Read-only residency check; never refreshes recency."""
        return not self._freed and bytes(id) in self._entries

    def resident_ids(self) -> list[bytes]:
        """Resident ids in eviction order (next victim first)."""
        return list(self._entries)

    def query(self, id: bytes) -> bytes:
        """Fetch the value for id from the volatile tier or the backend.

        A hit refreshes recency under LRU and leaves FIFO order alone; a
        backend hit promotes the object into the volatile tier.  Raises
        NotFoundError when the id exists in neither tier; backend
        failures other than absence propagate unchanged.
        """
        self._check_live()
        entries = self._entries
        # Only checked ids are inserted, so a resident bytes id needs no
        # check; any other type (a bytearray cannot be hashed) is checked first.
        value = entries.get(id) if type(id) is bytes else None
        if value is None:
            id = self._check_id(id)
            value = entries.get(id)
        if value is not None:
            self.stats.hits += 1
            if self._lru:
                entries.move_to_end(id)
            return value
        try:
            value = self._store.read_ss(id)
        except NotFoundError:
            self.stats.not_found += 1
            raise
        self.stats.misses += 1
        if len(value) <= self.config.value_size:
            self._insert(id, value)
        return value

    def save_object(self, id: bytes, value: bytes) -> None:
        """Store a key/value pair in both tiers, backend first.

        The backend write completes before the volatile tier is touched;
        if it fails, the volatile tier is left exactly as it was.  An
        existing resident id has its value replaced in place: that
        refreshes recency under LRU and keeps the insertion position
        under FIFO.
        """
        self._check_live()
        id = self._check_id(id)
        value = bytes(value)
        if len(value) > self.config.value_size:
            raise ValueTooLongError(
                f"value is {len(value)} bytes, limit {self.config.value_size}"
            )
        self._store.write_ss(id, value)
        self.stats.saves += 1
        entries = self._entries
        if id in entries:
            entries[id] = value
            if self._lru:
                entries.move_to_end(id)
        else:
            self._insert(id, value)

    def _insert(self, id: bytes, value: bytes) -> None:
        if len(self._entries) >= self.config.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        self._entries[id] = value

    def free(self) -> None:
        """Release all volatile state; the backend is left untouched.

        The instance is unusable afterwards; build a new cache over the
        same store to repopulate on demand.
        """
        self._entries.clear()
        self._freed = True

