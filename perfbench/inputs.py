"""Seeded inputs and reply checks for the benchmark's three workloads.

Every request a run sends, and every reply it expects, is a pure
function of (workload, seed).  Requests and expected replies are built
with the standard library and `cryptography` directly, never with
kevlar's own wire or crypto code, so a defect there cannot make a wrong
reply look right.
"""

from __future__ import annotations

import base64
import binascii
import itertools
import random
from dataclasses import dataclass, field

from cryptography.hazmat.primitives import padding
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from kevlar.bench import encode_batch, generate_stream, make_key_id

CONNECTIONS = 2
#: Requests per connection before the window opens (cache fill and warm-up).
WARMUP_REQUESTS = 3000
#: Length of each connection's request sequence; a run cycles through it.
SEQUENCE_LENGTH = 1 << 16
#: Distinct REENC envelopes per connection, cycled.
ENVELOPES = 4096
KEYS = 4096
VALUE_SIZE = 256
ZIPF_S = 1.0
#: save-mix issues one SAVE per this many QUERYs, on average.
QUERIES_PER_SAVE = 10
KEY_SIZE = 32

WORKLOADS = ("reenc-hot", "query-zipf", "save-mix")

OK_LINE = b"OK\n"


def b64(data: bytes) -> bytes:
    return base64.b64encode(data)


def query_line(key_id: bytes) -> bytes:
    return b"QUERY|" + b64(key_id) + b"\n"


def save_line(key_id: bytes, value: bytes) -> bytes:
    return b"SAVE|" + b64(key_id) + b"|" + b64(value) + b"\n"


def value_line(value: bytes) -> bytes:
    """The only reply a correct daemon gives to a QUERY that finds value."""
    return b"OK|" + b64(value) + b"\n"


def seal(key: bytes, iv: bytes, plaintext: bytes) -> bytes:
    """AES-256-CBC/PKCS#7 envelope (iv || body) under a caller-chosen IV."""
    padder = padding.PKCS7(128).padder()
    padded = padder.update(plaintext) + padder.finalize()
    encryptor = Cipher(algorithms.AES(key), modes.CBC(iv)).encryptor()
    return iv + encryptor.update(padded) + encryptor.finalize()


def unseal(key: bytes, envelope: bytes) -> bytes:
    """Inverse of seal; raises ValueError on a malformed envelope or padding."""
    if len(envelope) < 32 or len(envelope) % 16:
        raise ValueError("malformed envelope")
    decryptor = Cipher(algorithms.AES(key), modes.CBC(envelope[:16])).decryptor()
    padded = decryptor.update(envelope[16:]) + decryptor.finalize()
    unpadder = padding.PKCS7(128).unpadder()
    return unpadder.update(padded) + unpadder.finalize()


def _zipf_choices(rng: random.Random, population: list, count: int) -> list:
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(population))]
    return rng.choices(population, cum_weights=list(itertools.accumulate(weights)), k=count)


@dataclass
class Workload:
    """Inputs of one workload, and the checks on the daemon's replies.

    `prefill` is written to the store before the daemon starts.
    `requests[c]` is connection c's request sequence, cycled.
    """

    name: str
    prefill: dict[bytes, bytes]
    requests: list[list[bytes]]
    #: save-mix only: per connection and position, (key, value) for a
    #: SAVE or (key, None) for a QUERY.
    ops: list[list[tuple[bytes, bytes | None]]] = field(default_factory=list)
    #: reenc-hot only: sink key, and per connection the batch plaintexts.
    sink_key: bytes = b""
    plaintexts: list[list[bytes]] = field(default_factory=list)

    def request(self, conn: int, index: int) -> bytes:
        seq = self.requests[conn]
        return seq[index % len(seq)]

    def check(self, conn: int, replies: list[bytes]) -> tuple[int, dict[bytes, bytes]]:
        """Count the wrong replies among a connection's replies, in order.

        replies[i] answers request(conn, i).  Returns the count and, for
        save-mix, each key this connection saved with its last
        acknowledged value (the expected read-back).
        """
        if self.name == "reenc-hot":
            return self._check_reenc(conn, replies), {}
        if self.name == "query-zipf":
            seq = self.requests[conn]
            expected = {line: value_line(self.prefill[base64.b64decode(line[6:-1])])
                        for line in set(seq)}
            failed = sum(reply != expected[self.request(conn, i)]
                         for i, reply in enumerate(replies))
            return failed, {}
        return self._check_save_mix(conn, replies)

    def _check_reenc(self, conn: int, replies: list[bytes]) -> int:
        plaintexts = self.plaintexts[conn]
        failed = 0
        for i, reply in enumerate(replies):
            try:
                if not (reply.startswith(b"OK|") and reply.endswith(b"\n")):
                    raise ValueError("not an OK reply")
                envelope = base64.b64decode(reply[3:-1], validate=True)
                ok = unseal(self.sink_key, envelope) == plaintexts[i % len(plaintexts)]
            except (ValueError, binascii.Error):
                ok = False
            failed += not ok
        return failed

    def _check_save_mix(self, conn: int, replies: list[bytes]):
        ops = self.ops[conn]
        current: dict[bytes, bytes] = {}
        failed = 0
        for i, reply in enumerate(replies):
            key, value = ops[i % len(ops)]
            if value is None:
                failed += reply != value_line(current.get(key, self.prefill[key]))
            elif reply == OK_LINE:
                current[key] = value
            else:
                failed += 1
        return failed, current


def build(name: str, seed: int) -> Workload:
    """All inputs of workload `name` for `seed`."""
    if name == "reenc-hot":
        return _build_reenc(seed)
    if name == "query-zipf":
        return _build_query(seed)
    if name == "save-mix":
        return _build_save_mix(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def _build_reenc(seed: int) -> Workload:
    rng = random.Random(f"reenc-hot:{seed}")
    sink_id = make_key_id(CONNECTIONS)
    sink_key = rng.randbytes(KEY_SIZE)
    prefill = {sink_id: sink_key}
    requests, plaintexts = [], []
    for conn in range(CONNECTIONS):
        source_id, source_key = make_key_id(conn), rng.randbytes(KEY_SIZE)
        prefill[source_id] = source_key
        stream = generate_stream((ENVELOPES + 1) * 0.0934, rng.randrange(1 << 30))[:ENVELOPES]
        batches = [encode_batch(batch) for batch in stream]
        head = b"REENC|" + b64(source_id) + b"|" + b64(sink_id) + b"|"
        requests.append([head + b64(seal(source_key, rng.randbytes(16), batch)) + b"\n"
                         for batch in batches])
        plaintexts.append(batches)
    return Workload("reenc-hot", prefill, requests, sink_key=sink_key, plaintexts=plaintexts)


def _key_space(rng: random.Random) -> tuple[dict[bytes, bytes], list[bytes]]:
    """KEYS seeded values, and the key ids from most to least popular."""
    ids = [make_key_id(i) for i in range(KEYS)]
    prefill = {key_id: rng.randbytes(VALUE_SIZE) for key_id in ids}
    rng.shuffle(ids)
    return prefill, ids


def _build_query(seed: int) -> Workload:
    rng = random.Random(f"query-zipf:{seed}")
    prefill, by_rank = _key_space(rng)
    lines = {key_id: query_line(key_id) for key_id in by_rank}
    requests = [[lines[key_id] for key_id in _zipf_choices(rng, by_rank, SEQUENCE_LENGTH)]
                for _ in range(CONNECTIONS)]
    return Workload("query-zipf", prefill, requests)


def _build_save_mix(seed: int) -> Workload:
    rng = random.Random(f"save-mix:{seed}")
    prefill, by_rank = _key_space(rng)
    requests, ops = [], []
    for conn in range(CONNECTIONS):
        # Connection c owns every CONNECTIONS-th key by popularity, so
        # each owns an equally skewed half and is the only writer of it.
        owned = by_rank[conn::CONNECTIONS]
        seq_ops, seq = [], []
        for key_id in _zipf_choices(rng, owned, SEQUENCE_LENGTH):
            if rng.randrange(QUERIES_PER_SAVE + 1) == 0:
                value = rng.randbytes(VALUE_SIZE)
                seq_ops.append((key_id, value))
                seq.append(save_line(key_id, value))
            else:
                seq_ops.append((key_id, None))
                seq.append(query_line(key_id))
        requests.append(seq)
        ops.append(seq_ops)
    return Workload("save-mix", prefill, requests, ops=ops)
