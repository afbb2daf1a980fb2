"""Trusted key-value cache over a sealed object store.

A write-through, fixed-capacity cache (LRU or FIFO) fronting durable
objects that are encrypted and authenticated at rest, served to
untrusted peers by a TCP daemon speaking a base64-framed line protocol,
with a payload re-encryption primitive that rotates cipher keys without
ever handing the keys to the peer.
"""

from . import errors
from .cache import (
    Cache,
    CacheConfig,
    CacheStats,
    Policy,
)
from .crypto import CipherEnvelope, decrypt, encrypt, generate_key, reencrypt
from .daemon import Daemon, DaemonConfig, ErrorCode, daemon_in_thread, dispatch, run_daemon
from .store import SecureStore, open_store
from .transport import (
    Connection,
    ConnectionMode,
    Endpoint,
    Listener,
    connect,
    net_connect,
    parse_hostport,
)
from .wire import (
    MAX_FRAME,
    WireFrame,
    base64_decode,
    base64_decode_length,
    base64_encode,
    frame_parse,
    frame_serialize,
)

__version__ = "0.1.0"

__all__ = [
    "Cache",
    "CacheConfig",
    "CacheStats",
    "CipherEnvelope",
    "Connection",
    "ConnectionMode",
    "Daemon",
    "DaemonConfig",
    "Endpoint",
    "ErrorCode",
    "Listener",
    "MAX_FRAME",
    "Policy",
    "SecureStore",
    "WireFrame",
    "base64_decode",
    "base64_decode_length",
    "base64_encode",
    "connect",
    "daemon_in_thread",
    "decrypt",
    "dispatch",
    "encrypt",
    "errors",
    "frame_parse",
    "frame_serialize",
    "generate_key",
    "net_connect",
    "open_store",
    "parse_hostport",
    "reencrypt",
    "run_daemon",
]
