"""Trusted key-value cache over a sealed object store.

A write-through, fixed-capacity cache (LRU or FIFO) fronting durable
objects that are encrypted and authenticated at rest, served to
untrusted peers by a TCP daemon speaking a base64-framed line protocol,
with a payload re-encryption primitive that rotates cipher keys without
ever handing the keys to the peer.

Import what you use from its module, for example
`from kevlar.cache import Cache`; the package root imports none of them.
"""

__version__ = "0.1.0"
