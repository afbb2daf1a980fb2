"""Symmetric payload encryption and in-place key rotation.

AES-256-CBC with PKCS#7 padding, the IV carried alongside the body.
The envelope is deliberately unauthenticated: it is the legacy wire
format of the systems this daemon serves, and a wrong key surfaces only
as a (probabilistic) padding failure.  The sealed store is the
authenticated tier.

reencrypt() changes the key of a cipher without the plaintext ever
leaving this module: it exists only as a value passed from _open, the
one place that checks the padding, to _seal, the one place that
encrypts.

Each thread keeps, per key, one CBC encryptor and one decryptor that
are never finalized and only ever fed whole blocks, so no call pays
for building a cipher.  Such a context carries its chain value (the
last cipher block it handled) from one call into the next:

* decrypt feeds ``iv || body``.  The IV block absorbs the carried
  chain value and its output is dropped; every later block is then
  decrypted against the block before it, which is exactly
  CBC-decrypt(iv, body).
* encrypt feeds ``R || plaintext || pad`` with a fresh random block R
  and takes the first output block as the IV: IV = E_K(R xor chain).
  E_K is a permutation and R is uniform and independent of everything
  else, so the IV is uniform and unpredictable.  This is the IV method
  of NIST SP 800-38A, Appendix C, that applies the forward cipher to a
  nonce, and the rest of the output is CBC-encrypt(IV, plaintext || pad).

A failed padding check leaves nothing behind that the next call
depends on, since every call starts by overwriting the chain value.
Contexts never leave their thread, and the map is keyed by the key
bytes, so a key that is overwritten in the store simply stops being
looked up.  The map holds at most _CONTEXTS_PER_THREAD keys and is
emptied when a new key would exceed that.  Keys and contexts appear in
no repr, log line or exception message.
"""

from __future__ import annotations

import os
import threading
from typing import NamedTuple

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .errors import BadPaddingError, MalformedEnvelopeError

KEY_SIZE = 32
IV_SIZE = 16
BLOCK_SIZE = 16

#: Keys whose contexts one thread keeps before it drops them all; at
#: about 2.1 KiB per key that is at most about 0.6 MiB per thread.
_CONTEXTS_PER_THREAD = 256
#: _PADS[n] is the PKCS#7 padding of n bytes (index 0 is never valid).
_PADS = tuple(bytes([n]) * n for n in range(BLOCK_SIZE + 1))
_local = threading.local()


def generate_key() -> bytes:
    """Fresh random 32-byte AES-256 key."""
    return os.urandom(KEY_SIZE)


def _contexts(key: bytes):
    """This thread's (encryptor, decryptor) pair for key, built on first use."""
    key = bytes(key)
    try:
        contexts = _local.contexts
    except AttributeError:
        contexts = _local.contexts = {}
    pair = contexts.get(key)
    if pair is None:
        if len(key) != KEY_SIZE:
            raise ValueError(f"key must be exactly {KEY_SIZE} bytes, got {len(key)}")
        if len(contexts) >= _CONTEXTS_PER_THREAD:
            contexts.clear()
        cipher = Cipher(algorithms.AES(key), modes.CBC(bytes(IV_SIZE)))
        pair = contexts[key] = (cipher.encryptor(), cipher.decryptor())
    return pair


class _Envelope(NamedTuple):
    iv: bytes
    body: bytes


class CipherEnvelope(_Envelope):
    """IV plus CBC body; body length is a positive multiple of 16."""

    __slots__ = ()

    def __new__(cls, iv: bytes, body: bytes) -> CipherEnvelope:
        iv, body = bytes(iv), bytes(body)
        if len(iv) != IV_SIZE:
            raise MalformedEnvelopeError(f"iv must be {IV_SIZE} bytes, got {len(iv)}")
        if len(body) < BLOCK_SIZE or len(body) % BLOCK_SIZE:
            raise MalformedEnvelopeError(
                f"body length {len(body)} is not a positive multiple of {BLOCK_SIZE}"
            )
        return super().__new__(cls, iv, body)

    @classmethod
    def _make(cls, iterable) -> CipherEnvelope:
        # _replace builds through _make: an unchecked body would leave a
        # partial block buffered in this thread's decryptor for the key.
        return cls(*iterable)

    def to_bytes(self) -> bytes:
        """Wire form: iv || body (framing belongs to the wire layer)."""
        return self.iv + self.body

    @classmethod
    def from_bytes(cls, data: bytes) -> CipherEnvelope:
        data = bytes(data)
        if len(data) < IV_SIZE + BLOCK_SIZE:
            raise MalformedEnvelopeError(f"envelope too short: {len(data)} bytes")
        return cls(data[:IV_SIZE], data[IV_SIZE:])


def _seal(key: bytes, padded: bytes) -> CipherEnvelope:
    """Encrypt already padded plaintext under a fresh unpredictable IV."""
    out = _contexts(key)[0].update(os.urandom(IV_SIZE) + padded)
    return CipherEnvelope(out[:IV_SIZE], out[IV_SIZE:])


def _open(key: bytes, envelope: CipherEnvelope) -> bytes:
    """Decrypt to plaintext || pad, after checking the PKCS#7 pad."""
    padded = _contexts(key)[1].update(envelope.iv + envelope.body)[IV_SIZE:]
    n = padded[-1]
    if not 1 <= n <= BLOCK_SIZE or not padded.endswith(_PADS[n]):
        raise BadPaddingError("invalid padding after decryption")
    return padded


def encrypt(key: bytes, plaintext: bytes) -> CipherEnvelope:
    """Encrypt plaintext under a fresh unpredictable IV.

    PKCS#7 always pads, so the body is one block longer than the
    plaintext rounded down to a block boundary: len(body) =
    (len(plaintext)//16 + 1) * 16.
    """
    plaintext = bytes(plaintext)
    return _seal(key, plaintext + _PADS[BLOCK_SIZE - len(plaintext) % BLOCK_SIZE])


def decrypt(key: bytes, envelope: CipherEnvelope) -> bytes:
    """Invert encrypt() under the same key, with strict padding checks.

    Padding validation is probabilistic tamper detection only: a wrong
    key slips through roughly once in 256 attempts and yields garbage.
    """
    padded = _open(key, envelope)
    return padded[:-padded[-1]]


def reencrypt(key_from: bytes, key_to: bytes, envelope: CipherEnvelope) -> CipherEnvelope:
    """Decrypt under key_from and encrypt under key_to with a fresh IV."""
    # A checked PKCS#7 pad is exactly the pad encrypt() would add, so the
    # padded plaintext is sealed as it is.
    return _seal(key_to, _open(key_from, envelope))
