import os
import random
import sys
import threading
import time

import pytest
from cryptography.hazmat.primitives import padding
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, strategies as st

import reference_aes as oracle
from kevlar import crypto
from kevlar.crypto import (
    BLOCK_SIZE,
    KEY_SIZE,
    CipherEnvelope,
    decrypt,
    encrypt,
    generate_key,
    reencrypt,
)
from kevlar.errors import BadPaddingError, MalformedEnvelopeError


def test_oracle_pinned_to_published_vectors():
    # FIPS-197 Appendix C.3 (AES-256 block).
    key = bytes.fromhex(
        "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
    )
    plain = bytes.fromhex("00112233445566778899aabbccddeeff")
    cipher = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
    assert oracle.encrypt_block(key, plain) == cipher
    assert oracle.decrypt_block(key, cipher) == plain
    # NIST SP 800-38A F.2.5 (CBC-AES256), first block.
    key2 = bytes.fromhex(
        "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4"
    )
    iv = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    p1 = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
    c1 = bytes.fromhex("f58c4c04d6e5f1ba779eabfb5f7bfbd6")
    chained = oracle.encrypt_block(key2, bytes(a ^ b for a, b in zip(p1, iv)))
    assert chained == c1


@given(st.binary(max_size=4096))
def test_roundtrip(plaintext):
    key = generate_key()
    assert decrypt(key, encrypt(key, plaintext)) == plaintext


def test_output_length_law_exhaustive():
    key = generate_key()
    for n in range(257):
        envelope = encrypt(key, b"a" * n)
        assert len(envelope.body) == (n // BLOCK_SIZE + 1) * BLOCK_SIZE
        assert len(envelope.iv) == 16


def test_fresh_iv_per_call():
    key = generate_key()
    a = encrypt(key, b"same message")
    b = encrypt(key, b"same message")
    assert a.iv != b.iv
    assert a.body != b.body


def test_empty_plaintext_is_one_pad_block():
    key = generate_key()
    envelope = encrypt(key, b"")
    assert len(envelope.body) == 16
    assert decrypt(key, envelope) == b""


@pytest.mark.parametrize("body_len", [0, 8, 24, 40])
def test_malformed_body_length(body_len):
    with pytest.raises(MalformedEnvelopeError):
        CipherEnvelope(os.urandom(16), os.urandom(body_len))


def test_malformed_iv_and_short_wire_form():
    with pytest.raises(MalformedEnvelopeError):
        CipherEnvelope(os.urandom(15), os.urandom(16))
    with pytest.raises(MalformedEnvelopeError):
        CipherEnvelope.from_bytes(os.urandom(31))


def test_envelope_wire_form_roundtrip():
    key = generate_key()
    envelope = encrypt(key, b"payload")
    again = CipherEnvelope.from_bytes(envelope.to_bytes())
    assert again == envelope
    assert again.to_bytes() == envelope.iv + envelope.body


def test_envelope_is_a_checked_tuple_of_bytes():
    envelope = CipherEnvelope(bytearray(16), memoryview(bytes(32)))
    assert type(envelope.iv) is bytes and type(envelope.body) is bytes
    with pytest.raises(MalformedEnvelopeError):
        envelope._replace(body=bytes(24))
    iv, body = os.urandom(16), os.urandom(32)
    assert CipherEnvelope(iv, body) == (iv, body)


def test_key_must_be_32_bytes():
    with pytest.raises(ValueError):
        encrypt(b"short", b"data")
    with pytest.raises(ValueError):
        decrypt(os.urandom(16), encrypt(generate_key(), b"data"))


def test_wrong_key_detected_statistically():
    # CBC+PKCS#7 flags a wrong key with probability ~255/256 per attempt.
    # Every input comes from one seeded generator, so the count is fixed.
    rng = random.Random(1)
    k1, k2 = rng.randbytes(KEY_SIZE), rng.randbytes(KEY_SIZE)
    detected = 0
    trials = 1000
    for _ in range(trials):
        padder = padding.PKCS7(128).padder()
        plaintext = padder.update(rng.randbytes(16)) + padder.finalize()
        iv = rng.randbytes(BLOCK_SIZE)
        encryptor = Cipher(algorithms.AES(k1), modes.CBC(iv)).encryptor()
        envelope = CipherEnvelope(iv, encryptor.update(plaintext) + encryptor.finalize())
        try:
            decrypt(k2, envelope)
        except BadPaddingError:
            detected += 1
    assert detected >= trials * 0.99


@given(st.binary(max_size=2048))
def test_reencrypt_composition(plaintext):
    k1, k2 = generate_key(), generate_key()
    rotated = reencrypt(k1, k2, encrypt(k1, plaintext))
    assert decrypt(k2, rotated) == plaintext


def test_reencrypt_same_key_rerandomizes_iv():
    key = generate_key()
    envelope = encrypt(key, b"stable plaintext")
    rotated = reencrypt(key, key, envelope)
    assert rotated.iv != envelope.iv
    assert decrypt(key, rotated) == b"stable plaintext"


def test_reencrypt_wrong_source_key_raises():
    k1, k2, k3 = generate_key(), generate_key(), generate_key()
    detected = 0
    for _ in range(200):
        envelope = encrypt(k1, b"x" * 32)
        try:
            reencrypt(k3, k2, envelope)
        except BadPaddingError:
            detected += 1
    assert detected >= 190


def test_cross_validation_against_reference_oracle():
    # Interoperability both ways with an independent AES-CBC/PKCS#7.
    rng = random.Random(42)
    for trial in range(100):
        key = rng.randbytes(KEY_SIZE)
        message = rng.randbytes(rng.randint(0, 512))
        # ours -> oracle
        envelope = encrypt(key, message)
        assert oracle.cbc_decrypt(key, envelope.iv, envelope.body) == message
        # oracle -> ours
        iv = rng.randbytes(16)
        body = oracle.cbc_encrypt(key, iv, message)
        assert decrypt(key, CipherEnvelope(iv, body)) == message


# --- differential tests against the library's own CBC + PKCS#7 path --------
#
# The oracle builds a cipher per call and unpads with padding.PKCS7, as
# the module did before it kept per-key contexts.


def library_encrypt(key, iv, plaintext):
    padder = padding.PKCS7(128).padder()
    padded = padder.update(plaintext) + padder.finalize()
    encryptor = Cipher(algorithms.AES(key), modes.CBC(iv)).encryptor()
    return encryptor.update(padded) + encryptor.finalize()


def library_decrypt(key, iv, body):
    """Plaintext, or None where the library unpadder rejects the padding."""
    decryptor = Cipher(algorithms.AES(key), modes.CBC(iv)).decryptor()
    padded = decryptor.update(body) + decryptor.finalize()
    unpadder = padding.PKCS7(128).unpadder()
    try:
        return unpadder.update(padded) + unpadder.finalize()
    except ValueError:
        return None


def raw_cbc_encrypt(key, iv, blocks):
    """CBC without padding: lets a test choose the decrypted tail."""
    encryptor = Cipher(algorithms.AES(key), modes.CBC(iv)).encryptor()
    return encryptor.update(blocks) + encryptor.finalize()


def outcome(key, envelope):
    try:
        return decrypt(key, envelope)
    except BadPaddingError:
        return None


def test_every_length_matches_library_on_fixed_and_fresh_ivs():
    rng = random.Random(6)
    key = rng.randbytes(KEY_SIZE)
    fixed_ivs = (bytes(16), b"\xff" * 16, rng.randbytes(16))
    for n in range(81):
        message = rng.randbytes(n)
        for iv in fixed_ivs:
            body = library_encrypt(key, iv, message)
            assert decrypt(key, CipherEnvelope(iv, body)) == message
        # encrypt's fresh IV: the body must be exactly CBC under that IV
        envelope = encrypt(key, message)
        assert envelope.body == library_encrypt(key, envelope.iv, message)
        assert library_decrypt(key, envelope.iv, envelope.body) == message


def test_wrong_key_envelopes_fail_exactly_where_library_fails():
    rng = random.Random(7)
    keys = [rng.randbytes(KEY_SIZE) for _ in range(3)]
    rejected = accepted = 0
    for _ in range(20_000):
        sealer, opener = rng.sample(keys, 2)
        iv = rng.randbytes(16)
        body = library_encrypt(sealer, iv, rng.randbytes(rng.randint(0, 48)))
        expected = library_decrypt(opener, iv, body)
        assert outcome(opener, CipherEnvelope(iv, body)) == expected
        if expected is None:
            rejected += 1
        else:
            accepted += 1
    assert rejected > 19_000 and accepted > 0


def test_every_padding_tail_matches_library():
    # Choose the decrypted last block: pad byte v preceded by k copies of
    # itself, for every byte value and every k, so both the range check
    # and the run check are hit at each boundary.
    rng = random.Random(8)
    key = rng.randbytes(KEY_SIZE)
    for v in range(256):
        for k in range(16):
            block = bytearray(rng.randbytes(16))
            block[15 - k:] = bytes([v]) * (k + 1)
            if k < 15:
                block[14 - k] = (v + 1 + rng.randrange(255)) % 256  # the run stops here
            blocks = rng.randbytes(16 * rng.randint(0, 2)) + bytes(block)
            iv = rng.randbytes(16)
            body = raw_cbc_encrypt(key, iv, blocks)
            assert outcome(key, CipherEnvelope(iv, body)) == library_decrypt(key, iv, body)


def test_interleaved_keys_and_failures_do_not_poison_contexts():
    rng = random.Random(9)
    keys = [rng.randbytes(KEY_SIZE) for _ in range(4)]
    for trial in range(2000):
        key = rng.choice(keys)
        message = rng.randbytes(rng.randint(0, 64))
        # a failing call first: random blocks almost never pad correctly
        bogus = CipherEnvelope(rng.randbytes(16), rng.randbytes(32))
        assert outcome(key, bogus) == library_decrypt(key, bogus.iv, bogus.body)
        envelope = encrypt(key, message)
        assert envelope.body == library_encrypt(key, envelope.iv, message)
        other = rng.choice(keys)
        rotated = reencrypt(key, other, envelope)
        assert library_decrypt(other, rotated.iv, rotated.body) == message
        if trial % 100 == 0:
            assert oracle.cbc_decrypt(other, rotated.iv, rotated.body) == message
            iv = rng.randbytes(16)
            assert decrypt(key, CipherEnvelope(iv, oracle.cbc_encrypt(key, iv, message))) == message


def test_bad_padding_then_valid_call_under_same_key():
    key = generate_key()
    with pytest.raises(BadPaddingError, match="^invalid padding after decryption$"):
        decrypt(key, CipherEnvelope(bytes(16), raw_cbc_encrypt(key, bytes(16), b"\x00" * 32)))
    envelope = encrypt(key, b"after a failure")
    assert decrypt(key, envelope) == b"after a failure"
    assert envelope.body == library_encrypt(key, envelope.iv, b"after a failure")


def test_key_types_and_context_bound():
    key = generate_key()
    envelope = encrypt(bytearray(key), b"x")
    assert decrypt(memoryview(key), envelope) == b"x"
    for _ in range(crypto._CONTEXTS_PER_THREAD + 5):
        encrypt(generate_key(), b"y")
        assert len(crypto._local.contexts) <= crypto._CONTEXTS_PER_THREAD
    assert decrypt(key, envelope) == b"x"


def test_threads_sharing_keys_round_trip():
    keys = [generate_key() for _ in range(3)]
    failures = []
    calls = [0] * 8
    stop = time.monotonic() + 1.0

    def worker(index):
        rng = random.Random(index)
        try:
            while time.monotonic() < stop:
                k1, k2 = rng.choice(keys), rng.choice(keys)
                message = rng.randbytes(rng.randint(0, 100))
                envelope = encrypt(k1, message)
                if decrypt(k1, envelope) != message:
                    failures.append(f"thread {index}: decrypt mismatch")
                rotated = reencrypt(k1, k2, envelope)
                if library_decrypt(k2, rotated.iv, rotated.body) != message:
                    failures.append(f"thread {index}: reencrypt mismatch")
                calls[index] += 1
        except Exception as exc:  # a RuntimeError here means a shared context
            failures.append(f"thread {index}: {exc!r}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert all(calls)
