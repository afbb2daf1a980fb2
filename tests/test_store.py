import hashlib
import os
import struct
import threading

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import given, settings, strategies as st

from kevlar.errors import BadKeyfileError, IntegrityError, NotFoundError, StoreIOError
from kevlar.store import (
    KEY_SIZE, MAGIC, NONCE_SIZE, OBJECT_SUFFIX, TAG_SIZE, SecureStore, open_store,
)


def _dir_digest(root) -> dict[str, bytes]:
    return {p.name: hashlib.sha256(p.read_bytes()).digest() for p in root.iterdir()}


def test_first_run_bootstraps_keyfile(tmp_path):
    keyfile = tmp_path / "sealing.key"
    handle = open_store(tmp_path / "store", keyfile)
    assert keyfile.exists()
    assert len(keyfile.read_bytes()) == KEY_SIZE
    assert (keyfile.stat().st_mode & 0o777) == 0o600
    handle.close()


def test_keyfile_wrong_size_rejected(tmp_path):
    keyfile = tmp_path / "sealing.key"
    keyfile.write_bytes(b"\x00" * 31)
    with pytest.raises(BadKeyfileError):
        open_store(tmp_path / "store", keyfile)


def test_keyfile_that_fails_to_sync_is_not_left_behind(tmp_path, monkeypatch):
    keyfile = tmp_path / "sealing.key"

    def failing_fsync(fd):
        raise OSError(5, "Input/output error")

    with monkeypatch.context() as patched:
        patched.setattr(os, "fsync", failing_fsync)
        with pytest.raises(StoreIOError):
            open_store(tmp_path / "store", keyfile)
    assert [p.name for p in tmp_path.iterdir()] == ["store"]
    open_store(tmp_path / "store", keyfile).close()
    assert len(keyfile.read_bytes()) == KEY_SIZE


def test_opener_that_loses_the_keyfile_link_loads_the_published_key(tmp_path, monkeypatch):
    # Another opener publishes its key between our read and our link.
    keyfile = tmp_path / "sealing.key"
    winner_key = os.urandom(KEY_SIZE)
    (tmp_path / "store").mkdir()
    winner = SecureStore(tmp_path / "store", winner_key)
    winner.write_ss(b"id", b"sealed by the winner")
    real_link = os.link

    def racing_link(src, dst):
        with open(dst, "wb") as fh:
            fh.write(winner_key)
        return real_link(src, dst)

    monkeypatch.setattr("kevlar.store.os.link", racing_link)
    handle = open_store(tmp_path / "store", keyfile)
    monkeypatch.undo()
    assert handle.read_ss(b"id") == b"sealed by the winner"
    assert keyfile.read_bytes() == winner_key
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sealing.key", "store"]
    handle.close()


def test_keyfile_that_cannot_be_read_raises_store_io_error(tmp_path, monkeypatch):
    keyfile = tmp_path / "sealing.key"
    keyfile.write_bytes(os.urandom(KEY_SIZE))
    real_open = os.open

    def fail_on_keyfile(path, flags, *args):
        if os.fspath(path) == str(keyfile):
            raise PermissionError(13, "Permission denied", os.fspath(path))
        return real_open(path, flags, *args)

    monkeypatch.setattr("kevlar.store.os.open", fail_on_keyfile)
    with pytest.raises(StoreIOError) as info:
        open_store(tmp_path / "store", keyfile)
    assert str(info.value).startswith(f"cannot read keyfile {keyfile}: ")


def test_default_paths_are_made_in_the_cwd(tmp_path, monkeypatch):
    from kevlar.daemon import build_parser

    monkeypatch.chdir(tmp_path)
    for name in [n for n in os.environ if n.startswith("KEVLAR_")]:
        monkeypatch.delenv(name)
    args = build_parser().parse_args([])
    assert (args.store_dir, args.keyfile) == ("./kevlar-store", "./kevlar.key")
    handle = open_store(args.store_dir, args.keyfile)
    handle.write_ss(b"id", b"value")
    handle.close()
    assert (tmp_path / "kevlar-store").is_dir()
    assert len((tmp_path / "kevlar.key").read_bytes()) == KEY_SIZE
    assert ((tmp_path / "kevlar.key").stat().st_mode & 0o777) == 0o600
    reopened = open_store(args.store_dir, args.keyfile)
    assert reopened.read_ss(b"id") == b"value"
    reopened.close()


def test_bare_keyfile_name_is_made_in_the_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    open_store("s", "k").close()
    assert len((tmp_path / "k").read_bytes()) == KEY_SIZE
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k", "s"]
    first = (tmp_path / "k").read_bytes()
    open_store("s", "k").close()
    assert (tmp_path / "k").read_bytes() == first


def test_roundtrip_and_reopen(tmp_path, store):
    value = os.urandom(32)
    store.write_ss(b"client000001", value)
    assert store.read_ss(b"client000001") == value
    store.close()
    # Same keyfile, fresh handle: survives a "restart".
    reopened = open_store(tmp_path / "store", tmp_path / "sealing.key")
    assert reopened.read_ss(b"client000001") == value
    reopened.close()


def test_io_error_detail_names_no_path(store, monkeypatch):
    # An OSError without strerror is named by its type, never by str(exc).
    def fail(path, flags):
        raise OSError(f"cannot open {path}")

    monkeypatch.setattr("kevlar.store.os.open", fail)
    with pytest.raises(StoreIOError) as info:
        store.read_ss(b"a")
    assert str(info.value) == "cannot read object for id b'a': OSError"


def test_empty_value(store):
    store.write_ss(b"empty", b"")
    assert store.read_ss(b"empty") == b""


def test_overwrite_keeps_one_file_latest_value(store):
    store.write_ss(b"k", b"first")
    store.write_ss(b"k", b"second")
    objects = list(store.root_dir.glob(f"*{OBJECT_SUFFIX}"))
    assert len(objects) == 1
    assert store.read_ss(b"k") == b"second"


def test_value_not_stored_in_plaintext(store):
    value = os.urandom(32)
    store.write_ss(b"client000001", value)
    blob = store.object_path(b"client000001").read_bytes()
    assert value not in blob
    assert b"client000001" not in blob
    assert blob.startswith(MAGIC)


def test_object_file_is_header_nonce_sealed_value(store):
    # The id is associated data only: nothing but the value is encrypted.
    for value in (b"", b"12345678", os.urandom(256)):
        store.write_ss(b"client000001", value)
        size = store.object_path(b"client000001").stat().st_size
        assert size == len(MAGIC) + 1 + NONCE_SIZE + len(value) + TAG_SIZE


def test_version_1_object_is_refused(tmp_path, store):
    # Version 1 sealed the record id_length (4B) || id || value under
    # magic and version only; such a file must not be returned.
    header = MAGIC + bytes([1])
    nonce = os.urandom(NONCE_SIZE)
    record = struct.pack(">I", 3) + b"abc" + b"12345678"
    aead = AESGCM((tmp_path / "sealing.key").read_bytes())
    store.object_path(b"abc").write_bytes(header + nonce + aead.encrypt(nonce, record, header))
    with pytest.raises(IntegrityError, match="malformed"):
        store.read_ss(b"abc")


def test_read_missing_id(store):
    with pytest.raises(NotFoundError):
        store.read_ss(b"never-written")


def test_every_bit_flip_is_detected(store):
    store.write_ss(b"abc", b"12345678")
    path = store.object_path(b"abc")
    original = path.read_bytes()
    assert len(original) <= 128
    for byte_index in range(len(original)):
        for bit in range(8):
            mutated = bytearray(original)
            mutated[byte_index] ^= 1 << bit
            path.write_bytes(bytes(mutated))
            with pytest.raises(IntegrityError):
                store.read_ss(b"abc")
    path.write_bytes(original)
    assert store.read_ss(b"abc") == b"12345678"


def test_truncated_object_is_integrity_failure(store):
    store.write_ss(b"abc", b"12345678")
    path = store.object_path(b"abc")
    path.write_bytes(path.read_bytes()[:10])
    with pytest.raises(IntegrityError):
        store.read_ss(b"abc")


def test_isolation_between_sealing_keys(tmp_path, store):
    store.write_ss(b"secret-id", b"secret-value")
    other_keyfile = tmp_path / "other.key"
    other_keyfile.write_bytes(os.urandom(KEY_SIZE))
    intruder = open_store(store.root_dir, other_keyfile)
    with pytest.raises(IntegrityError):
        intruder.read_ss(b"secret-id")
    intruder.close()


def test_swapped_object_files_fail_id_check(store):
    # Copying another id's sealed file into this id's slot must not pass.
    store.write_ss(b"aaa", b"value-a")
    store.write_ss(b"bbb", b"value-b")
    blob_b = store.object_path(b"bbb").read_bytes()
    store.object_path(b"aaa").write_bytes(blob_b)
    with pytest.raises(IntegrityError):
        store.read_ss(b"aaa")


def test_object_path_deterministic_and_confined(store):
    p1 = store.object_path(b"some-id")
    p2 = store.object_path(b"some-id")
    assert p1 == p2
    assert p1.suffix == OBJECT_SUFFIX
    hostile = store.object_path(b"../../etc/passwd")
    assert hostile.parent == store.root_dir
    # distinct ids -> distinct paths over a small corpus
    corpus = [bytes([i, j]) for i in range(16) for j in range(16)]
    paths = {store.object_path(i) for i in corpus}
    assert len(paths) == len(corpus)


def test_free_standing_store_untouched_by_handle_close(tmp_path, store):
    store.write_ss(b"k1", b"v1")
    before = _dir_digest(store.root_dir)
    store.close()
    assert _dir_digest(tmp_path / "store") == before


def test_closed_handle_rejects_operations(store):
    store.close()
    with pytest.raises(ValueError):
        store.read_ss(b"x")
    with pytest.raises(ValueError):
        store.write_ss(b"x", b"y")


def test_empty_id_rejected(store):
    with pytest.raises(ValueError):
        store.write_ss(b"", b"v")


@given(id=st.binary(min_size=1, max_size=64), value=st.binary(max_size=2048))
@settings(max_examples=50)
def test_roundtrip_property(tmp_path_factory, id, value):
    root = tmp_path_factory.mktemp("prop")
    handle = open_store(root / "store", root / "sealing.key")
    handle.write_ss(id, value)
    assert handle.read_ss(id) == value
    handle.close()


def test_roundtrip_64k(store):
    value = os.urandom(64 * 1024)
    store.write_ss(b"big", value)
    assert store.read_ss(b"big") == value


@pytest.mark.parametrize("read_limit", [None, 4096])
def test_roundtrip_200k_is_read_whole(store, monkeypatch, read_limit):
    # read_ss reads to the object's size; the 4096 case makes every read short.
    if read_limit is not None:
        read = os.read
        monkeypatch.setattr("kevlar.store.os.read", lambda fd, n: read(fd, min(n, read_limit)))
    value = os.urandom(200 * 1024)
    store.write_ss(b"big", value)
    assert store.read_ss(b"big") == value


def test_atomic_replace_under_interleaved_reads(tmp_path, store):
    value_a = b"\xaa" * 64
    value_b = b"\xbb" * 64
    store.write_ss(b"flip", value_a)
    reader = open_store(tmp_path / "store", tmp_path / "sealing.key")
    stop = threading.Event()
    bad: list[object] = []

    def read_loop():
        while not stop.is_set():
            try:
                got = reader.read_ss(b"flip")
            except Exception as exc:  # any failure at all is a torn read
                bad.append(exc)
                return
            if got not in (value_a, value_b):
                bad.append(got)
                return

    thread = threading.Thread(target=read_loop)
    thread.start()
    for i in range(400):
        store.write_ss(b"flip", value_b if i % 2 == 0 else value_a)
    stop.set()
    thread.join()
    reader.close()
    assert not bad, f"torn or failed read observed: {bad[:1]}"
