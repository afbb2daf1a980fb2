"""Durable sealed object store.

A userspace stand-in for TEE-style trusted storage: every object is one
file holding its AES-256-GCM sealed value, named by the SHA-256 of its
id.  Objects are confidential and tamper-evident at rest, and only a
handle opened with the same 32-byte sealing key can read them back.

On-disk layout of a sealed object:

    [4B magic "KVTZ"][1B version 0x02][12B nonce][AES-256-GCM(value) || 16B tag]

Magic, version and id are the associated data, so a flip anywhere in
the file, or a file moved to another id's name, fails authentication;
a file is 33 bytes plus the value.  Files of any other version are
refused as malformed.  Overwrites go through a temp-file-then-rename,
so a reader never observes a torn object.

The sealing key lives in a keyfile (raw 32 bytes, owner-only); this is
an explicitly weaker stand-in for a hardware-unique key.  It is written
the same way, but published with a hard link, so it is never replaced.
"""

from __future__ import annotations

import contextlib
import hashlib
import logging
import os
import tempfile
from pathlib import Path

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import BadKeyfileError, IntegrityError, NotFoundError, StoreIOError

logger = logging.getLogger(__name__)

MAGIC = b"KVTZ"
VERSION = 2
KEY_SIZE = 32
NONCE_SIZE = 12
TAG_SIZE = 16
OBJECT_SUFFIX = ".kvtz"

_HEADER = MAGIC + bytes([VERSION])
_HEADER_SIZE = len(_HEADER) + NONCE_SIZE


def _load_or_create_key(keyfile: Path) -> bytes:
    if keyfile.exists():
        try:
            key = keyfile.read_bytes()
        except OSError as exc:
            raise StoreIOError(f"cannot read keyfile {keyfile}: {exc}") from exc
        if len(key) != KEY_SIZE:
            raise BadKeyfileError(
                f"keyfile {keyfile} holds {len(key)} bytes, expected {KEY_SIZE}"
            )
        return key
    key = os.urandom(KEY_SIZE)
    try:
        # A link, unlike a rename, never replaces a key another opener made.
        _write_file(keyfile, key, os.link)
    except OSError as exc:
        raise StoreIOError(f"cannot create keyfile {keyfile}: {exc}") from exc
    logger.info("generated new sealing key at %s", keyfile)
    return key


def _write_file(path: Path, data: bytes, publish) -> None:
    """Write data to path through an fsynced, owner-only temp file beside it.

    publish(temp, path) puts the temp file in place: os.replace overwrites
    path and os.link fails if path exists.  Either way path never holds
    part of data, and the temp name is gone afterwards.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".write-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        publish(tmp, path)
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _reason(exc: OSError) -> str:
    """The OS error text without the paths in str(exc): peers read it."""
    return exc.strerror or type(exc).__name__


def open_store(root_dir: str | Path, keyfile: str | Path) -> "SecureStore":
    """Open (creating if needed) a sealed store rooted at root_dir.

    An absent keyfile is bootstrapped with 32 fresh random bytes and
    owner-only permissions.
    """
    root = Path(root_dir)
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise StoreIOError(f"cannot create store directory {root}: {exc}") from exc
    key = _load_or_create_key(Path(keyfile))
    return SecureStore(root, key)


class SecureStore:
    """Handle over one store directory, sealed under one key.

    Single-owner: transferable between threads but not meant for
    simultaneous use.  Two handles with different sealing keys cannot
    read each other's objects.
    """

    def __init__(self, root_dir: Path, sealing_key: bytes) -> None:
        if len(sealing_key) != KEY_SIZE:
            raise BadKeyfileError(f"sealing key must be {KEY_SIZE} bytes")
        self._root = Path(root_dir)
        # Object names are joined as strings, not Paths: every cache miss reads.
        self._prefix = os.path.join(self._root, "")
        self._aead = AESGCM(sealing_key)
        self._open = True

    @property
    def root_dir(self) -> Path:
        return self._root

    def close(self) -> None:
        self._open = False

    def _check_open(self) -> None:
        if not self._open:
            raise ValueError("store handle is closed")

    def object_path(self, id: bytes) -> Path:
        """Deterministic object location: SHA-256(id) hex under root_dir.

        Hex naming confines any id (including path-hostile bytes) to the
        store directory.
        """
        return Path(self._object_file(bytes(id)))

    def _object_file(self, id: bytes) -> str:
        self._check_open()
        return self._prefix + hashlib.sha256(id).hexdigest() + OBJECT_SUFFIX

    def write_ss(self, id: bytes, value: bytes) -> None:
        """Seal value under id, atomically replacing any previous object."""
        id = bytes(id)
        path = self.object_path(id)
        if not id:
            raise ValueError("id must be non-empty")
        nonce = os.urandom(NONCE_SIZE)
        sealed = _HEADER + nonce + self._aead.encrypt(nonce, value, _HEADER + id)
        try:
            _write_file(path, sealed, os.replace)
        except OSError as exc:
            raise StoreIOError(f"cannot write object for id {id!r}: {_reason(exc)}") from exc

    def read_ss(self, id: bytes) -> bytes:
        """Return the most recently written value for id, in cleartext."""
        id = bytes(id)
        path = self._object_file(id)
        try:
            fd = os.open(path, os.O_RDONLY)
            try:
                # A published object is never written again, so its size is final.
                size = os.fstat(fd).st_size
                blob = b""
                while len(blob) < size:
                    chunk = os.read(fd, size - len(blob))
                    if not chunk:
                        break
                    blob += chunk
            finally:
                os.close(fd)
        except FileNotFoundError:
            raise NotFoundError(f"no object for id {id!r}") from None
        except OSError as exc:
            raise StoreIOError(f"cannot read object for id {id!r}: {_reason(exc)}") from exc
        if len(blob) < _HEADER_SIZE + TAG_SIZE or blob[: len(_HEADER)] != _HEADER:
            raise IntegrityError(f"object for id {id!r} is malformed")
        nonce = blob[len(_HEADER) : _HEADER_SIZE]
        try:
            return self._aead.decrypt(nonce, blob[_HEADER_SIZE:], _HEADER + id)
        except InvalidTag:
            raise IntegrityError(f"object for id {id!r} failed authentication") from None
