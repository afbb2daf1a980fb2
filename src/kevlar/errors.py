"""Exception hierarchy shared across the package.

Every failure a protocol client can observe maps onto exactly one of
these; the daemon translates them into wire-level error codes.
"""


class KevlarError(Exception):
    """Base class for all errors raised by this package."""


# --- cache ------------------------------------------------------------

class InvalidConfigError(KevlarError, ValueError):
    """A cache configuration bound was violated."""


class NotFoundError(KevlarError):
    """The id exists in neither the volatile tier nor the backend."""


class IdTooLongError(KevlarError, ValueError):
    """The id exceeds the configured maximum."""


class ValueTooLongError(KevlarError, ValueError):
    """The value exceeds the configured maximum."""


# --- sealed store -----------------------------------------------------

class StoreError(KevlarError):
    """Base class for sealed-store failures."""


class StoreIOError(StoreError):
    """The underlying filesystem operation failed."""


class IntegrityError(StoreError):
    """A sealed object failed authentication (tampering or wrong key)."""


class BadKeyfileError(StoreError):
    """The keyfile exists but does not hold exactly 32 bytes."""


# --- payload crypto ---------------------------------------------------

class CryptoError(KevlarError):
    """Base class for payload encryption failures."""


class BadPaddingError(CryptoError):
    """Decryption produced invalid padding (wrong key or corruption)."""


class MalformedEnvelopeError(CryptoError):
    """The cipher envelope does not have a legal shape."""


# --- wire protocol ----------------------------------------------------

class WireError(KevlarError):
    """Base class for wire-format failures."""


class InvalidBase64Error(WireError):
    """Input is not a canonical base64 encoding."""


class InvalidFrameError(WireError):
    """A protocol line does not match the frame grammar."""


class FrameTooLargeError(InvalidFrameError):
    """A protocol line exceeds the frame limit, wire.MAX_FRAME."""


# --- transport --------------------------------------------------------

class TransportError(KevlarError):
    """Base class for TCP transport failures."""


class ConnectRefusedError(TransportError):
    """The peer actively refused the connection."""


class PeerClosedError(TransportError):
    """The peer closed the connection (or it was closed locally)."""
