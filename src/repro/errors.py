"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one type at the boundary.  Compression codecs raise
:class:`CompressionError` subclasses; the chemistry substrate raises
:class:`ChemistryError` subclasses.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class CompressionError(ReproError):
    """Base class for compressor/decompressor failures."""


class FormatError(CompressionError):
    """A compressed stream is malformed, truncated, or has a bad magic/version."""


class ChecksumError(FormatError):
    """Stored and recomputed checksums disagree (bit flips, index/payload skew).

    A :class:`FormatError` subclass so existing ``except FormatError``
    handlers keep working; distinct so callers can tell silent corruption
    (CRC mismatch on structurally valid bytes) from structural damage.
    """


class KernelBuildError(ReproError):
    """The compiled PaSTRI index-pass kernel could not be built or loaded.

    Raised when :mod:`repro.core.kernel` is imported on a host where the
    compiler it names cannot produce a loadable library; the message
    carries the compiler command, the source, the build directory and the
    compiler's stderr.
    """


class ParameterError(ReproError, ValueError):
    """An invalid user-supplied parameter (error bound, block dims, ...)."""


class ErrorBoundViolation(ReproError):
    """Raised by verification helpers when a decompressed array exceeds the bound.

    This is never raised by the codecs themselves (the bound is guaranteed by
    construction); it exists for :func:`repro.metrics.error.assert_error_bound`
    so tests and pipelines can fail loudly on regression.
    """


class ServiceError(ReproError):
    """Base class for errors in the compression service layer."""


class ProtocolError(ServiceError):
    """A service frame is malformed: bad magic, oversized declared length,
    short payload, or unparseable header JSON."""


class ServerBusyError(ServiceError):
    """The server refused a request under backpressure (queue full, too many
    in-flight bytes, or draining).  Retryable; clients back off and retry.

    ``retry_after_s`` is the server's hint for the first backoff delay.
    """

    def __init__(self, message: str, retry_after_s: float = 0.05) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class DeadlineExceeded(ServiceError):
    """A request spent longer than its deadline queued at the server and was
    dropped without being processed."""


class RemoteError(ServiceError):
    """The server reported a structured failure the client cannot map to a
    more specific type; carries the wire error ``code``."""

    def __init__(self, message: str, code: str = "INTERNAL") -> None:
        super().__init__(message)
        self.code = code


class ChemistryError(ReproError):
    """Base class for errors in the quantum-chemistry substrate."""


class BasisError(ChemistryError):
    """Unknown shell type, bad angular momentum, or malformed basis input."""


class GeometryError(ChemistryError):
    """Malformed molecular geometry input."""
