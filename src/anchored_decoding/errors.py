"""Shared exception types."""


class AnchorError(Exception):
    """Base class for package errors."""


class CapacityError(AnchorError):
    """Context exceeds the backend's maximum sequence length."""


class MaskIndexError(ValueError):
    """A mask position outside the context it masks."""


class TransportError(AnchorError):
    """Remote backend unreachable or protocol violated.

    Carries the raw response (bytes or parsed dict) when one was received.
    """

    def __init__(self, message, raw=None):
        super().__init__(message)
        self.raw = raw


class UnsupportedOperationError(AnchorError):
    """Operation not available on this backend (e.g. gradient probes remotely)."""


class DecodeError(AnchorError):
    """A decode aborted mid-stream; the partial trace is attached."""

    def __init__(self, message, partial_trace=None):
        super().__init__(message)
        self.partial_trace = partial_trace
