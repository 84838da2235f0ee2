"""Exception hierarchy for the repro package.

Every subsystem raises exceptions derived from :class:`ReproError` so that
applications can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """Raised for misuse of the discrete-event simulation core."""


class NetworkError(ReproError):
    """Raised for IP/transport layer failures (no route, port in use...)."""


class PortInUseError(NetworkError):
    """Raised when binding a UDP port that is already bound on the node."""

    def __init__(self, port: int) -> None:
        super().__init__(f"UDP port {port} already bound")
        self.port = port


class CodecError(ReproError):
    """Raised when a wire message cannot be encoded or decoded."""


class SipError(ReproError):
    """Base class for SIP stack errors."""


class SipParseError(SipError, CodecError):
    """Raised when a SIP message or URI fails to parse."""


class SipTransactionError(SipError):
    """Raised for invalid transaction-layer operations."""


class SipDialogError(SipError):
    """Raised for invalid dialog-layer operations."""


class SlpError(ReproError):
    """Base class for SLP errors."""


class GatewayError(ReproError):
    """Raised for gateway/tunnel management failures."""


class ConfigError(ReproError):
    """Raised for invalid component configuration."""


class MetricsError(ReproError):
    """Raised for invalid metrics registration, export or profiler use."""
