"""Component configuration.

:class:`SipAccount` mirrors the VoIP application settings dialog of
Figure 2: username, SIP provider domain, and the one MANET-specific change
the paper requires — the outbound proxy pointed at ``localhost``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.manet_slp import ManetSlpConfig
from repro.errors import ConfigError
from repro.sip.uri import SipUri


@dataclass
class SipAccount:
    """A VoIP application account (the Figure 2 dialog)."""

    username: str
    domain: str
    display_name: str | None = None
    #: Digest-authentication password at the provider (None = no auth).
    password: str | None = None
    #: The paper's single required tweak: route all SIP through localhost.
    outbound_proxy: str = "localhost"
    outbound_proxy_port: int = 5060
    #: The provider-mandated outbound proxy, if any (polyphone.ethz.ch case).
    #: A stock VoIP app cannot convey this to SIPHoc — the field was
    #: overwritten with "localhost" — which reproduces the paper's open
    #: issue. Setting it here enables the paper's proposed future-work fix.
    provider_outbound_proxy: str | None = None
    provider_outbound_proxy_port: int = 5060

    def __post_init__(self) -> None:
        if not self.username:
            raise ConfigError("SIP account needs a username")
        if not self.domain:
            raise ConfigError("SIP account needs a provider domain")

    @property
    def aor(self) -> SipUri:
        """The account's address of record, e.g. ``sip:alice@voicehoc.ch``."""
        return SipUri(user=self.username, host=self.domain)

    @property
    def uses_local_proxy(self) -> bool:
        return self.outbound_proxy in ("localhost", "127.0.0.1")

    @property
    def credentials(self):
        """SIP digest credentials, or None when no password is set."""
        if self.password is None:
            return None
        from repro.sip.auth import Credentials

        return Credentials(username=self.username, password=self.password)


@dataclass
class SiphocConfig:
    """Knobs for the per-node SIPHoc component stack."""

    slp: ManetSlpConfig = field(default_factory=ManetSlpConfig)
    proxy_port: int = 5060
    #: Port of the proxy's WAN leg (on the tunnel or wired interface).
    wan_port: int = 5061
    # -- overload control (DESIGN.md §5f; everything defaults to off) --------
    #: Reject new INVITE/REGISTER with 503 while this many proxied
    #: dialog-initiating requests await a final response (None = no limit).
    admission_max_inflight: int | None = None
    #: Reject while the node's bounded TX queue is at or beyond this
    #: occupancy fraction, e.g. 0.75 (None = ignore queue depth).
    admission_queue_watermark: float | None = None
    #: Run the §5k mid-call multihomed handover policy. Off keeps the policy
    #: entirely out of the event schedule.
    handover: bool = False
