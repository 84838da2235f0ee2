"""SiphocStack: the five-component deployment of Figure 1 on one node.

Composes routing daemon, routing handler plugin, MANET SLP, SIPHoc proxy,
Connection Provider, Gateway Provider (when the node has Internet) and any
number of softphones — the complete per-node system the paper deploys on
laptops and iPAQ handhelds.
"""

from __future__ import annotations

from repro.core.config import SipAccount, SiphocConfig
from repro.core.connection import ConnectionProvider, HandoverPolicy
from repro.core.gateway import GatewayProvider
from repro.core.handlers import make_handler
from repro.core.manet_slp import ManetSlp
from repro.core.proxy import SiphocProxy
from repro.core.softphone import AnswerMode, SoftPhone
from repro.errors import ConfigError
from repro.netsim.internet import InternetCloud
from repro.netsim.node import Node
from repro.routing.aodv import Aodv
from repro.routing.base import RoutingProtocol
from repro.routing.olsr import Olsr


def make_routing(node: Node, protocol: str) -> RoutingProtocol:
    if protocol == "aodv":
        return Aodv(node)
    if protocol == "olsr":
        return Olsr(node)
    raise ConfigError(f"unknown routing protocol {protocol!r} (use 'aodv' or 'olsr')")


class SiphocStack:
    """All SIPHoc components on one MANET node."""

    def __init__(
        self,
        node: Node,
        routing: str | RoutingProtocol = "aodv",
        cloud: InternetCloud | None = None,
        config: SiphocConfig | None = None,
        run_connection_provider: bool = True,
        gateway_role: bool | None = None,
    ) -> None:
        self.node = node
        self.sim = node.sim
        self.config = config or SiphocConfig()
        self.cloud = cloud
        if isinstance(routing, str):
            self.routing: RoutingProtocol = make_routing(node, routing)
        else:
            self.routing = routing
        self.handler = make_handler(self.routing)
        self.manet_slp = ManetSlp(node, self.handler, self.config.slp)
        self.connection: ConnectionProvider | None = None
        if run_connection_provider and node.wired_ip is None:
            self.connection = ConnectionProvider(node, self.manet_slp)
        self.proxy = SiphocProxy(
            node,
            self.manet_slp,
            config=self.config,
            connection=self.connection,
            dns_resolver=cloud.dns.resolve if cloud is not None else None,
        )
        self.gateway: GatewayProvider | None = None
        # gateway_role=None keeps the legacy inference (wired attachment =>
        # gateway); multihomed phone nodes pass False so a wired uplink for
        # §5k handover doesn't also advertise gateway.siphoc to the MANET.
        is_gateway = gateway_role if gateway_role is not None else node.wired_ip is not None
        if is_gateway:
            if node.wired_ip is None:
                raise ConfigError("a gateway node needs an Internet attachment")
            if cloud is None:
                raise ConfigError("a gateway node needs the Internet cloud reference")
            self.gateway = GatewayProvider(node, cloud, self.manet_slp)
        self.handover: HandoverPolicy | None = None
        if self.config.handover:
            self.handover = HandoverPolicy(node, self)
        self.phones: list[SoftPhone] = []
        self._next_phone_port = 5070
        self._started = False

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> "SiphocStack":
        if self._started:
            return self
        self._started = True
        self.routing.start()
        self.manet_slp.start()
        if self.connection is not None:
            self.connection.start()
        if self.gateway is not None:
            self.gateway.start()
        if self.handover is not None:
            self.handover.start()
        return self

    def stop(self) -> None:
        if not self._started:
            return
        self._started = False
        if self.handover is not None:
            self.handover.stop()
        for phone in self.phones:
            phone.stop()
        if self.gateway is not None:
            self.gateway.stop()
        if self.connection is not None:
            self.connection.stop()
        self.manet_slp.stop()
        self.proxy.close()
        self.routing.stop()

    def crash(self) -> None:
        """Abrupt failure of the whole node: no goodbye signaling escapes.

        Marks the node down *first* — so the BYEs, SLP withdrawals and
        tunnel releases the component stop() paths attempt are silently
        swallowed by the dead interfaces — then tears the components down
        and wipes the node's transport state (:meth:`Node.crash`). After
        this, a fresh :class:`SiphocStack` can be built on the same node
        once :meth:`Node.restart` brings it back up.
        """
        self.node.up = False
        self.stop()
        self.node.crash()

    # -- phones ---------------------------------------------------------------------
    def add_phone(
        self,
        account: SipAccount | None = None,
        username: str | None = None,
        domain: str = "voicehoc.ch",
        register: bool = True,
        answer_mode: AnswerMode = AnswerMode.AUTO,
        **phone_kwargs,
    ) -> SoftPhone:
        """Install a softphone on this node (Figure 2 configuration).

        Either pass a full :class:`SipAccount` or just a ``username`` (the
        account then uses the default localhost outbound proxy).
        """
        if account is None:
            if username is None:
                raise ConfigError("add_phone needs an account or a username")
            account = SipAccount(username=username, domain=domain)
        port = self._next_phone_port
        self._next_phone_port += 2
        phone = SoftPhone(
            self.node, account, port=port, answer_mode=answer_mode, **phone_kwargs
        )
        self.proxy.configure_account(account)
        self.phones.append(phone)
        if self.handover is not None:
            self.handover.adopt_phone(phone)
        if self._started and register:
            phone.start()
        elif register:
            # Start lazily on stack start.
            self.sim.schedule(0.0, phone.start)
        return phone

    @property
    def internet_available(self) -> bool:
        return self.proxy.internet_available
