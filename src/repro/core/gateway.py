"""Gateway Provider: publishes Internet connectivity to the MANET.

Runs on a node that has a wired attachment to the Internet cloud. It starts
a layer-2 tunnel server and announces the ``gateway.siphoc`` service via
MANET SLP, so every node's Connection Provider can find it and attach
itself to the Internet.
"""

from __future__ import annotations

from repro.core.manet_slp import ManetSlp
from repro.core.tunnel import TunnelServer
from repro.errors import GatewayError
from repro.netsim.internet import InternetCloud
from repro.netsim.node import Node
from repro.netsim.packet import PORT_SIPHOC_CTRL
from repro.slp.service import SERVICE_GATEWAY, ServiceUrl


class GatewayProvider:
    """Announces this node as an Internet gateway and serves tunnels."""

    #: Lifetime of the ``gateway.siphoc`` advert (seconds).
    ADVERT_LIFETIME = 60.0

    def __init__(self, node: Node, cloud: InternetCloud, manet_slp: ManetSlp) -> None:
        self.node = node
        self.cloud = cloud
        self.manet_slp = manet_slp
        self.tunnel_server: TunnelServer | None = None
        self._service_url: ServiceUrl | None = None

    @property
    def running(self) -> bool:
        return self.tunnel_server is not None

    def start(self) -> "GatewayProvider":
        if self.running:
            return self
        if self.node.wired_ip is None:
            raise GatewayError(
                f"{self.node.hostname} has no Internet attachment; cannot be a gateway"
            )
        self.tunnel_server = TunnelServer(self.node, self.cloud)
        self._service_url = ServiceUrl(
            service_type=SERVICE_GATEWAY, host=self.node.ip, port=PORT_SIPHOC_CTRL
        )
        self.manet_slp.register(
            self._service_url,
            attributes={"wired": self.node.wired_ip},
            lifetime=self.ADVERT_LIFETIME,
        )
        self.node.stats.increment("gateway.started")
        tracer = self.node.sim.tracer
        if tracer is not None:
            tracer.emit(
                "gateway.up", self.node.ip, wired=self.node.wired_ip,
                url=str(self._service_url),
            )
        return self

    def stop(self) -> None:
        if not self.running:
            return
        assert self.tunnel_server is not None
        if self._service_url is not None:
            self.manet_slp.deregister(self._service_url)
            self._service_url = None
        self.tunnel_server.close()
        self.tunnel_server = None
        tracer = self.node.sim.tracer
        if tracer is not None:
            tracer.emit("gateway.down", self.node.ip)

    def fail(self) -> None:
        """Abrupt (crash-like) shutdown: the SLP advert is *not* withdrawn.

        Remote caches keep the stale gateway entry until it expires, so
        Connection Providers will still try to attach to a dead gateway —
        the exact situation their failed-gateway cooldown handles. Used by
        fault injection (``GatewayDown(graceful=False)``).
        """
        if not self.running:
            return
        assert self.tunnel_server is not None
        self.manet_slp.forget_local(self._service_url)
        self._service_url = None
        self.tunnel_server.close()
        self.tunnel_server = None
        self.node.stats.increment("gateway.failed")
        tracer = self.node.sim.tracer
        if tracer is not None:
            tracer.emit("gateway.down", self.node.ip)
