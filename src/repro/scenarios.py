"""Scenario builders: reusable topologies and call workloads.

Everything the examples, integration tests and benchmarks share lives
here: MANET construction (chain / grid / random with either routing
protocol), optional Internet attachment with SIP providers, phone
placement, and call workload execution with metric collection.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import SipAccount, SiphocConfig
from repro.core.provider import SipProvider
from repro.core.softphone import SoftPhone
from repro.core.stack import SiphocStack
from repro.errors import ConfigError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.netsim.internet import InternetCloud
from repro.netsim.medium import WirelessMedium
from repro.netsim.mobility import (
    RandomWaypointMobility,
    place_chain,
    place_grid,
    place_random,
)
from repro.netsim.node import Node
from repro.netsim.packet import manet_ip
from repro.netsim.simulator import Simulator
from repro.netsim.stats import Stats
from repro.metrics import instruments as metrics_instruments
from repro.metrics import scraper as metrics_scraper
from repro.routing.aodv import Aodv
from repro.rtp.jitter import AdaptivePlayoutPolicy, JitterPolicy
from repro.sip.ua import CallState
from repro.trace import collector as trace_collector

DEFAULT_DOMAIN = "voicehoc.ch"


def _media_policy(name: str) -> JitterPolicy:
    """Resolve a ``media_jitter_policy`` config name to a policy instance."""
    if name == "adaptive":
        return AdaptivePlayoutPolicy()
    raise ConfigError(f"unknown media_jitter_policy {name!r}")


@dataclass
class ManetConfig:
    """Parameters of a simulated MANET."""

    n_nodes: int = 5
    topology: str = "chain"  # chain | grid | random
    routing: str = "aodv"  # aodv | olsr
    # RREQ-retry horizon: RFC 3561 NET_DIAMETER override for small networks
    # (None keeps the protocol default of 35 hops -> 2.8 s retry timeout).
    aodv_net_diameter: int | None = None
    seed: int = 1
    tx_range: float = 150.0
    spacing: float = 100.0  # chain/grid spacing
    area: tuple[float, float] = (600.0, 600.0)  # random placement area
    loss_rate: float = 0.0
    mac_retries: int = 3  # 802.11-style link-layer retransmissions
    mobility: bool = False
    mobility_speed: tuple[float, float] = (0.5, 2.0)
    internet_gateways: int = 0  # how many nodes get wired attachments
    # Node indexes given a wired uplink WITHOUT the gateway role (§5k
    # multihomed phones): they never advertise gateway.siphoc, the uplink
    # exists purely as the handover target for mid-call migration.
    multihomed: tuple[int, ...] = ()
    # Run the per-node Connection Provider (gateway discovery). Without any
    # Internet attachment its periodic SLP lookups can never succeed, yet each
    # one floods the whole MANET — O(N^2) receptions per poll round. Large
    # MANET-only scenarios (the 5k-node city) turn it off.
    connection_provider: bool = True
    providers: tuple[str, ...] = ()
    strict_providers: tuple[str, ...] = ()  # providers mandating an SBC
    tracing: bool = False  # attach a repro.trace collector to the simulator
    metrics: bool = False  # attach a repro.metrics scraper + standard gauges
    metrics_interval: float = 1.0  # sim-seconds between metric snapshots
    faults: FaultPlan | None = None  # timed fault events + optional channel model
    # -- media plane (§5j; defaults keep phone SDP and schedules bit-identical)
    media_jitter_policy: str = "fixed"  # fixed | adaptive playout-delay policy
    media_redundancy: int = 0  # RFC 2198 depth every phone offers (0 = off)
    media_vad: bool = False  # silence suppression + comfort-noise frames
    # -- overload control (§5f; defaults keep every path bit-identical) -------
    tx_queue_capacity: int | None = None  # bounded per-node TX queue (None = unbounded)
    siphoc: SiphocConfig | None = None  # shared per-node stack config (admission etc.)


class ManetScenario:
    """A fully wired simulation: MANET + optional Internet + SIPHoc stacks."""

    def __init__(self, config: ManetConfig | None = None) -> None:
        base = config or ManetConfig()
        self.config = base
        self.sim = Simulator(seed=base.seed)
        self.stats = Stats()
        # Tracing attaches before any stack is built so construction-time
        # events (gateway.up, slp.advertise, ...) are captured too. The
        # process-wide default (repro.trace.enable_default) is how
        # `python -m repro.experiments --trace` opts in without reaching
        # into every scenario constructor.
        self.trace: trace_collector.TraceCollector | None = None
        default_cap = trace_collector.default_capacity()
        if base.tracing or default_cap is not None:
            capacity = trace_collector.DEFAULT_CAPACITY if base.tracing else default_cap
            self.trace = trace_collector.TraceCollector(capacity=capacity).attach(self.sim)
            trace_collector.register(self.trace)
        self.medium = WirelessMedium(
            self.sim,
            stats=self.stats,
            tx_range=base.tx_range,
            loss_rate=base.loss_rate,
            mac_retries=base.mac_retries,
        )
        if base.faults is not None and base.faults.channel is not None:
            self.medium.channel = base.faults.channel
            # Time-domain channels (sojourns in sim-seconds) need the clock.
            bind = getattr(base.faults.channel, "bind_clock", None)
            if bind is not None:
                bind(self.sim)
        self.cloud: InternetCloud | None = None
        self.providers: dict[str, SipProvider] = {}
        needs_cloud = (
            base.internet_gateways > 0
            or bool(base.multihomed)
            or base.providers
            or base.strict_providers
        )
        if needs_cloud:
            self.cloud = InternetCloud(self.sim, stats=self.stats)
            for domain in base.providers:
                self.providers[domain] = SipProvider(self.cloud, domain)
            for domain in base.strict_providers:
                self.providers[domain] = SipProvider(
                    self.cloud, domain, requires_outbound_proxy=True
                )
        self.nodes: list[Node] = []
        for index in range(base.n_nodes):
            node = Node(self.sim, index, manet_ip(index), stats=self.stats)
            node.join_medium(self.medium)
            if base.tx_queue_capacity is not None:
                node.configure_tx_queue(base.tx_queue_capacity)
            self.nodes.append(node)
        self._place_nodes()
        if self.cloud is not None:
            # Gateways are the last nodes (edge of a chain, corner of a grid).
            for node in self.nodes[-base.internet_gateways :] if base.internet_gateways else []:
                self.cloud.attach(node)
            # Multihomed phone nodes get an uplink too, but no gateway role.
            for index in base.multihomed:
                if self.nodes[index].wired_ip is None:
                    self.cloud.attach(self.nodes[index])
        self.stacks: list[SiphocStack] = [self._build_stack(node) for node in self.nodes]
        self.mobility: RandomWaypointMobility | None = None
        if base.mobility:
            self.mobility = RandomWaypointMobility(
                self.sim,
                self.nodes,
                width=base.area[0],
                height=base.area[1],
                min_speed=base.mobility_speed[0],
                max_speed=base.mobility_speed[1],
            )
        # Metrics mirror the trace opt-in: per-scenario via the config flag,
        # process-wide via repro.metrics.enable_default (how the harness
        # `--metrics` flags opt in without touching every constructor). The
        # scraper piggybacks on Simulator.run — no scheduled events, so the
        # event schedule is byte-identical with metrics on or off.
        self.metrics: metrics_scraper.MetricsScraper | None = None
        default_interval = metrics_scraper.default_interval()
        if base.metrics or default_interval is not None:
            interval = base.metrics_interval if base.metrics else default_interval
            self.metrics = metrics_scraper.MetricsScraper(
                metrics_instruments.scenario_reader(self), interval=interval
            ).attach(self.sim)
            metrics_scraper.register(self.metrics)
        self.phones: dict[str, SoftPhone] = {}
        self._phone_specs: list[dict] = []
        self._retired_phones: list[SoftPhone] = []
        self.faults: FaultInjector | None = None
        if base.faults is not None:
            self.faults = FaultInjector(self, base.faults)
        self._started = False

    def _build_stack(self, node: Node) -> SiphocStack:
        """One node's SIPHoc stack, as built at construction and on restart."""
        return SiphocStack(
            node,
            routing=self._make_routing(node),
            cloud=self.cloud,
            config=self.config.siphoc,
            run_connection_provider=self.config.connection_provider,
            gateway_role=self._gateway_role(node),
        )

    def _gateway_role(self, node: Node) -> bool | None:
        """Gateway-role argument for one stack.

        ``None`` preserves the legacy inference (wired attachment ⇒
        gateway) for every pre-existing scenario; multihomed phone nodes
        get an explicit ``False`` so their §5k uplink doesn't also turn
        them into advertised gateways.
        """
        if node.node_id in self.config.multihomed and not self._is_gateway_index(
            node.node_id
        ):
            return False
        return None

    def _is_gateway_index(self, index: int) -> bool:
        gateways = self.config.internet_gateways
        return gateways > 0 and index >= self.config.n_nodes - gateways

    def _make_routing(self, node: Node) -> str | Aodv:
        """Routing argument for one stack: the config string, or a tuned
        AODV instance when ``aodv_net_diameter`` overrides the RFC default
        (the string path stays byte-identical for every existing scenario)."""
        if self.config.routing == "aodv" and self.config.aodv_net_diameter is not None:
            return Aodv(node, net_diameter=self.config.aodv_net_diameter)
        return self.config.routing

    def _place_nodes(self) -> None:
        topology = self.config.topology
        if topology == "chain":
            place_chain(self.nodes, self.config.spacing)
        elif topology == "grid":
            place_grid(self.nodes, self.config.spacing)
        elif topology == "random":
            place_random(self.nodes, self.sim, *self.config.area)
        else:
            raise ConfigError(f"unknown topology {topology!r}")

    # -- lifecycle ------------------------------------------------------------------
    def start(self) -> "ManetScenario":
        if self._started:
            return self
        self._started = True
        for stack in self.stacks:
            stack.start()
        if self.mobility is not None:
            self.mobility.start()
        if self.faults is not None and not self.faults.armed:
            self.faults.arm()
        return self

    def stop(self) -> None:
        if not self._started:
            return
        self._started = False
        if self.mobility is not None:
            self.mobility.stop()
        for stack in self.stacks:
            stack.stop()

    # -- fault hooks ------------------------------------------------------------------
    def crash_node(self, index: int) -> None:
        """Abruptly kill node ``index``: no goodbye signaling escapes.

        The node's phones are retired (their call history stays reachable
        through :meth:`call_records`) and the stack is torn down with the
        interfaces already dead, so peers only learn of the failure through
        timeouts and routing-layer link breaks.
        """
        stack = self.stacks[index]
        for phone in stack.phones:
            self._retired_phones.append(phone)
        stack.crash()

    def restart_node(self, index: int) -> SiphocStack:
        """Power-cycle node ``index``: rebuild its stack from scratch.

        All prior state (routes, SLP caches, registrations, tunnel leases)
        is gone — exactly what a rebooted device looks like to the rest of
        the MANET. Phones previously added to the node are re-created from
        their recorded specs.
        """
        old = self.stacks[index]
        if old._started:
            self.crash_node(index)
        node = self.nodes[index]
        node.restart()
        if node.wired_ip is not None and self.cloud is not None:
            # Node.crash() wiped the default routes; the wired uplink the
            # cloud attached at build time has to be reinstalled.
            node.set_default_route("wired", self.cloud.send, priority=0)
        stack = self._build_stack(node)
        stack.manet_slp.resume_xids(old.manet_slp)
        self.stacks[index] = stack
        if self._started:
            stack.start()
        for spec in self._phone_specs:
            if spec["node_index"] != index:
                continue
            account = spec["account"]
            phone = stack.add_phone(
                account=account,
                username=None if account else spec["username"],
                domain=spec["domain"],
                **spec["kwargs"],
            )
            self.phones[spec["username"]] = phone
        return stack

    def call_records(self) -> list:
        """Call history across all phones, including those lost to crashes."""
        records = []
        for phone in self._retired_phones:
            records.extend(phone.history)
        for phone in self.phones.values():
            records.extend(phone.history)
        return records

    # -- convenience ------------------------------------------------------------------
    def add_phone(
        self,
        node_index: int,
        username: str,
        domain: str = DEFAULT_DOMAIN,
        account: SipAccount | None = None,
        **kwargs,
    ) -> SoftPhone:
        # Scenario-wide media knobs become per-phone defaults; explicit
        # kwargs win. Injected before the spec is recorded so phones
        # rebuilt after an injected crash keep the same media config.
        config = self.config
        if config.media_jitter_policy != "fixed":
            kwargs.setdefault("jitter_policy", _media_policy(config.media_jitter_policy))
        if config.media_redundancy:
            kwargs.setdefault("redundancy", config.media_redundancy)
        if config.media_vad:
            kwargs.setdefault("vad", config.media_vad)
        phone = self.stacks[node_index].add_phone(
            account=account, username=None if account else username, domain=domain, **kwargs
        )
        self.phones[username] = phone
        self._phone_specs.append(
            {
                "node_index": node_index,
                "username": username,
                "domain": domain,
                "account": account,
                "kwargs": dict(kwargs),
            }
        )
        return phone

    def converge(self, duration: float | None = None) -> None:
        """Run long enough for routing/registration state to settle."""
        if duration is None:
            duration = 12.0 if self.config.routing == "olsr" else 3.0
        self.sim.run(self.sim.now + duration)

    def call_and_wait(
        self,
        caller: str,
        callee_aor: str,
        duration: float = 10.0,
        setup_timeout: float = 20.0,
    ):
        """Place a call and run until it finishes; returns the CallRecord."""
        phone = self.phones[caller]
        call = phone.place_call(callee_aor, duration=duration)
        record = phone.history[-1]

        def finished() -> bool:
            return call.state in (CallState.TERMINATED, CallState.FAILED)

        self.sim.run_until(finished, timeout=setup_timeout + duration + 10.0, step=0.25)
        return record

    def hop_count(self, from_index: int, to_index: int) -> int | None:
        routing = self.stacks[from_index].routing
        return routing.hop_count_to(self.nodes[to_index].ip)


def build_chain_call_scenario(
    hops: int,
    routing: str = "aodv",
    seed: int = 1,
    loss_rate: float = 0.0,
    **extra,
) -> ManetScenario:
    """A chain of ``hops + 1`` nodes with alice at one end, bob at the other."""
    scenario = ManetScenario(
        ManetConfig(
            n_nodes=hops + 1,
            topology="chain",
            routing=routing,
            seed=seed,
            loss_rate=loss_rate,
            **extra,
        )
    )
    scenario.start()
    scenario.add_phone(0, "alice")
    scenario.add_phone(hops, "bob")
    return scenario
