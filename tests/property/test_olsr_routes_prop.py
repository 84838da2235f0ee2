"""The OLSR daemon reuses its route table and MPR set only while they hold.

One daemon receives random HELLOs, TCs and link failures while its clock
steps past the hold times. A ``dispatch`` or ``route_to`` made while
``_dirty`` is set must leave a table equal to a from-scratch BFS over the
live link state; one made while it is clear leaves the table as it was.
The daemon traces one ``olsr.route_recompute`` per call of the first kind.
After every HELLO its MPR set must equal a from-scratch greedy cover, and
it traces one ``olsr.mpr_change`` each time that cover changed.
"""

from hypothesis import example, given, settings, strategies as st

from repro.netsim import Datagram, Node, Packet, Simulator
from repro.routing import (
    LINK_MPR,
    LINK_SYM,
    OLSR_HELLO,
    OLSR_TC,
    HelloBody,
    Olsr,
    OlsrMessage,
    TcBody,
    encode_hello_body,
    encode_olsr_packet,
    encode_tc_body,
)
from repro.trace import TraceCollector

ME = "10.0.0.1"
NEIGHBORS = ("10.0.0.2", "10.0.0.3")
FAR = ("10.0.0.4", "10.0.0.5")
ADDRESSES = (ME, *NEIGHBORS, *FAR)

hellos = st.tuples(
    st.just("hello"),
    st.sampled_from(NEIGHBORS),
    st.sampled_from(("sym", "asym", "mpr")),
    st.frozensets(st.sampled_from(NEIGHBORS + FAR), max_size=2),
)
tcs = st.tuples(
    st.just("tc"),
    st.sampled_from(NEIGHBORS + FAR),
    st.sampled_from((1, 0, -1)),  # ANSN newer, equal or stale
    st.none() | st.frozensets(st.sampled_from(ADDRESSES), max_size=2),  # None: unchanged
    st.sampled_from((1.0, 4.0, 15.0)),
)
failures = st.tuples(st.just("fail"), st.sampled_from(NEIGHBORS), st.booleans())
steps = st.tuples(st.just("step"), st.sampled_from((0.5, 2.0, 4.0, 7.0, 16.0)))
lookups = st.tuples(st.sampled_from(("dispatch", "route_to")), st.sampled_from(ADDRESSES[1:]))


@st.composite
def scripts(draw) -> list[tuple]:
    """Swarm testing: each script uses a random subset of the changes."""
    kinds = st.sampled_from((hellos, tcs, failures, steps))
    changes = draw(st.lists(kinds, min_size=1, unique=True))
    return draw(st.lists(st.one_of(*changes, lookups), min_size=10, max_size=50))


# Two scripts the random search reaches rarely in its budget.
#: A live TC entry changes its selectors, then gets a shorter expiry.
TC_CHANGES_THEN_SHRINKS = [
    ("tc", "10.0.0.4", 1, frozenset({ME}), 15.0),
    ("route_to", "10.0.0.4"),
    ("tc", "10.0.0.4", 1, frozenset({ME, "10.0.0.5"}), 15.0),
    ("route_to", "10.0.0.5"),
    ("tc", "10.0.0.4", 0, None, 1.0),
    ("step", 2.0),
    ("route_to", "10.0.0.4"),
]
#: A link turns symmetric while its 2-hop entry stays the same. Then an
#: asymmetric neighbour's 2-hop entry expires and comes back while the
#: neighbour it names keeps its symmetric link.
ASYM_NEIGHBOURS = [
    ("hello", "10.0.0.2", "asym", frozenset()),
    ("route_to", "10.0.0.2"),
    ("hello", "10.0.0.2", "sym", frozenset()),
    ("route_to", "10.0.0.2"),
    ("hello", "10.0.0.3", "asym", frozenset({"10.0.0.2"})),
    ("route_to", "10.0.0.3"),
    ("step", 4.0),
    ("hello", "10.0.0.2", "sym", frozenset()),
    ("step", 4.0),
    ("route_to", "10.0.0.3"),
    ("hello", "10.0.0.3", "asym", frozenset({"10.0.0.2"})),
    ("route_to", "10.0.0.3"),
]


#: The MPR set's inputs change while its 2-hop entries stay live and equal:
#: a link turns symmetric, a symmetric link fails, and a symmetric link
#: expires before a HELLO that changes nothing. A 2-hop set changes too.
MPR_INPUTS = [
    ("hello", "10.0.0.2", "asym", frozenset({"10.0.0.4"})),
    ("hello", "10.0.0.2", "sym", frozenset({"10.0.0.4"})),
    ("fail", "10.0.0.2", False),
    ("hello", "10.0.0.2", "asym", frozenset({"10.0.0.4"})),
    ("hello", "10.0.0.2", "sym", frozenset({"10.0.0.4"})),
    ("hello", "10.0.0.2", "sym", frozenset()),
    ("hello", "10.0.0.2", "sym", frozenset({"10.0.0.4"})),
    ("step", 4.0),
    ("hello", "10.0.0.3", "asym", frozenset()),
    ("step", 4.0),
    ("hello", "10.0.0.3", "asym", frozenset()),
]


def fresh_mprs(daemon: Olsr) -> set[str]:
    """The greedy MPR cover of the live link state, selected from scratch."""
    now = daemon.sim.now
    sym = {ip for ip, link in daemon._links.items() if now < link.sym_until}
    coverage: dict[str, set[str]] = {}
    for neighbor in sorted(sym):
        two_hop, expiry = daemon._two_hop.get(neighbor, (frozenset(), 0.0))
        if expiry <= now:
            continue
        coverage[neighbor] = {ip for ip in two_hop if ip != ME and ip not in sym}
    to_cover = set().union(*coverage.values()) if coverage else set()
    mprs: set[str] = set()
    covered: set[str] = set()
    for target in sorted(to_cover):
        providers = [n for n, cov in coverage.items() if target in cov]
        if len(providers) == 1:
            mprs.add(providers[0])
    for mpr in sorted(mprs):
        covered |= coverage.get(mpr, set())
    while covered < to_cover:
        best = max(
            (n for n in coverage if n not in mprs),
            key=lambda n: (len(coverage[n] - covered), n),
            default=None,
        )
        if best is None or not (coverage[best] - covered):
            break
        mprs.add(best)
        covered |= coverage[best]
    return mprs


def fresh_routes(daemon: Olsr) -> list[tuple[str, str, int]]:
    """(destination, next hop, hops) in BFS order over the live link state."""
    now = daemon.sim.now
    graph: dict[str, set[str]] = {}

    def add_edge(a: str, b: str) -> None:
        graph.setdefault(a, set()).add(b)
        graph.setdefault(b, set()).add(a)

    for neighbor, link in daemon._links.items():
        if now < link.sym_until:
            add_edge(ME, neighbor)
    for neighbor, (two_hop, expiry) in daemon._two_hop.items():
        if now < expiry:
            for far in two_hop:
                add_edge(neighbor, far)
    for origin, entry in daemon._topology.items():
        if now < entry.expires_at:
            for selector in entry.selectors:
                add_edge(origin, selector)
    routes = []
    first_hop = {ME: ""}
    frontier, depth = [ME], 0
    while frontier:
        depth += 1
        next_frontier = []
        for vertex in frontier:
            for peer in sorted(graph.get(vertex, ())):
                if peer not in first_hop:
                    first_hop[peer] = peer if vertex == ME else first_hop[vertex]
                    routes.append((peer, first_hop[peer], depth))
                    next_frontier.append(peer)
        frontier = next_frontier
    return routes


def table_routes(daemon: Olsr) -> list[tuple[str, str, int]]:
    return [
        (route.destination, route.next_hop, route.hop_count)
        for route in map(daemon.table.get, daemon.table.destinations())
    ]


class _Driver:
    def __init__(self) -> None:
        self.sim = Simulator(seed=1)
        self.tracer = TraceCollector().attach(self.sim)
        self.daemon = Olsr(Node(self.sim, 0, ME)).start()
        self.seq = 0
        self.ansn: dict[str, int] = {}
        self.selectors: dict[str, frozenset[str]] = {}
        self.dirty_calls = 0
        self.mprs: set[str] = set()
        self.mpr_changes = 0

    def receive(self, msg_type: int, origin: str, sender: str, body: bytes, vtime: float) -> None:
        self.seq += 1
        message = OlsrMessage(
            msg_type=msg_type, orig_ip=origin, seq=self.seq, body=body, vtime=vtime, ttl=2
        )
        self.daemon._on_datagram(encode_olsr_packet(self.seq, (message,)), sender, Olsr.port)

    def hello(self, sender: str, kind: str, two_hop: frozenset[str]) -> None:
        links = {LINK_SYM: sorted(two_hop)}
        if kind != "asym":
            links.setdefault(LINK_MPR if kind == "mpr" else LINK_SYM, []).append(ME)
        body = encode_hello_body(HelloBody(links=links))
        self.receive(OLSR_HELLO, sender, sender, body, Olsr.NEIGHB_HOLD_TIME)
        mprs = fresh_mprs(self.daemon)
        assert self.daemon._mpr_set == mprs
        if mprs != self.mprs:
            self.mprs = mprs
            self.mpr_changes += 1

    def tc(self, origin: str, delta: int, selectors: frozenset[str] | None, vtime: float) -> None:
        ansn = (self.ansn.get(origin, 0) + delta) & 0xFFFF
        self.ansn[origin] = ansn
        if selectors is None:
            selectors = self.selectors.get(origin, frozenset())
        self.selectors[origin] = selectors
        body = encode_tc_body(TcBody(ansn=ansn, neighbors=sorted(selectors)))
        self.receive(OLSR_TC, origin, NEIGHBORS[0], body, vtime)

    def fail(self, neighbor: str, data: bool) -> None:
        port = 9000 if data else Olsr.port
        # A fresh lost packet, with its own uid from the run as a node gives it.
        packet = Packet(ME, FAR[0], Datagram(port, port, b"x"), uid=next(self.sim.packet_uids))
        self.daemon._on_link_failure(neighbor, packet)
        if data:  # the daemon retries the packet with _dirty set
            self.dirty_calls += 1
            assert table_routes(self.daemon) == fresh_routes(self.daemon)

    def look_up(self, how: str, destination: str) -> None:
        dirty, before = self.daemon._dirty, table_routes(self.daemon)
        if how == "dispatch":
            self.daemon.dispatch(Packet(ME, destination, Datagram(9000, 9000, b"x")))
        else:
            self.daemon.route_to(destination)
        if dirty:
            self.dirty_calls += 1
            assert table_routes(self.daemon) == fresh_routes(self.daemon)
        else:
            assert table_routes(self.daemon) == before

    def run(self, action: tuple) -> None:
        kind, *args = action
        if kind == "step":
            self.sim.run(self.sim.now + args[0])
        elif kind in ("dispatch", "route_to"):
            self.look_up(kind, *args)
        else:
            getattr(self, kind)(*args)
        recomputes = self.tracer.select(kind="olsr.route_recompute")
        assert len(recomputes) == self.dirty_calls
        if recomputes:
            assert recomputes[-1].detail["routes"] == len(self.daemon.table)
        assert len(self.tracer.select(kind="olsr.mpr_change")) == self.mpr_changes


class TestRouteTableReuse:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(scripts())
    @example(TC_CHANGES_THEN_SHRINKS)
    @example(ASYM_NEIGHBOURS)
    @example(MPR_INPUTS)
    def test_table_matches_fresh_bfs_after_every_lookup(self, script):
        driver = _Driver()
        for action in script:
            driver.run(action)
