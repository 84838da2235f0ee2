"""The AODV daemon refreshes route entries in place, as if it replaced them.

One daemon receives random route updates, neighbour refreshes (plain, and
with the hello lifetime and sequence number), RERRs, link failures and
RREP-style precursor additions while its clock steps past route expiry.
After every step each entry's next hop, hop count, sequence number, expiry,
``valid`` flag and precursors must equal a reference table that builds a
new ``Route`` for every accepted update and carries the old precursors
over, and the daemon must have traced one ``aodv.route_update`` per such
update, with the same fields.
"""

from hypothesis import given, settings, strategies as st

from repro.netsim import Datagram, Node, Packet, Simulator
from repro.routing import Aodv, Rerr, Route
from repro.trace import TraceCollector

ME = "10.0.0.1"
NEIGHBORS = ("10.0.0.2", "10.0.0.3")
FAR = ("10.0.0.4", "10.0.0.5")
ADDRESSES = (ME, *NEIGHBORS, *FAR)
HELLO_LIFETIME = (1 + Aodv.ALLOWED_HELLO_LOSS) * Aodv.HELLO_INTERVAL

seq_nos = st.integers(min_value=0, max_value=4)
updates = st.tuples(
    st.just("update"),
    st.sampled_from(ADDRESSES),
    st.sampled_from(NEIGHBORS),
    st.integers(min_value=1, max_value=4),
    seq_nos,
    st.sampled_from((1.0, Aodv.ACTIVE_ROUTE_TIMEOUT, 12.0)),
)
neighbor_refreshes = st.tuples(
    st.just("neighbor"),
    st.sampled_from(NEIGHBORS),
    st.none() | st.just(HELLO_LIFETIME),
    st.none() | seq_nos,
)
rerrs = st.tuples(
    st.just("rerr"),
    st.sampled_from(NEIGHBORS),
    st.lists(st.tuples(st.sampled_from(ADDRESSES[1:]), seq_nos), max_size=3).map(tuple),
)
failures = st.tuples(st.just("fail"), st.sampled_from(NEIGHBORS))
precursors = st.tuples(
    st.just("precursor"), st.sampled_from(ADDRESSES[1:]), st.sampled_from(NEIGHBORS)
)
steps = st.tuples(st.just("step"), st.sampled_from((0.5, 2.0, 5.0, 13.0)))
script = st.lists(
    st.one_of(updates, neighbor_refreshes, rerrs, failures, precursors, steps),
    min_size=5,
    max_size=60,
)


class _ReferenceTable:
    """Route entries kept by replacing each entry on every accepted update."""

    def __init__(self) -> None:
        self.routes: dict[str, Route] = {}
        self.updates: list[tuple[str, str, int, int]] = []

    def update(self, now, dest, next_hop, hop_count, seq_no, lifetime) -> None:
        if dest == ME:
            return
        existing = self.routes.get(dest)
        if existing is not None and existing.is_usable(now):
            newer = seq_no > existing.seq_no
            same_but_shorter = seq_no == existing.seq_no and hop_count < existing.hop_count
            if not (newer or same_but_shorter or existing.seq_no == 0):
                existing.expires_at = max(existing.expires_at, now + lifetime)
                return
        kept = existing.precursors if existing is not None else set()
        self.updates.append((dest, next_hop, hop_count, seq_no))
        self.routes[dest] = Route(
            destination=dest,
            next_hop=next_hop,
            hop_count=hop_count,
            seq_no=seq_no,
            expires_at=now + lifetime,
            valid=True,
            precursors=kept,
        )

    def rerr(self, src_ip, unreachable) -> None:
        for dest, seq in unreachable:
            route = self.routes.get(dest)
            if route is None or not route.valid or route.next_hop != src_ip:
                continue
            route.valid = False
            route.seq_no = max(route.seq_no, seq)

    def fail(self, now, next_hop) -> None:
        for route in self.routes.values():
            if route.next_hop == next_hop and route.is_usable(now):
                route.valid = False
                route.seq_no += 1


def entries(routes) -> dict[str, tuple]:
    return {
        dest: (
            route.next_hop,
            route.hop_count,
            route.seq_no,
            route.expires_at,
            route.valid,
            frozenset(route.precursors),
        )
        for dest, route in routes.items()
    }


class _Driver:
    def __init__(self) -> None:
        self.sim = Simulator(seed=1)
        self.tracer = TraceCollector().attach(self.sim)
        self.daemon = Aodv(Node(self.sim, 0, ME)).start()
        self.reference = _ReferenceTable()

    def run(self, action: tuple) -> None:
        kind, *args = action
        daemon, reference, now = self.daemon, self.reference, self.sim.now
        if kind == "update":
            daemon._update_route(*args)
            reference.update(now, *args)
        elif kind == "neighbor":
            neighbor, lifetime, seq_no = args
            daemon._update_neighbor(neighbor, lifetime=lifetime, seq_no=seq_no)
            reference.update(
                now,
                neighbor,
                neighbor,
                1,
                seq_no if seq_no is not None else 0,
                lifetime if lifetime is not None else Aodv.ACTIVE_ROUTE_TIMEOUT,
            )
        elif kind == "rerr":
            src_ip, unreachable = args
            daemon._handle_rerr(Rerr(unreachable=unreachable), src_ip)
            reference.rerr(src_ip, unreachable)
        elif kind == "fail":
            # Lost control traffic: the daemon invalidates routes, no re-discovery.
            lost = Packet(ME, FAR[0], Datagram(Aodv.port, Aodv.port, b"x"))
            daemon._on_link_failure(args[0], lost)
            reference.fail(now, args[0])
        elif kind == "precursor":
            dest, hop = args
            route = daemon.table.get(dest)
            if route is not None:
                route.precursors.add(hop)
            if dest in reference.routes:
                reference.routes[dest].precursors.add(hop)
        else:
            self.sim.run(now + args[0])

    def check(self) -> None:
        table = self.daemon.table
        routes = {dest: table.get(dest) for dest in table.destinations()}
        assert entries(routes) == entries(self.reference.routes)
        events = self.tracer.select(kind="aodv.route_update")
        assert {event.node for event in events} <= {ME}
        traced = [
            tuple(event.detail[name] for name in ("dest", "next_hop", "hop_count", "seq_no"))
            for event in events
        ]
        assert traced == self.reference.updates


class TestInPlaceRouteRefresh:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(script)
    def test_matches_replacing_reference(self, actions):
        driver = _Driver()
        for action in actions:
            driver.run(action)
            driver.check()

    def test_refresh_keeps_the_entry_and_its_precursors(self):
        driver = _Driver()
        daemon = driver.daemon
        daemon._update_route(FAR[0], NEIGHBORS[0], 3, 2, 10.0)
        route = daemon.table.get(FAR[0])
        route.precursors.add(NEIGHBORS[1])
        daemon._update_route(FAR[0], NEIGHBORS[1], 2, 5, 10.0)
        assert daemon.table.get(FAR[0]) is route
        assert (route.next_hop, route.hop_count, route.seq_no) == (NEIGHBORS[1], 2, 5)
        assert route.precursors == {NEIGHBORS[1]}
