"""Spatial-index neighbor cache: parity with a linear scan, cache invalidation.

The grid index must return exactly what an O(N) scan over the members
returns — same neighbor sets, same (membership) ordering — under node
churn, mobility and reconfiguration, because delivery order drives RNG
draw order and therefore bit-for-bit determinism.
"""

from repro.netsim import (
    Node,
    Simulator,
    WirelessMedium,
    manet_ip,
)
from repro.netsim.mobility import RandomWaypointMobility, place_random


def build(seed=42, n=30, tx_range=150.0, area=600.0):
    sim = Simulator(seed=seed)
    medium = WirelessMedium(sim, tx_range=tx_range)
    nodes = []
    for i in range(n):
        node = Node(sim, i, manet_ip(i))
        node.join_medium(medium)
        nodes.append(node)
    place_random(nodes, sim, area, area)
    return medium, nodes


def assert_parity(medium, nodes):
    for n in nodes:
        indexed = [o.node_id for o in medium.neighbors(n)]
        scanned = [o.node_id for o in medium.nodes if o is not n and medium.in_range(n, o)]
        assert indexed == scanned, f"neighbor mismatch for node {n.node_id}"


class TestParity:
    def test_random_topology_parity(self):
        assert_parity(*build())

    def test_parity_after_add_node(self):
        medium, nodes = build(n=20)
        extra = Node(medium.sim, 99, manet_ip(99), position=(123.0, 45.0))
        extra.join_medium(medium)
        nodes.append(extra)
        assert_parity(medium, nodes)

    def test_parity_after_remove_node(self):
        medium, nodes = build(n=20)
        medium.remove_node(nodes.pop(7))
        medium.remove_node(nodes.pop(0))
        assert_parity(medium, nodes)

    def test_parity_under_mobility_steps(self):
        medium, nodes = build(n=25)
        RandomWaypointMobility(medium.sim, nodes, width=600.0, height=600.0, max_speed=20.0).start()
        for t in (1.0, 5.0, 20.0):
            medium.sim.run(t)
            assert_parity(medium, nodes)

    def test_parity_after_tx_range_change(self):
        medium, nodes = build()
        medium.tx_range = 80.0
        assert_parity(medium, nodes)

    def test_neighbors_cross_cell_boundaries(self, sim):
        # Nodes just inside range but in different grid cells must be found.
        medium = WirelessMedium(sim, tx_range=100.0)
        a = Node(sim, 0, manet_ip(0), position=(99.0, 0.0))
        b = Node(sim, 1, manet_ip(1), position=(101.0, 0.0))  # next cell over
        c = Node(sim, 2, manet_ip(2), position=(99.0, 199.0))  # out of range
        for node in (a, b, c):
            node.join_medium(medium)
        assert medium.neighbors(a) == [b]
        assert medium.neighbors(b) == [a]

    def test_negative_coordinates(self, sim):
        medium = WirelessMedium(sim, tx_range=100.0)
        a = Node(sim, 0, manet_ip(0), position=(-50.0, -50.0))
        b = Node(sim, 1, manet_ip(1), position=(10.0, 10.0))
        for node in (a, b):
            node.join_medium(medium)
        assert medium.neighbors(a) == [b]


class TestCacheInvalidation:
    def test_cache_reused_while_static(self, sim):
        medium = WirelessMedium(sim, tx_range=100.0)
        a = Node(sim, 0, manet_ip(0), position=(0.0, 0.0))
        b = Node(sim, 1, manet_ip(1), position=(50.0, 0.0))
        for node in (a, b):
            node.join_medium(medium)
        first = medium.neighbors(a)
        assert medium.neighbors(a) is first  # cached list, no recompute

    def test_position_write_invalidates(self, sim):
        medium = WirelessMedium(sim, tx_range=100.0)
        a = Node(sim, 0, manet_ip(0), position=(0.0, 0.0))
        b = Node(sim, 1, manet_ip(1), position=(50.0, 0.0))
        for node in (a, b):
            node.join_medium(medium)
        assert medium.neighbors(a) == [b]
        epoch = medium.position_epoch
        b.position = (500.0, 0.0)
        assert medium.position_epoch > epoch
        assert medium.neighbors(a) == []
        b.position = (60.0, 0.0)
        assert medium.neighbors(a) == [b]

    def test_in_cell_move_still_invalidates(self, sim):
        # Moving within the same grid cell changes distances and must not
        # serve a stale cached list.
        medium = WirelessMedium(sim, tx_range=100.0)
        a = Node(sim, 0, manet_ip(0), position=(0.0, 0.0))
        b = Node(sim, 1, manet_ip(1), position=(99.0, 0.0))
        for node in (a, b):
            node.join_medium(medium)
        assert medium.neighbors(a) == [b]
        # Stays in cell (0, 0) of the 100 m grid but leaves radio range
        # (diagonal distance ~ 139 m).
        b.position = (99.0, 99.0)
        assert medium.neighbors(a) == []

    def test_add_remove_invalidate(self, sim):
        medium = WirelessMedium(sim, tx_range=100.0)
        a = Node(sim, 0, manet_ip(0), position=(0.0, 0.0))
        a.join_medium(medium)
        assert medium.neighbors(a) == []
        b = Node(sim, 1, manet_ip(1), position=(50.0, 0.0))
        b.join_medium(medium)
        assert medium.neighbors(a) == [b]
        medium.remove_node(b)
        assert medium.neighbors(a) == []

    def test_non_member_query_not_cached(self, sim):
        medium = WirelessMedium(sim, tx_range=100.0)
        a = Node(sim, 0, manet_ip(0), position=(0.0, 0.0))
        a.join_medium(medium)
        ghost = Node(sim, 99, None, position=(10.0, 0.0))
        assert medium.neighbors(ghost) == [a]
        assert medium.neighbors(ghost) == [a]
