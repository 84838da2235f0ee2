"""Property-based invariants: simulator ordering, the medium's jitter draw,
jitter buffer, E-model, route table, SLP predicates, tunnel codec."""

import random

from hypothesis import given, settings, strategies as st

from repro.core import decode_inner_packet, encode_inner_packet
from repro.netsim import Datagram, Packet, Simulator
from repro.routing import Route, RouteTable
from repro.rtp import G711, JitterBuffer, mos_from_r, r_factor
from repro.slp import evaluate_predicate, format_attributes, parse_attributes

ips = st.integers(min_value=0, max_value=0xFFFFFFFF).map(
    lambda v: ".".join(str((v >> shift) & 0xFF) for shift in (24, 16, 8, 0))
)


class TestSimulatorOrdering:
    @settings(max_examples=50)
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), max_size=40))
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator(seed=0)
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append(sim.now))
        sim.run(101.0)
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=1, max_value=30))
    def test_same_seed_same_schedule(self, seed, count):
        def run(seed):
            sim = Simulator(seed=seed)
            values = []
            for _ in range(count):
                sim.schedule(sim.rng.random(), lambda: values.append(sim.now))
            sim.run(2.0)
            return values

        assert run(seed) == run(seed)


class TestMediumJitterDraw:
    @settings(max_examples=200, derandomize=True)
    @given(
        st.integers(min_value=0, max_value=2**64),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False),
    )
    def test_scaled_random_is_uniform_bit_for_bit(self, seed, jitter):
        """The medium draws delivery jitter as ``jitter * rng.random()``.
        Same-seed digests rest on that being ``uniform(0, jitter)`` exactly,
        value for value, across a run of draws."""
        uniform, scaled = random.Random(seed), random.Random(seed)
        for _ in range(5):
            expected = uniform.uniform(0, jitter)
            got = jitter * scaled.random()
            assert got.hex() == expected.hex()


class TestJitterBufferInvariants:
    @settings(max_examples=60)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=300),  # sequence
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False),  # arrival
            ),
            max_size=80,
        )
    )
    def test_accounting_always_balances(self, arrivals):
        buffer = JitterBuffer(frame_interval=0.02, playout_delay=0.06)
        for sequence, arrival in sorted(arrivals, key=lambda pair: pair[1]):
            buffer.on_packet(sequence, arrival)
        stats = buffer.stats
        assert stats.played + stats.late_dropped + stats.duplicates == stats.received
        assert 0.0 <= stats.late_ratio <= 1.0


class TestEModelInvariants:
    @settings(max_examples=60)
    @given(
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_r_and_mos_bounded(self, delay, loss):
        r = r_factor(G711, delay, loss)
        assert 0.0 <= r <= 100.0
        assert 1.0 <= mos_from_r(r) <= 4.5

    @settings(max_examples=40)
    @given(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
    )
    def test_more_loss_never_helps(self, loss_a, loss_b, delay):
        low, high = sorted((loss_a, loss_b))
        assert r_factor(G711, delay, high) <= r_factor(G711, delay, low)


class TestRouteTableInvariants:
    @settings(max_examples=50)
    @given(
        st.lists(
            st.tuples(ips, ips, st.integers(min_value=1, max_value=30),
                      st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
            max_size=30,
        ),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    )
    def test_lookup_only_returns_usable(self, entries, now):
        table = RouteTable()
        for dest, hop, hops, expiry in entries:
            table.upsert(Route(dest, hop, hop_count=hops, expires_at=expiry))
        for dest, *_ in entries:
            route = table.lookup(dest, now)
            if route is not None:
                assert route.valid and route.expires_at > now

    @settings(max_examples=50)
    @given(st.lists(st.tuples(ips, ips), max_size=30))
    def test_one_entry_per_destination(self, pairs):
        table = RouteTable()
        for dest, hop in pairs:
            table.upsert(Route(dest, hop, hop_count=1))
        assert len(table) == len({dest for dest, _ in pairs})


_attr_keys = st.text("abcdefghij", min_size=1, max_size=6)
_attr_values = st.text("abcdefghij0123456789:@.-", min_size=1, max_size=12)


class TestSlpPredicateInvariants:
    @settings(max_examples=60)
    @given(st.dictionaries(_attr_keys, _attr_values, max_size=5))
    def test_attribute_round_trip(self, attrs):
        assert parse_attributes(format_attributes(attrs)) == attrs

    @settings(max_examples=60)
    @given(st.dictionaries(_attr_keys, _attr_values, min_size=1, max_size=5))
    def test_every_attribute_matches_itself(self, attrs):
        for key, value in attrs.items():
            assert evaluate_predicate(f"({key}={value})", attrs)
            assert evaluate_predicate(f"({key}={value[:1]}*)", attrs)

    @given(st.text(max_size=30), st.dictionaries(_attr_keys, _attr_values, max_size=3))
    def test_evaluator_never_crashes(self, predicate, attrs):
        evaluate_predicate(predicate, attrs)


class TestTunnelCodecInvariants:
    @settings(max_examples=60)
    @given(
        ips, ips,
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=0xFFFF),
        st.integers(min_value=0, max_value=0xFFFF),
        st.binary(max_size=200),
    )
    def test_round_trip(self, src, dst, ttl, sport, dport, data):
        packet = Packet(src, dst, Datagram(sport, dport, data), ttl=ttl)
        decoded = decode_inner_packet(encode_inner_packet(packet))
        assert (decoded.src, decoded.dst, decoded.ttl) == (src, dst, ttl)
        assert (decoded.sport, decoded.dport, decoded.data) == (sport, dport, data)
