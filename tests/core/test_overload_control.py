"""Overload-control unit tests (§5f): admission 503s, seeded retry jitter,
and SLP re-advertisement, which nothing rate limits."""

import pytest

from repro.core import ManetSlp, make_handler
from repro.core.connection import backoff_with_jitter, node_backoff_rng
from repro.netsim import (
    Node,
    Simulator,
    Stats,
    WirelessMedium,
    manet_ip,
)
from repro.routing import Aodv
from repro.sip import AdmissionControl, CallState, ProxyCore, UserAgent
from repro.slp.service import SERVICE_SIP_CONTACT
from tests.conftest import make_chain


# ---------------------------------------------------------------------------
# Proxy admission control
# ---------------------------------------------------------------------------


@pytest.fixture
def triangle(sim, medium):
    """alice -- proxy -- bob, all in radio range with static routes."""
    nodes = make_chain(sim, medium, 3, spacing=50.0, static_routes=True)
    a, p, b = nodes
    alice = UserAgent(a, "sip:alice@voicehoc.ch", port=5070, outbound_proxy=(p.ip, 5060))
    bob = UserAgent(b, "sip:bob@voicehoc.ch", port=5070)
    proxy = ProxyCore(p, port=5060)
    proxy.route_fn = lambda ctx: ctx.forward((b.ip, 5070))
    return a, p, b, alice, bob, proxy


def advance(sim, dt):
    sim.run(sim.now + dt)


def ring_only(call):
    call.ring()  # never answers: the INVITE stays inflight at the proxy


def auto_answer(sim):
    def handler(call):
        call.ring()
        sim.schedule(0.2, call.answer)

    return handler


class TestAdmissionControl:
    def test_watermark_sheds_with_503_and_retry_after(self, sim, triangle):
        a, p, b, alice, bob, proxy = triangle
        proxy.admission = AdmissionControl(max_inflight=1)
        bob.on_invite = ring_only
        alice.call("sip:bob@voicehoc.ch")
        advance(sim, 1.0)
        assert proxy.inflight_forwards == 1
        second = alice.call("sip:bob@voicehoc.ch")
        advance(sim, 2.0)
        assert second.state is CallState.FAILED
        assert second.failure_status == 503
        assert second.retry_after == AdmissionControl.RETRY_AFTER == 5
        assert p.stats.count("sip.admission_rejected") == 1
        # Rejections themselves must not inflate the pressure gauge.
        assert proxy.inflight_forwards == 1

    def test_gauge_settles_on_final_response(self, sim, triangle):
        a, p, b, alice, bob, proxy = triangle
        proxy.admission = AdmissionControl(max_inflight=1)
        bob.on_invite = auto_answer(sim)
        first = alice.call("sip:bob@voicehoc.ch")
        advance(sim, 3.0)
        assert first.state is CallState.ESTABLISHED
        assert proxy.inflight_forwards == 0
        second = alice.call("sip:bob@voicehoc.ch")
        advance(sim, 3.0)
        assert second.state is CallState.ESTABLISHED
        assert p.stats.count("sip.admission_rejected") == 0

    def test_established_dialogs_survive_the_watermark(self, sim, triangle):
        a, p, b, alice, bob, proxy = triangle
        proxy.admission = AdmissionControl(max_inflight=1)
        bob.on_invite = auto_answer(sim)
        first = alice.call("sip:bob@voicehoc.ch")
        advance(sim, 3.0)
        assert first.state is CallState.ESTABLISHED
        bob.on_invite = ring_only
        alice.call("sip:bob@voicehoc.ch")  # holds the gauge at the watermark
        advance(sim, 1.0)
        assert proxy.inflight_forwards == 1
        # In-dialog traffic (the BYE) passes while new INVITEs would shed.
        first.hangup()
        advance(sim, 3.0)
        assert first.state is CallState.TERMINATED

    def test_queue_depth_watermark_rejects(self, sim, triangle):
        a, p, b, alice, bob, proxy = triangle
        p.configure_tx_queue(4)
        # Occupancy fraction 0.0 means "shed whenever a TX queue exists":
        # the empty queue (depth 0 >= 0.0 * 4) already trips the watermark.
        proxy.admission = AdmissionControl(queue_watermark=0.0)
        bob.on_invite = auto_answer(sim)
        call = alice.call("sip:bob@voicehoc.ch")
        advance(sim, 2.0)
        assert call.failure_status == 503

    def test_queue_watermark_ignored_without_a_queue(self, sim, triangle):
        a, p, b, alice, bob, proxy = triangle
        assert p.tx_queue is None
        proxy.admission = AdmissionControl(queue_watermark=0.0)
        bob.on_invite = auto_answer(sim)
        call = alice.call("sip:bob@voicehoc.ch")
        advance(sim, 3.0)
        assert call.state is CallState.ESTABLISHED


# ---------------------------------------------------------------------------
# Seeded retry backoff jitter
# ---------------------------------------------------------------------------


class _ZeroRng:
    def random(self):
        return 0.0


class _MaxRng:
    def random(self):
        return 1.0


class TestBackoffJitter:
    def test_same_node_reproducible(self, sim, medium):
        (a,) = make_chain(sim, medium, 1)
        first = [node_backoff_rng(a).random() for _ in range(3)]
        second = [node_backoff_rng(a).random() for _ in range(3)]
        assert first == second == [node_backoff_rng(a).random() for _ in range(3)]

    def test_same_seed_stable_across_simulations(self):
        draws = []
        for _ in range(2):
            node = Node(Simulator(seed=9), 3, manet_ip(3))
            rng = node_backoff_rng(node)
            draws.append([rng.random() for _ in range(4)])
        assert draws[0] == draws[1]

    def test_different_nodes_desynchronize(self, sim, medium):
        a, b = make_chain(sim, medium, 2)
        assert node_backoff_rng(a).random() != node_backoff_rng(b).random()

    def test_salt_separates_streams(self, sim, medium):
        (a,) = make_chain(sim, medium, 1)
        assert node_backoff_rng(a, salt=0).random() != node_backoff_rng(a, salt=1).random()

    def test_exponential_shape_without_jitter(self):
        rng = _ZeroRng()
        assert backoff_with_jitter(2.0, 1, 60.0, rng) == 2.0
        assert backoff_with_jitter(2.0, 2, 60.0, rng) == 4.0
        assert backoff_with_jitter(2.0, 3, 60.0, rng) == 8.0

    def test_cap_applies_before_jitter(self):
        assert backoff_with_jitter(2.0, 10, 60.0, _ZeroRng()) == 60.0
        assert backoff_with_jitter(2.0, 10, 60.0, _MaxRng()) == 60.0 * 1.5

    def test_jitter_stretches_at_most_half(self, sim, medium):
        (a,) = make_chain(sim, medium, 1)
        rng = node_backoff_rng(a)
        for failures in range(1, 8):
            delay = backoff_with_jitter(1.0, failures, 30.0, rng)
            bare = min(1.0 * 2 ** (failures - 1), 30.0)
            assert bare <= delay <= bare * 1.5


# ---------------------------------------------------------------------------
# SLP re-advertisement: no rate limit
# ---------------------------------------------------------------------------


def build_slp(seed=21):
    sim = Simulator(seed=seed)
    stats = Stats()
    medium = WirelessMedium(sim, stats=stats, tx_range=150.0)
    node = Node(sim, 0, manet_ip(0), stats=stats)
    node.join_medium(medium)
    daemon = Aodv(node)
    daemon.start()
    slp = ManetSlp(node, make_handler(daemon)).start()
    advertised = []
    handler_advertise = slp.handler.advertise

    def spy(entry):
        advertised.append(entry.attributes["user"])
        handler_advertise(entry)

    slp.handler.advertise = spy
    return sim, stats, node, slp, advertised


def sip_url(node):
    return f"service:siphoc-sip://{node.ip}:5060"


class TestReadvertiseRateLimit:
    """Every registration hands its advert to the routing plugin at once."""

    def test_first_registration_always_advertises(self):
        sim, stats, node, slp, advertised = build_slp()
        slp.register(sip_url(node), {"user": "sip:a@h"})
        assert advertised == ["sip:a@h"]
        assert slp.handler.pending_count() == 1

    def test_default_config_never_suppresses(self):
        sim, stats, node, slp, advertised = build_slp()
        slp.register(sip_url(node), {"user": "sip:a@h"})
        slp.register(sip_url(node), {"user": "sip:b@h"})
        assert advertised == ["sip:a@h", "sip:b@h"]
        # The re-registration replaced the queued advert and the local entry.
        assert slp.handler.pending_count() == 1
        hits = slp.lookup_cached(SERVICE_SIP_CONTACT, "(user=sip:b@h)")
        assert len(hits) == 1
