"""Behavioural tests for the SIPHoc proxy (registration, routing, WAN leg)."""

import pytest

from repro.core import SipAccount, SiphocStack
from repro.netsim import (
    InternetCloud,
    Node,
    Simulator,
    Stats,
    WirelessMedium,
    manet_ip,
    place_chain,
)
from repro.sip import CallState
from repro.slp.service import SERVICE_SIP_CONTACT


def build_manet(n=3, seed=51, gateway=False, providers=(), strict_providers=()):
    sim = Simulator(seed=seed)
    stats = Stats()
    medium = WirelessMedium(sim, stats=stats, tx_range=150.0)
    cloud = None
    provider_objs = {}
    if gateway or providers or strict_providers:
        cloud = InternetCloud(sim, stats=stats)
        from repro.core import SipProvider

        for domain in providers:
            provider_objs[domain] = SipProvider(cloud, domain)
        for domain in strict_providers:
            provider_objs[domain] = SipProvider(cloud, domain, requires_outbound_proxy=True)
    nodes = []
    for index in range(n):
        node = Node(sim, index, manet_ip(index), stats=stats)
        node.join_medium(medium)
        nodes.append(node)
    place_chain(nodes, 100.0)
    if gateway:
        cloud.attach(nodes[-1])
    stacks = [SiphocStack(node, routing="aodv", cloud=cloud).start() for node in nodes]
    return sim, stats, cloud, nodes, stacks, provider_objs


class TestRegistration:
    def test_register_advertises_contact_via_slp(self):
        sim, stats, cloud, nodes, stacks, _ = build_manet()
        phone = stacks[0].add_phone(username="alice")
        sim.run(2.0)
        assert phone.registered
        local = stacks[0].manet_slp.local_services()
        assert any(
            entry.attributes.get("user") == "sip:alice@voicehoc.ch" for entry in local
        )
        # The advertised endpoint is the proxy, not the softphone.
        entry = local[0]
        assert entry.url.port == stacks[0].proxy.port

    def test_unregister_withdraws_advert(self):
        sim, stats, cloud, nodes, stacks, _ = build_manet()
        phone = stacks[0].add_phone(username="alice")
        sim.run(2.0)
        phone.ua.unregister()
        sim.run(4.0)
        assert not any(
            e.url.service_type == SERVICE_SIP_CONTACT
            for e in stacks[0].manet_slp.local_services()
        )

    @pytest.mark.parametrize("expires", [-1, "soon"])
    def test_malformed_expires_rejected_and_binding_kept(self, expires):
        sim, stats, cloud, nodes, stacks, _ = build_manet()
        alice = stacks[0].add_phone(username="alice")
        bob = stacks[2].add_phone(username="bob")
        sim.run(2.0)
        statuses = []
        alice.ua.register(expires=expires, on_result=lambda ok, r: statuses.append(r.status))
        sim.run(3.0)
        assert statuses == [400]
        states = []
        bob.place_call("sip:alice@voicehoc.ch", duration=2.0,
                       on_state=lambda c: states.append(c.state))
        sim.run(15.0)
        assert CallState.ESTABLISHED in states

    def test_two_phones_one_node(self):
        sim, stats, cloud, nodes, stacks, _ = build_manet()
        alice = stacks[0].add_phone(username="alice")
        carol = stacks[0].add_phone(username="carol")
        sim.run(2.0)
        assert alice.registered and carol.registered
        states = []
        alice.place_call("sip:carol@voicehoc.ch", duration=2.0,
                         on_state=lambda c: states.append(c.state))
        sim.run(12.0)
        assert CallState.ESTABLISHED in states


class TestCallRouting:
    def test_manet_call_via_slp(self):
        sim, stats, cloud, nodes, stacks, _ = build_manet()
        alice = stacks[0].add_phone(username="alice")
        bob = stacks[2].add_phone(username="bob")
        sim.run(2.0)
        record = None
        alice.place_call("sip:bob@voicehoc.ch", duration=3.0)
        sim.run(20.0)
        record = alice.history[0]
        assert record.established
        assert record.final_state == "terminated"
        assert stats.count("siphoc.routed_in_manet") >= 1

    def test_unknown_user_gets_404(self):
        sim, stats, cloud, nodes, stacks, _ = build_manet()
        alice = stacks[0].add_phone(username="alice")
        sim.run(2.0)
        alice.place_call("sip:ghost@voicehoc.ch")
        sim.run(20.0)
        record = alice.history[0]
        assert record.final_state == "failed"
        assert record.failure_status == 404

    def test_busy_callee_propagates_486(self):
        from repro.core import AnswerMode

        sim, stats, cloud, nodes, stacks, _ = build_manet()
        alice = stacks[0].add_phone(username="alice")
        bob = stacks[2].add_phone(username="bob", answer_mode=AnswerMode.REJECT)
        sim.run(2.0)
        alice.place_call("sip:bob@voicehoc.ch")
        sim.run(20.0)
        assert alice.history[0].failure_status == 486


class TestInternetIntegration:
    def test_upstream_registration_through_gateway(self):
        sim, stats, cloud, nodes, stacks, providers = build_manet(
            gateway=True, providers=("siphoc.ch",)
        )
        alice = stacks[0].add_phone(account=SipAccount(username="alice", domain="siphoc.ch"))
        sim.run(20.0)
        assert stacks[0].internet_available
        assert stacks[0].proxy.upstream_registrations.get("sip:alice@siphoc.ch") is True
        provider = providers["siphoc.ch"]
        contacts = provider.location.lookup("sip:alice@siphoc.ch", sim.now)
        assert contacts
        # The provider-side binding points at the proxy's tunnel endpoint.
        assert contacts[0].host == stacks[0].connection.tunnel_ip

    def test_call_to_internet_user(self):
        sim, stats, cloud, nodes, stacks, providers = build_manet(
            gateway=True, providers=("siphoc.ch",)
        )
        carol = providers["siphoc.ch"].create_user("carol")
        carol.on_invite = lambda call: (call.ring(), sim.schedule(0.2, call.answer))
        alice = stacks[0].add_phone(account=SipAccount(username="alice", domain="siphoc.ch"))
        sim.run(20.0)
        alice.place_call("sip:carol@siphoc.ch", duration=3.0)
        sim.run(50.0)
        record = alice.history[0]
        assert record.established and record.final_state == "terminated"
        assert stats.count("siphoc.routed_to_internet") >= 1

    def test_call_from_internet_user(self):
        sim, stats, cloud, nodes, stacks, providers = build_manet(
            gateway=True, providers=("siphoc.ch",)
        )
        carol = providers["siphoc.ch"].create_user("carol")
        alice = stacks[0].add_phone(account=SipAccount(username="alice", domain="siphoc.ch"))
        sim.run(20.0)
        states = []
        call = carol.call("sip:alice@siphoc.ch", on_state=lambda c: states.append(c.state))
        sim.run(40.0)
        assert CallState.ESTABLISHED in states
        call.hangup()
        sim.run(45.0)
        assert states[-1] == CallState.TERMINATED

    def test_manet_resolution_preferred_over_internet(self):
        """A user reachable in the MANET is called directly, not via gateway."""
        sim, stats, cloud, nodes, stacks, providers = build_manet(
            gateway=True, providers=("siphoc.ch",)
        )
        alice = stacks[0].add_phone(account=SipAccount(username="alice", domain="siphoc.ch"))
        bob = stacks[1].add_phone(account=SipAccount(username="bob", domain="siphoc.ch"))
        sim.run(20.0)
        alice.place_call("sip:bob@siphoc.ch", duration=2.0)
        sim.run(40.0)
        assert alice.history[0].established
        assert stats.count("siphoc.routed_in_manet") >= 1
        assert stats.count("siphoc.routed_to_internet") == 0


class TestPolyphoneCase:
    def test_strict_provider_rejects_default_path(self):
        sim, stats, cloud, nodes, stacks, providers = build_manet(
            gateway=True, strict_providers=("polyphone.ethz.ch",)
        )
        dave = providers["polyphone.ethz.ch"].create_user("dave")
        alice = stacks[0].add_phone(
            account=SipAccount(username="alice", domain="polyphone.ethz.ch")
        )
        sim.run(20.0)
        assert (
            stacks[0].proxy.upstream_registrations.get("sip:alice@polyphone.ethz.ch")
            is False
        )
        alice.place_call("sip:dave@polyphone.ethz.ch")
        sim.run(40.0)
        assert alice.history[0].failure_status == 403

    def test_future_work_fix_with_configured_sbc(self):
        sim, stats, cloud, nodes, stacks, providers = build_manet(
            gateway=True, strict_providers=("polyphone.ethz.ch",)
        )
        dave = providers["polyphone.ethz.ch"].create_user("dave")
        dave.on_invite = lambda call: (call.ring(), sim.schedule(0.2, call.answer))
        account = SipAccount(
            username="alice",
            domain="polyphone.ethz.ch",
            provider_outbound_proxy="sbc.polyphone.ethz.ch",
        )
        alice = stacks[0].add_phone(account=account)
        sim.run(20.0)
        assert (
            stacks[0].proxy.upstream_registrations.get("sip:alice@polyphone.ethz.ch")
            is True
        )
        alice.place_call("sip:dave@polyphone.ethz.ch", duration=2.0)
        sim.run(50.0)
        assert alice.history[0].established
