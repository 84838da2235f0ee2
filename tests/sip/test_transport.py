"""SIP transport receive path: a malformed message is a counted drop."""

import pytest

from repro.netsim.packet import PORT_SIP
from repro.scenarios import ManetConfig, ManetScenario
from repro.sip import CallState


def _invite(caller_ip: str) -> list[str]:
    return [
        "INVITE sip:user2@voicehoc.ch SIP/2.0",
        f"Via: SIP/2.0/UDP {caller_ip}:5070;branch=z9hG4bK-bad",
        "From: <sip:user0@voicehoc.ch>;tag=bad",
        "To: <sip:user2@voicehoc.ch>",
        f"Call-ID: bad@{caller_ip}",
        "CSeq: 1 INVITE",
        "Max-Forwards: 70",
        f"Contact: <sip:user0@{caller_ip}:5070>",
        "Content-Length: 0",
    ]


@pytest.fixture
def chain():
    """A started 3-node AODV chain with phones on both ends."""
    scenario = ManetScenario(ManetConfig(n_nodes=3, topology="chain", routing="aodv", seed=1))
    scenario.add_phone(0, "user0")
    scenario.add_phone(2, "user2")
    scenario.start()
    scenario.converge(2.0)
    return scenario


class TestMalformedHeaders:
    @pytest.mark.parametrize(
        "bad",
        [
            "CSeq: nope",
            "CSeq: -5 INVITE",
            "Via: garbage",
            "Via: SIP/2.0/UDP 192.168.0.1:99999;branch=z9hG4bK-bad",
            "From: garbage",
            "To: nope",
            "Contact: nope",
        ],
    )
    def test_bad_typed_header_is_dropped_not_raised(self, chain, bad):
        caller, proxy = chain.nodes[0], chain.nodes[1]
        name = bad.split(":", 1)[0]
        lines = [bad if line.startswith(f"{name}:") else line for line in _invite(caller.ip)]
        wire = ("\r\n".join(lines) + "\r\n\r\n").encode()
        before = chain.stats.count("sip.parse_errors")
        caller.send_udp(proxy.ip, 5070, PORT_SIP, wire)
        chain.sim.run(chain.sim.now + 1.0)  # raised SipParseError before the fix
        assert chain.stats.count("sip.parse_errors") == before + 1
        # The proxy keeps serving well-formed traffic.
        call = chain.phones["user0"].place_call("sip:user2@voicehoc.ch", 0.5)
        chain.sim.run(chain.sim.now + 10.0)
        assert call.state in (CallState.ESTABLISHED, CallState.TERMINATED)

    def test_well_formed_invite_is_not_counted(self, chain):
        caller, proxy = chain.nodes[0], chain.nodes[1]
        wire = ("\r\n".join(_invite(caller.ip)) + "\r\n\r\n").encode()
        caller.send_udp(proxy.ip, 5070, PORT_SIP, wire)
        chain.sim.run(chain.sim.now + 1.0)
        assert chain.stats.count("sip.parse_errors") == 0
