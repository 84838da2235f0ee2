"""Each run owns its identifier streams.

Every SIPHoc node mints its own Call-IDs, tags, Via branches, RTP ports and
SSRCs, and the simulator holds one stream of each per run, plus the packet
uids; a digest authenticator numbers its own nonces. So no identifier
depends on what ran before in the same process. The golden gates see only
call-ids, branches and packet uids, so these tests draw every stream through
the code that allocates it.
"""

from repro.netsim import Chain, Node, Simulator, Verdict, manet_ip
from repro.rtp.session import RtpSession
from repro.sip.auth import DigestAuthenticator
from repro.sip.dialog import new_call_id, new_tag
from repro.sip.transport import new_branch
from repro.sip.ua import _allocate_rtp_port

#: What a new simulator hands out first: packet uid, Call-ID, tag, branch,
#: RTP port and SSRC.
FIRST = (1, "cid00000001@host.invalid", "tag000001", "z9hG4bK-00000001", 16384, 0x1000)


def _sent_uid(node: Node) -> int:
    """The uid of one datagram ``node`` originates (dropped at OUTPUT)."""
    uids = []

    def capture(packet):
        uids.append(packet.uid)
        return Verdict.DROP, packet

    hook = node.hooks.register(Chain.OUTPUT, {9}, capture)
    node.send_udp(manet_ip(1), 9, 9, b"")
    node.hooks.unregister(hook)
    return uids[0]


def draw_identifiers(sim: Simulator) -> tuple:
    """One identifier from each of ``sim``'s six streams, through their users."""
    node = Node(sim, 0, manet_ip(0))
    session = RtpSession(node, 16384)
    session.close()
    return (
        _sent_uid(node),
        new_call_id(sim, "host.invalid"),
        new_tag(sim),
        new_branch(sim),
        _allocate_rtp_port(sim),
        session.ssrc,
    )


class TestProcessRegistry:
    def test_reset_all_restarts_identifier_streams(self):
        # Nothing to reset: each new simulator starts every stream afresh.
        assert draw_identifiers(Simulator(seed=1)) == FIRST
        assert draw_identifiers(Simulator(seed=1)) == FIRST
        nonces = [DigestAuthenticator("voicehoc.ch").challenge(0.0) for _ in range(2)]
        assert nonces[0] == nonces[1]
        assert 'nonce="n00000001"' in nonces[0]

    def test_runtime_counters_are_registered(self):
        # Drawing from one live simulator never advances another.
        busy, idle = Simulator(seed=1), Simulator(seed=1)
        assert draw_identifiers(busy) == FIRST
        second = draw_identifiers(busy)
        assert all(a != b for a, b in zip(second, FIRST))
        assert draw_identifiers(idle) == FIRST
        assert draw_identifiers(busy) not in (FIRST, second)
        issuer, bystander = DigestAuthenticator("voicehoc.ch"), DigestAuthenticator("voicehoc.ch")
        issued = issuer.challenge(0.0)
        assert issuer.challenge(0.0) != issued
        assert bystander.challenge(0.0) == issued
