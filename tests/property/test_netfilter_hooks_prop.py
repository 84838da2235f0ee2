"""The per-port hook index runs the hooks a full chain scan would.

Random ``register``/``unregister`` calls on both chains, with random port
sets and ACCEPT, DROP and ``with_data``-rewrite hooks, are mirrored in a
plain list. After each call, a packet to every port on both chains must
call the same hooks, in the same order, and come back as the same packet
(or ``None``) from :meth:`NetfilterHooks.run` as from :func:`scan`, which
walks the whole list and tests chain and port at each hook.
"""

from hypothesis import given, settings, strategies as st

from repro.netsim import Chain, Datagram, NetfilterHooks, Packet, Verdict

PORTS = (427, 654, 698, 5060)


def scan(registered, chain, packet):
    """Run ``packet`` through every registered hook of ``chain`` in order."""
    current = packet
    for hook_chain, ports, fn in registered:
        if hook_chain is not chain:
            continue
        if current.dport not in ports:
            continue
        verdict, current = fn(current)
        if verdict is Verdict.DROP:
            return None
    return current


def make_hook(label: int, kind: str, calls: list[int]):
    def hook(packet):
        calls.append(label)
        if kind == "drop":
            return (Verdict.DROP, packet)
        if kind == "rewrite":
            return (Verdict.ACCEPT, packet.with_data(packet.data + bytes([label])))
        return (Verdict.ACCEPT, packet)

    return hook


registrations = st.tuples(
    st.just("register"),
    st.sampled_from((Chain.INPUT, Chain.OUTPUT)),
    st.frozensets(st.sampled_from(PORTS), min_size=1, max_size=3),
    st.sampled_from(("accept", "drop", "rewrite")),
)
removals = st.tuples(st.just("unregister"), st.integers(min_value=0, max_value=7))
script = st.lists(
    st.one_of(registrations, registrations, removals), min_size=1, max_size=25
)


class TestPortIndex:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(script)
    def test_run_matches_chain_scan(self, actions):
        hooks = NetfilterHooks()
        registered: list[tuple] = []  # (chain, ports, fn), registration order
        handles: list = []
        calls: list[int] = []
        for label, (kind, *args) in enumerate(actions):
            if kind == "register":
                chain, ports, verdict = args
                fn = make_hook(label, verdict, calls)
                handles.append(hooks.register(chain, ports, fn, name=f"h{label}"))
                registered.append((chain, ports, fn))
            elif handles:
                index = args[0] % len(handles)
                hooks.unregister(handles.pop(index))
                registered.pop(index)
            for chain in (Chain.INPUT, Chain.OUTPUT):
                watched = hooks.input_ports if chain is Chain.INPUT else hooks.output_ports
                assert watched == {
                    port for hook_chain, ports, _ in registered if hook_chain is chain
                    for port in ports
                }
                for port in PORTS:
                    packet = Packet("10.0.0.1", "10.0.0.2", Datagram(port, port, b"p"))
                    calls.clear()
                    expected = scan(registered, chain, packet)
                    expected_calls = list(calls)
                    calls.clear()
                    got = hooks.run(chain, packet)
                    assert calls == expected_calls
                    assert got == expected
                    assert (got is packet) == (expected is packet)
