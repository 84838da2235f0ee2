"""A HoldTable answers like a dict of exact expiries, and stays one hold long.

Random scripts add keys (new ones, held ones, which refreshes them, and
expired ones), look keys up and step the clock, sometimes exactly onto an
expiry. After every step each lookup must agree with a reference dict that
stores ``now + hold`` per key and never forgets. After every add the
table's entries must span less than one hold time, apart from the slack
that refreshes leave: a refreshed key keeps its place in the queue, so the
keys behind it may outlive their hold by at most what the refresh added.
"""

from hypothesis import given, settings, strategies as st

from repro.netsim import HoldTable

HOLD = 3.0
KEYS = st.integers(min_value=0, max_value=5)
script = st.lists(
    st.one_of(
        st.tuples(st.just("add"), KEYS),
        st.tuples(st.just("holds"), KEYS),
        st.tuples(st.just("step"), st.sampled_from((0.0, 0.5, 1.0, HOLD, 4.0, 10.0))),
    ),
    min_size=5,
    max_size=60,
)


class TestHoldTableMatchesExactExpiry:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(script)
    def test_answers_and_span(self, steps):
        table = HoldTable(HOLD)
        reference: dict[int, float] = {}
        entered: dict[int, float] = {}  # expiry each stored key entered with
        now = 0.0
        for op, arg in steps:
            if op == "step":
                now += arg
            elif op == "add":
                if arg not in table._expiry:
                    entered[arg] = now + HOLD
                table.add(arg, now)
                reference[arg] = now + HOLD
                stored = table._expiry
                slack = max(stored[key] - entered[key] for key in stored)
                assert max(stored.values()) - min(stored.values()) < HOLD + slack
                if slack == 0.0:
                    assert min(stored.values()) > now
            for key in range(6):
                assert table.holds(key, now) == (reference.get(key, 0.0) > now)

    def test_a_key_held_until_exactly_its_hold(self):
        table = HoldTable(HOLD)
        table.add("k", 1.0)
        assert table.holds("k", 1.0 + HOLD - 0.5)
        assert not table.holds("k", 1.0 + HOLD)

    def test_expired_keys_leave_from_the_front(self):
        table = HoldTable(HOLD)
        for step in range(10):
            table.add(step, float(step))
        assert len(table) == HOLD
        assert sorted(table._expiry) == [7, 8, 9]
