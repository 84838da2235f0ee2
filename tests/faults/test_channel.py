"""Unit tests for the pluggable channel fault models."""

import random

import pytest

from repro.faults import GilbertElliottChannel, TimedGilbertElliottChannel


class FakeClock:
    """Stands in for the simulator: the channel only reads ``now``."""

    def __init__(self, now=0.0):
        self.now = now


def drop_sequence(channel, n=200, seed=99, link=("a", "b")):
    rng = random.Random(seed)
    return [channel.should_drop(link[0], link[1], rng) for _ in range(n)]


class TestGilbertElliott:
    def test_same_seed_same_drop_sequence(self):
        first = drop_sequence(GilbertElliottChannel(p_gb=0.2, p_bg=0.3))
        second = drop_sequence(GilbertElliottChannel(p_gb=0.2, p_bg=0.3))
        assert first == second
        assert any(first) and not all(first)

    def test_losses_are_burstier_than_uniform(self):
        """With loss_bad=1/loss_good=0, drops come in runs, not i.i.d."""
        drops = drop_sequence(
            GilbertElliottChannel(p_gb=0.1, p_bg=0.3), n=2000
        )
        loss_rate = sum(drops) / len(drops)
        rng = random.Random(7)
        uniform = [rng.random() < loss_rate for _ in range(2000)]

        def mean_run(seq):
            runs, current = [], 0
            for dropped in seq:
                if dropped:
                    current += 1
                elif current:
                    runs.append(current)
                    current = 0
            if current:
                runs.append(current)
            return sum(runs) / max(1, len(runs))

        assert mean_run(drops) > 1.5 * mean_run(uniform)

    def test_per_link_state_is_independent(self):
        channel = GilbertElliottChannel(p_gb=1.0, p_bg=0.0)  # bad after 1 tx
        rng = random.Random(3)
        channel.should_drop("a", "b", rng)
        assert channel.link_state("a", "b") == "bad"
        assert channel.link_state("b", "a") == "good"
        assert channel.link_state("a", "c") == "good"

    def test_good_state_with_zero_loss_is_clean(self):
        channel = GilbertElliottChannel(p_gb=0.0, p_bg=1.0, loss_good=0.0)
        assert not any(drop_sequence(channel))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            GilbertElliottChannel(p_gb=1.2)
        with pytest.raises(ValueError):
            GilbertElliottChannel(loss_bad=-0.5)


class TestStationaryLoss:
    def test_time_domain_formula(self):
        channel = TimedGilbertElliottChannel(mean_good=3.0, mean_bad=1.0)
        assert channel.stationary_loss == pytest.approx(0.25)


class TestTimedGilbertElliott:
    def test_requires_a_bound_clock(self):
        channel = TimedGilbertElliottChannel()
        with pytest.raises(RuntimeError, match="bind_clock"):
            channel.should_drop("a", "b", random.Random(1))

    def test_fresh_link_starts_good(self):
        channel = TimedGilbertElliottChannel(mean_good=1e9, mean_bad=0.05)
        channel.bind_clock(FakeClock(0.0))
        assert not channel.should_drop("a", "b", random.Random(1))
        assert channel.link_state("a", "b") == "good"

    def test_sojourn_expiry_flips_the_state(self):
        channel = TimedGilbertElliottChannel(mean_good=0.5, mean_bad=1e9)
        clock = FakeClock(0.0)
        channel.bind_clock(clock)
        rng = random.Random(2)
        assert not channel.should_drop("a", "b", rng)
        clock.now = 1e6  # far past any plausible good sojourn
        assert channel.should_drop("a", "b", rng)
        assert channel.link_state("a", "b") == "bad"

    def test_state_is_a_time_process_not_an_attempt_process(self):
        """Many attempts inside one sojourn see one state — the property the
        attempt-domain chain lacks."""
        channel = TimedGilbertElliottChannel(mean_good=1e9, mean_bad=0.05)
        channel.bind_clock(FakeClock(1.0))
        rng = random.Random(3)
        drops = [channel.should_drop("a", "b", rng) for _ in range(50)]
        assert not any(drops)

    def test_fades_both_start_and_end(self):
        channel = TimedGilbertElliottChannel(mean_good=0.05, mean_bad=0.05)
        clock = FakeClock(0.0)
        channel.bind_clock(clock)
        rng = random.Random(4)
        drops = []
        for step in range(400):
            clock.now = step * 0.01
            drops.append(channel.should_drop("a", "b", rng))
        assert any(drops) and not all(drops)

    def test_per_link_state_is_independent(self):
        channel = TimedGilbertElliottChannel(mean_good=0.5, mean_bad=1e9)
        clock = FakeClock(0.0)
        channel.bind_clock(clock)
        rng = random.Random(2)
        channel.should_drop("a", "b", rng)
        clock.now = 1e6
        channel.should_drop("a", "b", rng)
        assert channel.link_state("a", "b") == "bad"
        assert channel.link_state("b", "a") == "good"

    def test_same_seed_same_drop_sequence(self):
        def sequence():
            channel = TimedGilbertElliottChannel(mean_good=0.1, mean_bad=0.05)
            clock = FakeClock(0.0)
            channel.bind_clock(clock)
            rng = random.Random(9)
            out = []
            for step in range(200):
                clock.now = step * 0.02
                out.append(channel.should_drop("a", "b", rng))
            return out

        first = sequence()
        assert first == sequence()
        assert any(first) and not all(first)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TimedGilbertElliottChannel(mean_good=0.0)
        with pytest.raises(ValueError):
            TimedGilbertElliottChannel(mean_bad=-1.0)
        with pytest.raises(ValueError):
            TimedGilbertElliottChannel(loss_bad=1.5)
