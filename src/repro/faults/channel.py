"""Channel fault models pluggable into :class:`~repro.netsim.medium.WirelessMedium`.

Each model implements the :class:`~repro.netsim.medium.ChannelModel`
protocol: one ``should_drop(sender_ip, receiver_ip, rng)`` decision per
transmission attempt on a directed link. All randomness must come from the
``rng`` argument (the simulator's seeded RNG) — never from module-level
``random`` or a privately seeded generator — so a same-seed rerun replays
the exact loss sequence. ``repro.lint`` rule FAULT001 enforces this.

The MANET simulation literature is unanimous that uniform i.i.d. loss (the
medium's own ``loss_rate``) understates what ad hoc VoIP must survive: real
802.11 channels lose packets in *bursts* (fading, interference).
:class:`GilbertElliottChannel` is the standard two-state Markov burst model,
stepped per transmission attempt; :class:`TimedGilbertElliottChannel` draws
its good and bad sojourns in sim-seconds.
"""

from __future__ import annotations

import random


class GilbertElliottChannel:
    """Two-state Markov (Gilbert–Elliott) bursty-loss channel, per directed link.

    Each (sender, receiver) pair carries its own good/bad state. Before
    every transmission attempt the state transitions (good→bad with
    probability ``p_gb``, bad→good with ``p_bg``), then the attempt is lost
    with the state's loss probability (``loss_good`` / ``loss_bad``).

    Expected burst (bad-state sojourn) length is ``1 / p_bg`` attempts;
    stationary bad-state probability is ``p_gb / (p_gb + p_bg)``.
    """

    def __init__(
        self,
        p_gb: float = 0.05,
        p_bg: float = 0.25,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
    ) -> None:
        for name, value in (
            ("p_gb", p_gb), ("p_bg", p_bg),
            ("loss_good", loss_good), ("loss_bad", loss_bad),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        self.p_gb = p_gb
        self.p_bg = p_bg
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self._bad: dict[tuple[str, str], bool] = {}

    def link_state(self, sender_ip: str, receiver_ip: str) -> str:
        """Current state of a directed link: ``"good"`` or ``"bad"``."""
        return "bad" if self._bad.get((sender_ip, receiver_ip), False) else "good"

    def should_drop(self, sender_ip: str, receiver_ip: str, rng: random.Random) -> bool:
        link = (sender_ip, receiver_ip)
        bad = self._bad.get(link, False)
        if bad:
            if rng.random() < self.p_bg:
                bad = False
        elif rng.random() < self.p_gb:
            bad = True
        self._bad[link] = bad
        loss = self.loss_bad if bad else self.loss_good
        return loss > 0 and rng.random() < loss

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GilbertElliottChannel(p_gb={self.p_gb}, p_bg={self.p_bg}, "
            f"loss_good={self.loss_good}, loss_bad={self.loss_bad})"
        )


class TimedGilbertElliottChannel:
    """Gilbert–Elliott with sojourn times in sim-seconds, not attempts.

    :class:`GilbertElliottChannel` advances its Markov chain once per
    transmission *attempt*. That is the textbook formulation, but it has a
    pathological coupling with reactive routing: when a burst knocks out a
    link, traffic on it stops, so the chain stops transitioning and the
    link stays bad for as long as the outage suppresses attempts — a
    self-reinforcing black-out. Fading is a *time* process; this variant
    models it as one, drawing exponential good/bad sojourn durations
    (``mean_good`` / ``mean_bad`` seconds) per directed link, so a 50 ms
    fade is a 50 ms fade no matter how often anyone transmits during it.

    Needs a clock: the scenario calls :meth:`bind_clock` with the
    simulator when it installs the channel on the medium. All randomness
    still comes from the per-call ``rng`` (sojourns are drawn lazily, in
    deterministic event order), keeping same-seed runs byte-identical.
    """

    def __init__(
        self,
        mean_good: float = 2.0,
        mean_bad: float = 0.06,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
    ) -> None:
        if mean_good <= 0 or mean_bad <= 0:
            raise ValueError(
                f"mean sojourns must be positive, got {mean_good}/{mean_bad}"
            )
        for name, value in (("loss_good", loss_good), ("loss_bad", loss_bad)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        self.mean_good = mean_good
        self.mean_bad = mean_bad
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self._clock = None
        #: per directed link: (currently_bad, state_valid_until)
        self._state: dict[tuple[str, str], tuple[bool, float]] = {}

    def bind_clock(self, sim) -> None:
        """Attach the simulator whose ``now`` drives sojourn expiry."""
        self._clock = sim

    @property
    def stationary_loss(self) -> float:
        """Long-run per-attempt loss probability of one link."""
        bad = self.mean_bad / (self.mean_good + self.mean_bad)
        return bad * self.loss_bad + (1.0 - bad) * self.loss_good

    def link_state(self, sender_ip: str, receiver_ip: str) -> str:
        """State of a directed link at the last attempt: ``good``/``bad``."""
        bad, _ = self._state.get((sender_ip, receiver_ip), (False, 0.0))
        return "bad" if bad else "good"

    def should_drop(self, sender_ip: str, receiver_ip: str, rng: random.Random) -> bool:
        if self._clock is None:
            raise RuntimeError(
                "TimedGilbertElliottChannel used without bind_clock(); "
                "install it via FaultPlan(channel=...) on a ManetScenario"
            )
        now = self._clock.now
        link = (sender_ip, receiver_ip)
        bad, until = self._state.get(link, (False, 0.0))
        if link not in self._state:
            # A fresh link starts in good with a full sojourn ahead of it.
            until = now + rng.expovariate(1.0 / self.mean_good)
        while until <= now:
            bad = not bad
            mean = self.mean_bad if bad else self.mean_good
            until += rng.expovariate(1.0 / mean)
        self._state[link] = (bad, until)
        loss = self.loss_bad if bad else self.loss_good
        return loss > 0 and rng.random() < loss

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TimedGilbertElliottChannel(mean_good={self.mean_good}, "
            f"mean_bad={self.mean_bad}, loss_good={self.loss_good}, "
            f"loss_bad={self.loss_bad})"
        )

