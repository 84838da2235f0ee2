"""Receiver-side jitter buffers and their playout-delay policies.

A dejitter buffer classifies arriving frames as playable or late: the
first packet (or, for the adaptive policy, the first packet of each
talk-spurt) anchors the playout schedule, and every subsequent frame must
arrive before its slot (anchor + playout_delay + k * frame_interval) or it
is discarded as late. This is conservative but standard for VoIP quality
studies, and exactly what the E-model's effective-loss input expects.

The playout delay itself comes from a pluggable :class:`JitterPolicy`:

* :class:`FixedPlayoutPolicy` — one delay for the whole stream (the
  legacy behaviour; byte-identical to the pre-policy buffer).
* :class:`AdaptivePlayoutPolicy` — re-targets the delay from the RFC 3550
  interarrival-jitter estimate within ``[min_delay, max_delay]`` bounds.

Every policy re-anchors its playout schedule at a received RTP marker bit,
which a peer with silence suppression sets at each talk-spurt start —
silence gaps advance wall time without advancing sequence numbers, so a
spurt must restart the clock or play nothing — but only the adaptive
policy changes the *delay* at that point. The sessions here mark only
their first frame, so the adaptive policy also repairs delay spikes after
a streak of late arrivals, and shrinks the delay back toward the target
once a spike passes.

The buffer also accepts frames rebuilt from RFC 2198 redundancy via
:meth:`JitterBuffer.on_recovered` — those count in ``played`` *and* in the
separate ``recovered`` stat, never in ``received`` (they are not network
receipts), so the E-model can split network loss from effective loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Classification outcomes of one arrival (see :meth:`JitterBuffer.classify`).
PLAYED = "played"
LATE = "late"
DUPLICATE = "duplicate"


@dataclass
class JitterBufferStats:
    received: int = 0  #: raw network receipts fed to the buffer (incl. dups)
    played: int = 0  #: frames that made their playout slot (incl. recovered)
    late_dropped: int = 0  #: receipts that missed their slot
    duplicates: int = 0  #: re-receipts and stale replays outside the window
    recovered: int = 0  #: lost primaries rebuilt from RFC 2198 redundancy
    recovered_late: int = 0  #: redundant copies that missed the slot anyway
    retargets: int = 0  #: re-anchor events (talk-spurt starts, late-streak repairs)

    @property
    def unique(self) -> int:
        """Distinct frames actually received from the network."""
        return self.received - self.duplicates

    @property
    def late_ratio(self) -> float:
        return self.late_dropped / self.received if self.received else 0.0


class JitterPolicy:
    """Playout-delay policy interface of a :class:`JitterBuffer`."""

    name: str = "?"

    def initial_delay(self) -> float:
        """Playout delay applied at the first anchor."""
        raise NotImplementedError

    def target_delay(self, jitter_estimate: float) -> float:
        """Playout delay to adopt at a re-anchor opportunity."""
        raise NotImplementedError

    @property
    def adaptive(self) -> bool:
        """Whether the buffer may re-anchor mid-stream."""
        return False


@dataclass(frozen=True)
class FixedPlayoutPolicy(JitterPolicy):
    """One playout delay for the stream's whole life (legacy behaviour)."""

    delay: float = 0.06

    name = "fixed"

    def initial_delay(self) -> float:
        return self.delay

    def target_delay(self, jitter_estimate: float) -> float:
        return self.delay


@dataclass(frozen=True)
class AdaptivePlayoutPolicy(JitterPolicy):
    """Re-target playout delay from the interarrival-jitter estimate.

    The target is ``headroom + multiplier * jitter`` clamped to
    ``[min_delay, max_delay]`` — the classic "mean + k sigma" playout rule
    with the RFC 3550 jitter estimator standing in for sigma. Re-anchoring
    happens at talk-spurt starts (RTP marker bit) and, as spike repair for
    streams without markers, after ``resync_after`` consecutive late drops.
    The delay also comes back *down*: once the target has sat at least one
    frame below the current delay for ``shrink_after`` consecutive on-time
    frames, the buffer re-anchors to the target — without this a single
    delay spike would pin a marker-less stream at ``max_delay`` forever.
    """

    min_delay: float = 0.04
    max_delay: float = 0.24
    multiplier: float = 6.0
    headroom: float = 0.01
    start_delay: float = 0.06
    resync_after: int = 1
    shrink_after: int = 50

    name = "adaptive"

    def _clamp(self, delay: float) -> float:
        return max(self.min_delay, min(self.max_delay, delay))

    def initial_delay(self) -> float:
        return self._clamp(self.start_delay)

    def target_delay(self, jitter_estimate: float) -> float:
        return self._clamp(self.headroom + self.multiplier * jitter_estimate)

    @property
    def adaptive(self) -> bool:
        return True


@dataclass
class JitterBuffer:
    """Classifies arriving frames as playable, late, or duplicate.

    Duplicate suppression uses a sliding window of ``dedup_window``
    sequence numbers behind the highest extended sequence seen: a replayed
    packet older than the window is rejected as a duplicate instead of
    being replayed into the stream (the pre-window buffer wholesale-cleared
    its dedup set at 65536 entries, after which any replay was accepted and
    counted as played).
    """

    frame_interval: float
    playout_delay: float = 0.06
    policy: JitterPolicy | None = None
    dedup_window: int = 1024
    stats: JitterBufferStats = field(default_factory=JitterBufferStats)
    _anchor_time: float | None = None
    _anchor_ext: int | None = None
    _ext_high: int | None = None
    _seen: set[int] = field(default_factory=set)
    _last_playout_at: float | None = None
    _late_streak: int = 0
    _slack_streak: int = 0
    # policy.adaptive, read once: classify() consults it on every arrival.
    _adaptive: bool = field(default=False, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.policy is None:
            self.policy = FixedPlayoutPolicy(self.playout_delay)
        self.playout_delay = self.policy.initial_delay()
        self._adaptive = self.policy.adaptive

    # -- arrivals -----------------------------------------------------------
    def on_packet(
        self,
        sequence: int,
        arrival_time: float,
        jitter: float = 0.0,
        marker: bool = False,
    ) -> bool:
        """Record an arrival; returns True if the frame makes its slot."""
        return self.classify(sequence, arrival_time, jitter, marker) == PLAYED

    def classify(
        self,
        sequence: int,
        arrival_time: float,
        jitter: float = 0.0,
        marker: bool = False,
    ) -> str:
        """Record an arrival and say what became of it.

        Returns :data:`PLAYED`, :data:`LATE` or :data:`DUPLICATE`.
        ``jitter`` is the receiver's current RFC 3550 interarrival-jitter
        estimate (seconds); adaptive policies read it at re-anchor points.
        ``marker`` is the RTP marker bit (talk-spurt start).
        """
        self.stats.received += 1
        ext = self._admit(sequence)
        if ext is None:
            self.stats.duplicates += 1
            return DUPLICATE
        policy = self.policy
        assert policy is not None
        adaptive = self._adaptive
        resync = self._anchor_time is not None and (
            marker
            or (
                adaptive
                and self._late_streak >= policy.resync_after  # type: ignore[attr-defined]
            )
        )
        if self._anchor_time is None or resync:
            if resync:
                self.stats.retargets += 1
                if adaptive:
                    self.playout_delay = policy.target_delay(jitter)
            self._anchor_time = arrival_time
            self._anchor_ext = ext
            self._late_streak = 0
            self._slack_streak = 0
            self.stats.played += 1
            self._note_playout(arrival_time + self.playout_delay)
            return PLAYED
        assert self._anchor_ext is not None
        offset = ext - self._anchor_ext
        playout_at = self._anchor_time + self.playout_delay + offset * self.frame_interval
        if arrival_time <= playout_at:
            self.stats.played += 1
            self._late_streak = 0
            if adaptive:
                self._maybe_shrink(ext, arrival_time, jitter)
            self._note_playout(playout_at)
            return PLAYED
        self.stats.late_dropped += 1
        self._late_streak += 1
        self._slack_streak = 0
        return LATE

    def on_recovered(self, sequence: int, arrival_time: float) -> bool:
        """A frame rebuilt from RFC 2198 redundancy (not a network receipt).

        Counted in ``played`` and ``recovered`` when it makes its playout
        slot; a copy of a frame already seen (primary arrived after all, or
        an earlier redundant copy won) is ignored. Returns True when the
        frame was recovered into the playout schedule.
        """
        ext = self._admit(sequence)
        if ext is None:
            return False
        if self._anchor_time is None:
            self._anchor_time = arrival_time
            self._anchor_ext = ext
            self.stats.played += 1
            self.stats.recovered += 1
            self._note_playout(arrival_time + self.playout_delay)
            return True
        assert self._anchor_ext is not None
        offset = ext - self._anchor_ext
        playout_at = self._anchor_time + self.playout_delay + offset * self.frame_interval
        if arrival_time <= playout_at:
            self.stats.played += 1
            self.stats.recovered += 1
            self._note_playout(playout_at)
            return True
        self.stats.recovered_late += 1
        return False

    # -- internals ----------------------------------------------------------
    def _maybe_shrink(self, ext: int, arrival_time: float, jitter: float) -> None:
        """Walk the playout delay back down after a spike has passed.

        Counts consecutive on-time frames whose policy target sits at least
        one frame below the current delay; after ``shrink_after`` of them
        the schedule re-anchors at this frame with the (smaller) target.
        """
        policy = self.policy
        assert policy is not None
        target = policy.target_delay(jitter)
        if target + self.frame_interval > self.playout_delay:
            self._slack_streak = 0
            return
        self._slack_streak += 1
        if self._slack_streak < policy.shrink_after:  # type: ignore[attr-defined]
            return
        self.stats.retargets += 1
        self.playout_delay = target
        self._anchor_time = arrival_time
        self._anchor_ext = ext
        self._slack_streak = 0

    def _admit(self, sequence: int) -> int | None:
        """Map a 16-bit sequence to its extended form; None if dup/stale.

        The extension unwraps the 16-bit space against the highest sequence
        seen, so playout offsets and the dedup window survive arbitrarily
        many 0xFFFF -> 0 rollovers. Entries more than ``dedup_window``
        behind the highest sequence are evicted lazily (amortized O(1));
        anything older that reappears is stale and rejected.
        """
        if self._ext_high is None:
            ext = sequence
            self._ext_high = ext
        else:
            ext = self._ext_high + _seq_delta(sequence, self._ext_high & 0xFFFF)
            if ext <= self._ext_high - self.dedup_window:
                return None  # stale replay from beyond the window
            if ext in self._seen:
                return None
            if ext > self._ext_high:
                self._ext_high = ext
        self._seen.add(ext)
        if len(self._seen) > 2 * self.dedup_window:
            floor = self._ext_high - self.dedup_window
            self._seen = {e for e in self._seen if e > floor}
        return ext

    def _note_playout(self, playout_at: float) -> None:
        if self._last_playout_at is None or playout_at > self._last_playout_at:
            self._last_playout_at = playout_at

    def backlog_at(self, now: float) -> int:
        """Frames accepted but not yet played out at sim time ``now``.

        The buffer classifies rather than stores frames, so depth is derived
        from the playout schedule: the furthest scheduled playout instant
        minus ``now``, in frame slots, clamped at zero. A read-only estimate
        for the metrics gauges.
        """
        if self._last_playout_at is None or self._last_playout_at <= now:
            return 0
        return int((self._last_playout_at - now) / self.frame_interval) + 1


def _seq_delta(sequence: int, anchor: int) -> int:
    """Wrap-aware distance from anchor to sequence (16-bit space)."""
    delta = (sequence - anchor) & 0xFFFF
    if delta >= 0x8000:
        delta -= 0x10000
    return delta
