"""Duplicate suppression: a table that remembers each key for one hold time.

Floods reach a node many times over, so every flooding component keeps a
table of the keys it has already handled: AODV's RREQ ids, OLSR's duplicate
set, the SLP plugins' messages, the baselines' flood ids. Each holds every
key for the same fixed time, so first-insertion order is expiry order:
:meth:`HoldTable.add` drops expired keys from the front of a queue, and
the table never needs a size limit or a scan. DESIGN.md §5b lists the
tables with their keys and hold times.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable


class HoldTable:
    """Keys held for ``hold`` seconds after they were last added.

    A lookup is one dict read. :meth:`add` first forgets the keys that
    expired by ``now``, oldest first, then holds the new key. Adding a key
    the table still holds refreshes it in place: it keeps its place in the
    queue, so while it is the oldest key it also keeps the keys behind it,
    by at most the time its refreshes added.
    """

    __slots__ = ("hold", "_expiry", "_order")

    def __init__(self, hold: float) -> None:
        self.hold = hold
        self._expiry: dict[Hashable, float] = {}
        # Bounded by the hold time, not a capacity: add() pops what expired.
        self._order: deque[Hashable] = deque()  # lint: disable=OVR001

    def __len__(self) -> int:
        return len(self._expiry)

    def holds(self, key: Hashable, now: float) -> bool:
        """Whether ``key`` was added less than one hold time before ``now``."""
        return self._expiry.get(key, 0.0) > now

    def add(self, key: Hashable, now: float) -> None:
        """Hold ``key`` until ``now + hold``, after forgetting what expired."""
        expiry = self._expiry
        order = self._order
        while order and expiry[order[0]] <= now:
            del expiry[order.popleft()]
        if key not in expiry:
            order.append(key)
        expiry[key] = now + self.hold
