"""Waitable resources built on the event engine.

Three primitives cover every coordination pattern in the reproduction:

* :class:`Store` — an unbounded (or bounded) FIFO of items; actors'
  mailboxes, the fabric's in-flight message queues, and the serverless
  baseline's request queues are Stores.
* :class:`Gate` — a level-triggered condition; processes wait until it is
  opened (used for barrier-style startup and checkpoint quiescence).
* :class:`CapacityResource` — a counted resource with FIFO waiters; models
  anything with finite concurrent capacity (a GPU's execution slots, a
  server's cores in the IaaS baseline).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.simulator.engine import Event, SimulationError, Simulator

__all__ = ["CapacityResource", "Gate", "Store"]


class Store:
    """FIFO item queue with waitable ``get`` and (optionally bounded) ``put``."""

    def __init__(self, sim: Simulator, capacity: Optional[int] = None):
        if capacity is not None and capacity <= 0:
            raise SimulationError("Store capacity must be positive or None")
        self.sim = sim
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple] = deque()  # (event, item)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of queued items (oldest first)."""
        return tuple(self._items)

    def put(self, item: Any) -> Event:
        """Enqueue ``item``; the returned event fires once it is accepted."""
        event = Event(self.sim)
        if self._getters:
            # Hand directly to the oldest waiting getter.
            getter = self._getters.popleft()
            getter.succeed(item)
            event.succeed()
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            event.succeed()
        else:
            self._putters.append((event, item))
        return event

    def get(self) -> Event:
        """Dequeue the oldest item; the returned event fires with the item."""
        event = Event(self.sim)
        if self._items:
            item = self._items.popleft()
            event.succeed(item)
            # Capacity freed: admit the oldest blocked putter, if any.
            if self._putters:
                put_event, put_item = self._putters.popleft()
                self._items.append(put_item)
                put_event.succeed()
        else:
            self._getters.append(event)
        return event


class Gate:
    """A level-triggered condition that processes can wait on.

    While closed, :meth:`wait` returns events that fire only when the gate
    opens.  While open, :meth:`wait` returns an already-fired event.
    """

    def __init__(self, sim: Simulator, open_: bool = False):
        self.sim = sim
        self._open = open_
        self._waiters: Deque[Event] = deque()

    @property
    def is_open(self) -> bool:
        return self._open

    def open(self) -> None:
        if self._open:
            return
        self._open = True
        while self._waiters:
            self._waiters.popleft().succeed()

    def close(self) -> None:
        self._open = False

    def wait(self) -> Event:
        event = Event(self.sim)
        if self._open:
            event.succeed()
        else:
            self._waiters.append(event)
        return event


class CapacityResource:
    """A counted resource; acquires block FIFO when capacity is exhausted."""

    def __init__(self, sim: Simulator, capacity: int):
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[tuple] = deque()  # (event, amount)

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    def acquire(self, amount: int = 1) -> Event:
        if amount <= 0 or amount > self.capacity:
            raise SimulationError(
                f"acquire({amount}) invalid for capacity {self.capacity}"
            )
        event = Event(self.sim)
        if not self._waiters and self._in_use + amount <= self.capacity:
            self._in_use += amount
            event.succeed(amount)
        else:
            self._waiters.append((event, amount))
        return event

    def release(self, amount: int = 1) -> None:
        if amount <= 0 or amount > self._in_use:
            raise SimulationError(f"release({amount}) exceeds in-use {self._in_use}")
        self._in_use -= amount
        # Admit waiters in FIFO order while they fit (no overtaking).
        while self._waiters:
            event, want = self._waiters[0]
            if self._in_use + want > self.capacity:
                break
            self._waiters.popleft()
            self._in_use += want
            event.succeed(want)
