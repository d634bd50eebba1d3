"""Capacity-limited simulated resources.

Three primitives cover every contention pattern in the reproduction:

* :class:`Resource` — a counted semaphore with a FIFO wait queue (e.g. a
  host NIC admitting a bounded number of concurrent flows).
* :class:`Container` — a continuous level with bounded capacity (e.g.
  disk space on a HUP host).
* :class:`Store` — a FIFO queue of discrete items with blocking get
  (e.g. the SODA Daemon's command inbox).

All waiters are served strictly FIFO, which keeps runs deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List

from repro.sim.kernel import Event, SimulationError, Simulator

__all__ = ["Resource", "Container", "Store"]


class _Request(Event):
    """Event handed to a waiter; fires when the resource is acquired."""

    __slots__ = ("resource",)

    def __init__(self, sim: Simulator, resource: "Resource"):
        # Inlined Event.__init__ (one request per dispatch and per
        # back-end visit, so the super() call shows in the benches).
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._exception = None
        self._ok = None
        self.resource = resource

    # Context-manager sugar so processes can write
    # ``with resource.request() as req: yield req``.
    def __enter__(self) -> "_Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.resource.release(self)


class Resource:
    """Counted semaphore with FIFO queuing.

    >>> sim = Simulator()
    >>> cpu = Resource(sim, capacity=1)
    >>> order = []
    >>> def user(sim, name):
    ...     req = cpu.request()
    ...     yield req
    ...     order.append((sim.now, name))
    ...     yield sim.timeout(5)
    ...     cpu.release(req)
    >>> _ = sim.process(user(sim, "a")); _ = sim.process(user(sim, "b"))
    >>> sim.run()
    >>> order
    [(0.0, 'a'), (5.0, 'b')]
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.users: List[_Request] = []
        self.queue: Deque[_Request] = deque()

    @property
    def count(self) -> int:
        """Number of current holders."""
        return len(self.users)

    def request(self) -> _Request:
        """Ask for one unit; the returned event fires on acquisition."""
        req = _Request(self.sim, self)
        users = self.users
        if len(users) < self.capacity:
            users.append(req)
            req.succeed(req)
        else:
            self.queue.append(req)
        return req

    def release(self, request: _Request) -> None:
        """Return one unit previously acquired via ``request``.

        Releasing a queued (never-granted) request cancels it.
        """
        users = self.users
        if request in users:
            users.remove(request)
            if self.queue:
                self._grant_queued()
        else:
            try:
                self.queue.remove(request)
            except ValueError:
                raise SimulationError("release of a request not held or queued")

    def resize(self, capacity: int) -> None:
        """Change capacity in place.

        Growth grants queued requests immediately; shrinking below the
        current holder count takes effect as holders release (no
        preemption) — the semantics service resizing needs.
        """
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._grant_queued()

    def _grant_queued(self) -> None:
        while self.queue and len(self.users) < self.capacity:
            nxt = self.queue.popleft()
            self.users.append(nxt)
            nxt.succeed(nxt)


class Container:
    """A continuous quantity with a bounded capacity.

    ``put``/``get`` return events that fire once the operation can
    complete without violating ``0 <= level <= capacity``.  Waiters are
    FIFO per direction.
    """

    def __init__(self, sim: Simulator, capacity: float = float("inf"), init: float = 0.0):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if not 0 <= init <= capacity:
            raise ValueError(f"init {init} outside [0, {capacity}]")
        self.sim = sim
        self.capacity = capacity
        self._level = init
        self._getters: Deque = deque()  # (event, amount)
        self._putters: Deque = deque()

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> Event:
        if amount < 0:
            raise ValueError(f"negative put amount: {amount}")
        event = Event(self.sim)
        self._putters.append((event, amount))
        self._settle()
        return event

    def get(self, amount: float) -> Event:
        if amount < 0:
            raise ValueError(f"negative get amount: {amount}")
        event = Event(self.sim)
        self._getters.append((event, amount))
        self._settle()
        return event

    def _settle(self) -> None:
        """Grant queued operations in FIFO order while possible."""
        progressed = True
        while progressed:
            progressed = False
            if self._putters:
                event, amount = self._putters[0]
                if self._level + amount <= self.capacity:
                    self._putters.popleft()
                    self._level += amount
                    event.succeed(amount)
                    progressed = True
            if self._getters:
                event, amount = self._getters[0]
                if self._level >= amount:
                    self._getters.popleft()
                    self._level -= amount
                    event.succeed(amount)
                    progressed = True


class Store:
    """FIFO queue of discrete items with blocking ``get``.

    ``capacity`` bounds the number of buffered items; ``put`` blocks
    (its event stays pending) while full.
    """

    def __init__(self, sim: Simulator, capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque = deque()  # (event, item)

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        event = Event(self.sim)
        self._putters.append((event, item))
        self._settle()
        return event

    def get(self) -> Event:
        event = Event(self.sim)
        self._getters.append(event)
        self._settle()
        return event

    def _settle(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            while self._putters and len(self.items) < self.capacity:
                event, item = self._putters.popleft()
                self.items.append(item)
                event.succeed(item)
                progressed = True
            while self._getters and self.items:
                event = self._getters.popleft()
                event.succeed(self.items.popleft())
                progressed = True
