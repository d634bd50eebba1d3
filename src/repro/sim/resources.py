"""Capacity-limited simulated resources.

:class:`Resource` is a counted semaphore with a FIFO wait queue: a
switch's dispatcher and a service node's worker units are each one.
Waiters are served strictly FIFO, which keeps runs deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List

from repro.sim.kernel import Event, SimulationError, Simulator

__all__ = ["Resource"]


class _Request(Event):
    """Event handed to a waiter; fires when the resource is acquired.

    It fires with no value: the waiter already holds the request (it
    must hand it back to :meth:`Resource.release`), and a request whose
    value is itself would be a cycle that only the cyclic GC frees.
    """

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

    :meth:`request` returns a slot (a :class:`_Request`) that fires,
    with no value, once granted; the holder keeps it and passes it to
    :meth:`release`.  A released slot is freed by refcount as soon as
    its holder drops it.

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
            req.succeed()
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
            nxt.succeed()

