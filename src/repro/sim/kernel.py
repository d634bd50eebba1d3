"""Core discrete-event simulation kernel.

A :class:`Simulator` owns a simulated clock and the pending events.
Simulated activities are written as Python generators wrapped in
:class:`Process`; a process advances by yielding :class:`Event` objects
(most commonly :class:`Timeout`) and is resumed when the yielded event
fires.  At one timestamp, entries due at once (triggered events,
bootstraps, resumes, interrupts, ``call_soon``) fire before the ones
scheduled ahead for it (timeouts, ``schedule_at``), each group in
scheduling order, so the simulation is deterministic.

The API is a compact subset of SimPy's:

>>> sim = Simulator()
>>> log = []
>>> def worker(sim, name, delay):
...     yield sim.timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.process(worker(sim, "a", 2.0))
>>> _ = sim.process(worker(sim, "b", 1.0))
>>> sim.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]

Hot-path notes
--------------
The kernel is the innermost loop of every experiment, so it avoids
allocations where the event machinery is pure plumbing:

* All event classes use ``__slots__``.
* Pending entries live in two containers (see :class:`Simulator`), and
  the container is the priority: a FIFO *lane* (a ``deque``) for entries
  due now — triggered events, bootstraps, interrupts, resumes after an
  already-processed yield, ``call_soon`` — and a binary heap for entries
  scheduled ahead.  About half of all entries go on the lane, which
  appends and pops them in constant time instead of sifting them through
  the heap.  Every entry takes the next ``seq``, and dispatch takes from
  the lane before the heap.
* Entries come in two shapes: a triggered event, ``(time, seq, event)``,
  and a *direct* entry, ``(time, seq, None, owner, trigger)``, which
  dispatch sends straight into ``owner._resume(trigger)``.  A process has
  one resume body, :meth:`Process._resume`, whether an event's callback
  or a direct entry calls it.  A direct entry's trigger is the
  already-processed event the process yielded, the shared
  already-succeeded sentinel (bootstraps, callbacks), or an unscheduled
  failed :class:`Event` carrying the :class:`Interrupt`; no throwaway
  event is ever scheduled.  Both shapes share the ``(time, seq)`` prefix
  and ``seq`` is unique, so heap comparisons never reach the payload.
* :class:`Timeout`, :meth:`Event.succeed` and the :class:`Process`
  bootstrap push inline instead of going through a scheduling method.
* A component that pushes the same callback over and over (the LAN's
  flush and completion wake-up) keeps one direct-entry owner and pushes
  it with :meth:`Simulator._schedule_now` or
  :meth:`Simulator._schedule_direct`.

``tests/sim/test_kernel_reference.py`` holds a plain reference
simulator (one heap keyed by ``(time, priority, seq)``, one entry
shape, no lane, no inlining) that this kernel must match event for event
on random process programs.
"""

from __future__ import annotations

import sys
from collections import deque
from heapq import heappop as _heappop, heappush as _heappush
from time import perf_counter as _perf_counter
from typing import Any, Callable, Deque, Generator, Iterable, List, Optional, Tuple

__all__ = [
    "SimulationError",
    "Interrupt",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Process",
    "Simulator",
]

_INF = float("inf")
# The run loop's default bound: an entry at ``inf`` never fires, so the
# clock never reaches it.
_FOREVER = sys.float_info.max


class SimulationError(RuntimeError):
    """Raised for kernel misuse (running a dead simulator, double-firing
    an event, yielding a foreign object from a process, ...)."""


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`.

    The interrupting party supplies ``cause``; the interrupted process can
    catch the exception and inspect it (used e.g. to model a virtual
    service node being crashed by an attack while serving a request).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Interrupt(cause={self.cause!r})"


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*, is *triggered* when given a value (or an
    exception), and is *processed* once the kernel has run its callbacks.
    Processes waiting on the event are resumed with the event's value, or
    have the event's exception thrown into them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exception", "_ok", "__weakref__")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._ok: Optional[bool] = None

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run and the value is observable."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Only meaningful once triggered."""
        return bool(self._ok)

    @property
    def value(self) -> Any:
        if self._ok is None:
            raise SimulationError("event value read before it was triggered")
        if self._exception is not None:
            raise self._exception
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        # Inlined Simulator._schedule: due now, so onto the lane.
        sim = self.sim
        sim._seq += 1
        sim._lane.append((sim._now, sim._seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to be raised in waiters."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._exception = exception
        self.sim._schedule(self)
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "pending"
        if self.processed:
            state = "processed"
        elif self.triggered:
            state = "triggered"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


# The trigger of every bootstrap and callback direct entry: an
# already-processed success with no value.
_SUCCEEDED = Event(None)  # type: ignore[arg-type]
_SUCCEEDED._ok = True
_SUCCEEDED.callbacks = None
# The stop condition of :meth:`Simulator.run`: an event never triggered.
_NEVER = Event(None)  # type: ignore[arg-type]


class Timeout(Event):
    """An event that fires ``delay`` units of simulated time from now."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"negative timeout delay: {delay!r}")
        # Inlined Event.__init__ plus scheduling: a Timeout is born
        # triggered, so it goes straight onto the heap.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._exception = None
        self._ok = True
        self.delay = delay
        sim._seq += 1
        _heappush(sim._heap, (sim._now + delay, sim._seq, self))


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events: Tuple[Event, ...] = tuple(events)
        for event in self.events:
            if event.sim is not sim:
                raise SimulationError("condition mixes events from different simulators")
        # Every constituent counts as pending until _check consumes it —
        # including events that were already processed before the
        # condition was built (they are consumed synchronously here).
        self._pending = len(self.events)
        for event in self.events:
            if event.processed:
                self._check(event)
            elif event.callbacks is not None:
                event.callbacks.append(self._check)
        if not self.events and self._ok is None:
            self.succeed(self._collect())

    def _collect(self) -> dict:
        return {e: e._value for e in self.events if e.processed and e.ok}

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Fires once *all* constituent events have fired.

    Fails immediately (with the first failure's exception) if any
    constituent fails.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._ok is not None:
            return
        if not event.ok:
            assert event._exception is not None
            self.fail(event._exception)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Fires as soon as *any* constituent event fires."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._ok is not None:
            return
        if not event.ok:
            assert event._exception is not None
            self.fail(event._exception)
            return
        self.succeed(self._collect())


class Process(Event):
    """A simulated activity driven by a Python generator.

    The generator yields :class:`Event` objects; the process sleeps until
    the yielded event fires, then resumes with the event's value (or the
    event's exception raised at the yield point).  A Process is itself an
    Event that fires when the generator finishes, so processes can wait
    on each other:

    >>> sim = Simulator()
    >>> def child(sim):
    ...     yield sim.timeout(3)
    ...     return "done"
    >>> def parent(sim):
    ...     result = yield sim.process(child(sim))
    ...     assert result == "done"
    >>> _ = sim.process(parent(sim))
    >>> sim.run()
    """

    __slots__ = ("_generator", "name", "_target", "_resume_cb")

    def __init__(self, sim: "Simulator", generator: Generator[Event, Any, Any], name: str = ""):
        super().__init__(sim)
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"Process requires a generator, got {type(generator).__name__}")
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        # One bound method reused for every callback registration; bound
        # methods compare equal, so interrupt() can still .remove() it.
        # It references the process itself, so both terminal paths of
        # the resume step drop it: a finished process is then freed by
        # refcount instead of waiting for the cyclic GC.
        self._resume_cb = self._resume
        # Bootstrap: resume at the current instant via a direct entry
        # (Simulator._schedule_now, inlined).
        sim._seq += 1
        sim._lane.append((sim._now, sim._seq, None, self, _SUCCEEDED))

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._ok is None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield.

        Interrupting a finished process is an error; interrupting a
        process blocked on an event detaches it from that event.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        self._target = None
        sim = self.sim
        interrupt = Event(sim)  # failed, never scheduled: only a trigger
        interrupt._ok = False
        interrupt._exception = Interrupt(cause)
        sim._schedule_now(self, interrupt)

    def _resume(self, trigger: Event) -> None:
        """Advance the generator with ``trigger``'s outcome.

        The one resume body: an event's callback and a direct entry
        (bootstrap, interrupt, already-processed yield) both land here.
        """
        if self._ok is not None:
            # Stale wake-up: the process finished after this entry was
            # queued (e.g. an interrupt behind a direct resume); drop it.
            return
        self._target = None
        sim = self.sim
        sim._active_process = self
        exception = trigger._exception
        try:
            if exception is not None:
                next_event = self._generator.throw(exception)
            else:
                next_event = self._generator.send(trigger._value)
        except StopIteration as stop:
            sim._active_process = None
            self._resume_cb = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            sim._active_process = None
            self._resume_cb = None
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            unawaited = not self.callbacks
            self.fail(exc)
            if unawaited:
                raise
            return
        sim._active_process = None
        try:
            callbacks = next_event.callbacks
        except AttributeError:
            self._yield_error(next_event)
            return  # unreachable: _yield_error raises
        self._target = next_event
        if callbacks is None:
            # Already processed: resume at this instant, with the event
            # itself as the direct entry's trigger.
            sim._schedule_now(self, next_event)
        else:
            callbacks.append(self._resume_cb)

    def _yield_error(self, yielded: Any) -> None:
        """Fail the process over a non-event yield (cold path)."""
        error = SimulationError(f"process {self.name!r} yielded non-event {yielded!r}")
        self._generator.close()
        self._resume_cb = None
        self.fail(error)
        raise error

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "alive" if self.is_alive else "finished"
        return f"<Process {self.name!r} {state}>"


class Simulator:
    """Owns the simulated clock and the pending entries.

    Entries come in two shapes sharing the ``(time, seq)`` prefix
    (``seq`` is unique, so comparisons never reach the payload):

    * ``(time, seq, event)`` — a triggered :class:`Event` whose callbacks
      run at ``time``.
    * ``(time, seq, None, owner, trigger)`` — a direct entry:
      ``owner._resume(trigger)`` runs at ``time``.  A :class:`Process`
      owner resumes with the trigger's outcome; the trigger is the
      already-processed event it yielded, the shared already-succeeded
      sentinel (a bootstrap), or an unscheduled failed :class:`Event`
      carrying an :class:`Interrupt`.  A callback owner
      (:meth:`call_soon`, :meth:`schedule_at`) ignores the sentinel it
      is given; the LAN's wake-up owner reads its generation from it.

    They wait in one of two containers, and the container is the
    priority.  An entry due now (a triggered event, a bootstrap, a
    resume, an interrupt, :meth:`call_soon`) goes on the *lane*, a FIFO
    ``deque``; an entry scheduled ahead (a :class:`Timeout`,
    :meth:`schedule_at`, :meth:`_schedule_direct`) goes on the heap, even
    when its time is now.  Dispatch takes from the lane before the heap,
    so at one instant the lane's entries fire first, each container in
    ``seq`` order.  Lane entries all carry the current time and each
    takes the next ``seq``, so FIFO order is key order.  The clock moves
    only when a heap pop finds the lane empty, so the lane is empty
    whenever the clock moves and after :meth:`run` returns.

    An entry at ``inf`` never fires: :meth:`run` and
    :meth:`run_until_process` stop before it, and :meth:`step` treats it
    as nothing pending, so the clock never reaches ``inf``.

    An exception escaping a process generator fails the Process event,
    and every process (or condition) waiting on it receives it.  A
    failure that nobody is waiting on is re-raised out of :meth:`run`,
    :meth:`run_until_process` or :meth:`step`, so it is never dropped.
    "Waiting" is judged when the process fails, so a parent joining
    several children in turn has them return expected errors instead.
    When such a failure escapes from one callback of an event, the
    event's later callbacks are not lost: they run first on the next
    dispatch, at the same instant and in callback order.
    """

    def __init__(self):
        self._now: float = 0.0
        self._heap: List[tuple] = []
        self._lane: Deque[tuple] = deque()
        self._seq = 0
        self._active_process: Optional[Process] = None
        # Opt-in kernel profiler (duck-typed; see repro.obs.profiler).
        # When None — the default — the shared run loop (_loop) takes
        # its allocation-free dispatch branch.
        self._profiler: Optional[Any] = None

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def events_scheduled(self) -> int:
        """Total entries ever scheduled (events, resumes, callbacks).

        This is the kernel-cost yardstick the hybrid-fidelity benches
        report: it counts every entry pushed onto the lane or the heap
        over the simulator's lifetime, at zero extra cost (it *is* the
        sequence counter that orders same-instant ties).
        """
        return self._seq

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being stepped, if any."""
        return self._active_process

    # -- profiling ----------------------------------------------------------
    @property
    def profiler(self) -> Optional[Any]:
        """The installed kernel profiler, if any."""
        return self._profiler

    def set_profiler(self, profiler: Optional[Any]) -> None:
        """Install (or remove, with ``None``) a kernel profiler.

        The profiler is duck-typed — it needs ``record(site, wall_s)``
        and ``note_heap_depth(depth)`` — so the kernel stays free of
        observability imports.  With a profiler installed, the run loop
        that ``run()`` and ``run_until_process()`` share dispatches every
        event through :meth:`_dispatch_profiled`, which times its callback
        site; the profiler only *measures* (wall clock, pending depth:
        lane plus heap), so simulation results are bit-identical either
        way.  ``step()`` is never profiled.
        """
        self._profiler = profiler

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event (trigger it with succeed/fail)."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` simulated time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any], name: str = "") -> Process:
        """Start a new simulated process from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def _schedule(self, event: Event) -> None:
        """Fire triggered ``event`` at this instant (on the lane)."""
        self._seq += 1
        self._lane.append((self._now, self._seq, event))

    def _schedule_now(self, owner: Any, trigger: Any = _SUCCEEDED) -> None:
        """Schedule ``owner._resume(trigger)`` at this instant (on the lane).

        It takes the next sequence number and so sorts exactly where a
        :meth:`call_soon` made at this point would.  Hot-path components
        (the LAN's flush) keep one ``owner`` for their lifetime instead of
        allocating a shim per push.
        """
        self._seq += 1
        self._lane.append((self._now, self._seq, None, owner, trigger))

    def _schedule_direct(self, owner: Any, time: float, trigger: Any = _SUCCEEDED) -> None:
        """Schedule ``owner._resume(trigger)`` at absolute time ``time``.

        It goes on the heap and takes the next sequence number, so at
        ``time == now + delay`` it sorts exactly where a :class:`Timeout`
        created at this point would.  Hot-path components (the LAN's
        completion wake-up) keep one ``owner`` for their lifetime.
        """
        self._seq += 1
        _heappush(self._heap, (time, self._seq, None, owner, trigger))

    def call_soon(self, callback: Callable[[], None]) -> None:
        """Run ``callback()`` at the current instant, on the lane.

        The callback fires after everything already due now and before
        every entry scheduled ahead for this instant.  Lets a component
        coalesce several same-instant mutations into one pass (the LAN's
        batched rate recomputation does this through
        :meth:`_schedule_now` with an owner it reuses).
        """
        self._schedule_now(_CallbackShim(callback))

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Run ``callback()`` at absolute simulated time ``time``.

        The pause/resume hook for sub-kernel drivers: ``run(until=H)``
        parks the simulator exactly at horizon ``H`` (events beyond it
        stay on the heap), and ``schedule_at`` injects externally-sourced
        work — cross-shard message deliveries, epoch-barrier callbacks —
        at its exact timestamp before the next ``run(until=...)`` leg.
        The callback goes on the heap like a :class:`Timeout`, and the
        sequence counter preserves injection order at equal times, so
        callers control same-instant tie-breaking by the order of their
        ``schedule_at`` calls.
        """
        if not time >= self._now:  # also rejects NaN
            raise ValueError(
                f"schedule_at({time}) is in the past (now={self._now})"
            )
        self._schedule_direct(_CallbackShim(callback), time)

    def peek(self) -> float:
        """Time of the next pending event, or ``inf`` if none."""
        if self._lane:
            return self._now
        return self._heap[0][0] if self._heap else _INF

    def _defer_callbacks(self, event: Event, rest: Iterable[Callable]) -> None:
        """Keep the callbacks after one of ``event``'s that raised.

        They go to the front of the lane, so the next dispatch (the next
        :meth:`run`, :meth:`step` or :meth:`run_until_process`) runs
        them at this instant, in order, before anything else.  The entry
        is the rest of one already counted, so it takes no new ``seq``.
        """
        rest = list(rest)
        if rest:
            owner = _DeferredCallbacks(event, rest)
            self._lane.appendleft((self._now, self._seq, None, owner, _SUCCEEDED))

    def _fire(self, event: Event, callbacks: Iterable[Callable]) -> None:
        """Run ``event``'s detached ``callbacks`` (:meth:`_loop` inlines this)."""
        callbacks = iter(callbacks)
        try:
            for callback in callbacks:
                callback(event)
        except BaseException:
            self._defer_callbacks(event, callbacks)
            raise

    def step(self) -> None:
        """Process exactly one event."""
        lane = self._lane
        if lane:
            entry = lane.popleft()
        elif self._heap and self._heap[0][0] < _INF:
            entry = _heappop(self._heap)
            if entry[0] < self._now:
                raise SimulationError("event scheduled in the past (kernel bug)")
            self._now = entry[0]
        else:
            raise SimulationError("step() with nothing that can fire")
        target = entry[2]
        if target is None:
            entry[3]._resume(entry[4])
        else:
            callbacks = target.callbacks
            target.callbacks = None
            self._fire(target, callbacks)

    def run(self, until: Optional[float] = None) -> None:
        """Run until nothing is pending, or the clock reaches ``until``.

        When ``until`` is given, the clock is advanced to exactly
        ``until`` even if the last event fires earlier.  It must be
        finite: an entry at ``inf`` never fires, so no clock reaches it.
        """
        if until is None:
            self._loop(_FOREVER, _NEVER)
            return
        if not until >= self._now:  # also rejects NaN
            raise ValueError(f"until={until} is in the past (now={self._now})")
        if until == _INF:
            raise ValueError(f"until={until} is not finite")
        self._loop(until, _NEVER)
        self._now = until

    def run_until_process(self, process: Process, limit: float = _INF) -> Any:
        """Run until ``process`` completes; return its value.

        Raises the process's exception if it failed, or
        :class:`SimulationError` if nothing that can fire is pending
        (deadlock) or the clock would pass ``limit`` before completion.
        """
        if limit != limit:  # NaN: no event time would ever exceed it
            raise ValueError(f"limit={limit} is not a number")
        # Lane entries are due now and the loop checks only heap entries
        # against the limit, so a limit behind the clock stops here.
        if limit >= self._now:
            self._loop(min(limit, _FOREVER), process)
        if process._ok is None:
            if self.peek() == _INF:
                raise SimulationError(
                    f"deadlock: nothing can fire before process {process.name!r} finished"
                )
            raise SimulationError(
                f"time limit {limit} exceeded waiting for process {process.name!r}"
            )
        return process.value

    def _loop(self, limit: float, stop: Event) -> None:
        """Dispatch entries until ``stop`` triggers, nothing is pending,
        or the next heap entry is due after ``limit``.

        The dispatch is inlined (rather than calling :meth:`step`): it is
        the hottest couple of lines in the entire repository.  Entries are
        never scheduled in the past (delay >= 0 always), so the
        monotonicity check in :meth:`step` is skipped here.
        """
        lane = self._lane
        popleft = lane.popleft
        heap = self._heap
        pop = _heappop
        profiler = self._profiler
        while stop._ok is None:
            if lane:
                # Due now, so never past ``limit``, and the clock stays.
                entry = popleft()
            elif heap:
                # Pop, then push back the one entry past ``limit``: a
                # compare on the popped time costs less per event than
                # peeking at heap[0].  Keys are unique, so the firing
                # order is unchanged.
                entry = pop(heap)
                now = entry[0]
                if now > limit:
                    _heappush(heap, entry)
                    return
                self._now = now
            else:
                return
            if profiler is None:
                target = entry[2]
                if target is None:
                    entry[3]._resume(entry[4])
                else:
                    callbacks = iter(target.callbacks)
                    target.callbacks = None
                    try:
                        for callback in callbacks:
                            callback(target)
                    except BaseException:
                        self._defer_callbacks(target, callbacks)
                        raise
            else:
                profiler.note_heap_depth(len(heap) + len(lane) + 1)  # depth before the pop
                self._dispatch_profiled(entry, profiler)

    # -- profiled dispatch (opt-in; see set_profiler) -----------------------
    def _dispatch_profiled(self, entry: tuple, profiler: Any) -> None:
        """Dispatch one entry, timing it against its callback site."""
        target = entry[2]
        if target is None:
            owner = entry[3]
            began = _perf_counter()
            owner._resume(entry[4])
            elapsed = _perf_counter() - began
            name = getattr(owner, "name", None)
            if name is not None:
                site = "resume:" + name
            else:
                callback = getattr(owner, "_callback", None)
                site = (
                    "call_soon:" + getattr(callback, "__qualname__", "callback")
                    if callback is not None
                    else "resume:" + type(owner).__name__
                )
        else:
            callbacks = target.callbacks
            target.callbacks = None
            kind = type(target).__name__
            if callbacks:
                first = callbacks[0]
                first_owner = getattr(first, "__self__", None)
                if isinstance(first_owner, Process):
                    site = kind + "->" + first_owner.name
                else:
                    site = kind + "->" + getattr(
                        first, "__qualname__", type(first).__name__
                    )
            else:
                site = kind
            began = _perf_counter()
            self._fire(target, callbacks)
            elapsed = _perf_counter() - began
        profiler.record(site, elapsed)


class _CallbackShim:
    """Adapts a zero-argument callback to the direct entry shape."""

    __slots__ = ("_callback",)

    def __init__(self, callback: Callable[[], None]):
        self._callback = callback

    def _resume(self, trigger: Any) -> None:
        self._callback()


class _DeferredCallbacks:
    """Owner of the entry that runs an event's callbacks after one raised."""

    __slots__ = ("event", "callbacks")

    def __init__(self, event: Event, callbacks: List[Callable]):
        self.event = event
        self.callbacks = callbacks

    def _resume(self, trigger: Any) -> None:
        self.event.sim._fire(self.event, self.callbacks)
