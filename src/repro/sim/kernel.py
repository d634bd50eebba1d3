"""Core discrete-event simulation kernel.

A :class:`Simulator` owns a simulated clock and a binary heap of pending
events.  Simulated activities are written as Python generators wrapped in
:class:`Process`; a process advances by yielding :class:`Event` objects
(most commonly :class:`Timeout`) and is resumed when the yielded event
fires.  Events fire in ``(time, priority, sequence)`` order, so the
simulation is deterministic: ties at the same timestamp are broken by
scheduling order.

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
* Process bootstraps, interrupt delivery, and resumption on an
  already-processed event do not allocate throwaway :class:`Event`
  objects.  They push a *direct-resume* heap entry instead —
  ``(time, priority, seq, None, process, ok, value, exception)`` — which
  the run loop dispatches straight into :meth:`Process._resume_direct`.
  Heap entries of both shapes share the ``(time, priority, seq)`` prefix
  and ``seq`` is unique, so tuple comparison never reaches the payload
  and the documented firing order is preserved bit-for-bit.
* :class:`Timeout` schedules itself inline instead of going through the
  generic ``Event`` constructor plus :meth:`Simulator._schedule`.
* A component that pushes the same callback over and over (the LAN's
  flush and completion wake-up) keeps one direct-resume owner and
  pushes it with :meth:`Simulator._schedule_direct`.
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush
from time import perf_counter as _perf_counter
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

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

# Event priorities: URGENT fires before NORMAL at the same timestamp.
# Used internally so that e.g. resource releases propagate before new
# timeouts scheduled at the same instant.
URGENT = 0
NORMAL = 1

_INF = float("inf")


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
        self.sim._schedule(self, URGENT)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to be raised in waiters."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._exception = exception
        self.sim._schedule(self, URGENT)
        return self

    def _resolve(self) -> None:
        """Run callbacks. Called exactly once by the kernel.

        NOTE: the hot loops in :meth:`Simulator.run` and
        :meth:`Simulator.run_until_process` inline this body instead of
        calling it (only :meth:`Simulator.step` dispatches here), so
        subclasses must not override it — an override would only take
        effect under ``step()``.
        """
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "pending"
        if self.processed:
            state = "processed"
        elif self.triggered:
            state = "triggered"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


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
        _heappush(sim._heap, (sim._now + delay, NORMAL, sim._seq, self))


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


class _ProcessDone(Event):
    """Terminal event of a Process; fires with the generator's return value."""

    __slots__ = ()


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
        # Bootstrap: resume immediately (at current sim time) via a
        # direct-resume heap entry (no throwaway Event).
        sim._schedule_resume(self, True, None, None)

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
        self.sim._schedule_resume(self, False, None, Interrupt(cause))

    # NOTE: _resume and _resume_direct share one body, duplicated on
    # purpose — this is the innermost step of every simulation and a
    # delegation call per event costs ~5%.  Keep the two in sync.
    def _resume(self, trigger: Event) -> None:
        """Advance the generator with ``trigger``'s outcome (callback form)."""
        if self._ok is not None:
            # Process was already finished (e.g. interrupted and completed
            # before a stale event fired); drop the wakeup.
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
        if callbacks is None:
            # Already processed: resume at the same timestamp via a
            # direct-resume entry (no throwaway Event allocation).
            self._target = next_event
            sim._schedule_resume(
                self, next_event._ok, next_event._value, next_event._exception
            )
        else:
            self._target = next_event
            callbacks.append(self._resume_cb)

    def _resume_direct(
        self, ok: Optional[bool], value: Any, exception: Optional[BaseException]
    ) -> None:
        """Advance the generator by one step with the given outcome."""
        if self._ok is not None:
            # Stale wakeup (see _resume): drop it.
            return
        self._target = None
        sim = self.sim
        sim._active_process = self
        try:
            if exception is not None:
                next_event = self._generator.throw(exception)
            else:
                next_event = self._generator.send(value)
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
        if callbacks is None:
            self._target = next_event
            sim._schedule_resume(
                self, next_event._ok, next_event._value, next_event._exception
            )
        else:
            self._target = next_event
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
    """Owns the simulated clock and the pending-event heap.

    Heap entries come in two shapes sharing the ``(time, priority, seq)``
    prefix (``seq`` is unique, so comparisons never reach the payload):

    * ``(time, priority, seq, event)`` — a triggered :class:`Event`
      whose callbacks run at ``time``.
    * ``(time, priority, seq, None, process, ok, value, exception)`` — a
      direct resume of ``process`` with the given outcome.

    An exception escaping a process generator fails the Process event,
    and every process (or condition) waiting on it receives it.  A
    failure that nobody is waiting on is re-raised out of :meth:`run`,
    :meth:`run_until_process` or :meth:`step`, so it is never dropped.
    "Waiting" is judged when the process fails, so a parent joining
    several children in turn has them return expected errors instead.
    """

    def __init__(self):
        self._now: float = 0.0
        self._heap: List[tuple] = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        # Opt-in kernel profiler (duck-typed; see repro.obs.profiler).
        # When None — the default — run()/run_until_process() take the
        # allocation-free branch of their dispatch loops.
        self._profiler: Optional[Any] = None

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def events_scheduled(self) -> int:
        """Total heap entries ever scheduled (events, resumes, callbacks).

        This is the kernel-cost yardstick the hybrid-fidelity benches
        report: it counts every entry pushed onto the event heap over the
        simulator's lifetime, at zero extra cost (it *is* the sequence
        counter that orders same-instant ties).
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
        observability imports.  With a profiler installed, ``run()`` and
        ``run_until_process()`` dispatch every event through
        :meth:`_dispatch_profiled`, which times its callback site; the
        profiler only *measures* (wall clock, heap depth), so simulation
        results are bit-identical either way.  ``step()`` is never
        profiled.
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
    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        self._seq += 1
        _heappush(self._heap, (self._now + delay, priority, self._seq, event))

    def _schedule_resume(
        self,
        process: Process,
        ok: Optional[bool],
        value: Any,
        exception: Optional[BaseException],
    ) -> None:
        """Schedule a direct resume of ``process`` at the current instant."""
        self._seq += 1
        _heappush(
            self._heap, (self._now, URGENT, self._seq, None, process, ok, value, exception)
        )

    def _schedule_direct(
        self, owner: Any, priority: int, delay: float = 0.0, value: Any = None
    ) -> None:
        """Schedule ``owner._resume_direct(True, value, None)`` ``delay`` from now.

        The entry takes the next sequence number and the same
        ``now + delay`` time as a :class:`Timeout` or :meth:`call_soon`
        created at this point, so it sorts exactly where they would.
        Hot-path components (the LAN's flush and completion wake-up)
        keep one ``owner`` for their lifetime instead of allocating an
        event or shim per push.
        """
        self._seq += 1
        _heappush(
            self._heap, (self._now + delay, priority, self._seq, None, owner, True, value, None)
        )

    def call_soon(self, callback: Callable[[], None]) -> None:
        """Run ``callback()`` at the current instant with URGENT priority.

        The callback fires in ``(time, priority, sequence)`` order like
        any event, after everything urgent already scheduled.  Lets a
        component coalesce several same-instant mutations into one pass
        (the LAN's batched rate recomputation does this through
        :meth:`_schedule_direct` with an owner it reuses).
        """
        self._schedule_direct(_CallbackShim(callback), URGENT)

    def schedule_at(
        self, time: float, callback: Callable[[], None], priority: int = NORMAL
    ) -> None:
        """Run ``callback()`` at absolute simulated time ``time``.

        The pause/resume hook for sub-kernel drivers: ``run(until=H)``
        parks the simulator exactly at horizon ``H`` (events beyond it
        stay on the heap), and ``schedule_at`` injects externally-sourced
        work — cross-shard message deliveries, epoch-barrier callbacks —
        at its exact timestamp before the next ``run(until=...)`` leg.
        Injection order at equal ``(time, priority)`` is preserved by the
        sequence counter, so callers control same-instant tie-breaking by
        the order of their ``schedule_at`` calls.
        """
        if not time >= self._now:  # also rejects NaN
            raise ValueError(
                f"schedule_at({time}) is in the past (now={self._now})"
            )
        self._seq += 1
        _heappush(
            self._heap,
            (time, priority, self._seq, None, _CallbackShim(callback), True, None, None),
        )

    def peek(self) -> float:
        """Time of the next pending event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        if not self._heap:
            raise SimulationError("step() on an empty event heap")
        entry = _heappop(self._heap)
        if entry[0] < self._now:
            raise SimulationError("event scheduled in the past (kernel bug)")
        self._now = entry[0]
        target = entry[3]
        if target is None:
            entry[4]._resume_direct(entry[5], entry[6], entry[7])
        else:
            target._resolve()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains, or the clock reaches ``until``.

        When ``until`` is given, the clock is advanced to exactly
        ``until`` even if the last event fires earlier.
        """
        # The heap-pop loop is inlined (rather than calling step()) — it
        # is the hottest couple of lines in the entire repository.
        # Events cannot be scheduled in the past (delay >= 0 always), so
        # the monotonicity assertion in step() is skipped here.
        if until is None:
            limit = _INF
        elif not until >= self._now:  # also rejects NaN
            raise ValueError(f"until={until} is in the past (now={self._now})")
        else:
            limit = until
        heap = self._heap
        pop = _heappop
        profiler = self._profiler
        while heap:
            # Pop, then push back the one entry past ``until``: a compare
            # on the popped time costs less per event than peeking at
            # heap[0].  Keys are unique, so the firing order is unchanged.
            entry = pop(heap)
            now = entry[0]
            if now > limit:
                _heappush(heap, entry)
                break
            self._now = now
            if profiler is None:
                target = entry[3]
                if target is None:
                    entry[4]._resume_direct(entry[5], entry[6], entry[7])
                else:
                    callbacks = target.callbacks
                    target.callbacks = None
                    for callback in callbacks:
                        callback(target)
            else:
                profiler.note_heap_depth(len(heap) + 1)  # depth before the pop
                self._dispatch_profiled(entry, profiler)
        if until is not None:
            self._now = until

    def run_until_process(self, process: Process, limit: float = _INF) -> Any:
        """Run until ``process`` completes; return its value.

        Raises the process's exception if it failed, or
        :class:`SimulationError` if the heap drains (deadlock) or the
        clock passes ``limit`` before completion.
        """
        if limit != limit:  # NaN: no event time would ever exceed it
            raise ValueError(f"limit={limit} is not a number")
        heap = self._heap
        pop = _heappop
        profiler = self._profiler
        while process._ok is None:
            if not heap:
                raise SimulationError(
                    f"deadlock: heap drained before process {process.name!r} finished"
                )
            if heap[0][0] > limit:
                raise SimulationError(
                    f"time limit {limit} exceeded waiting for process {process.name!r}"
                )
            if profiler is None:
                entry = pop(heap)
                self._now = entry[0]
                target = entry[3]
                if target is None:
                    entry[4]._resume_direct(entry[5], entry[6], entry[7])
                else:
                    callbacks = target.callbacks
                    target.callbacks = None
                    for callback in callbacks:
                        callback(target)
            else:
                profiler.note_heap_depth(len(heap))
                entry = pop(heap)
                self._now = entry[0]
                self._dispatch_profiled(entry, profiler)
        return process.value

    # -- profiled dispatch (opt-in; see set_profiler) -----------------------
    def _dispatch_profiled(self, entry: tuple, profiler: Any) -> None:
        """Dispatch one heap entry, timing it against its callback site."""
        target = entry[3]
        if target is None:
            owner = entry[4]
            began = _perf_counter()
            owner._resume_direct(entry[5], entry[6], entry[7])
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
            for callback in callbacks:
                callback(target)
            elapsed = _perf_counter() - began
        profiler.record(site, elapsed)


class _CallbackShim:
    """Adapts a zero-argument callback to the direct-resume entry shape."""

    __slots__ = ("_callback",)

    def __init__(self, callback: Callable[[], None]):
        self._callback = callback

    def _resume_direct(self, ok: Any, value: Any, exception: Any) -> None:
        self._callback()
