"""The event kernel against a plain reference simulator, event for event.

``Simulator`` is hand-inlined for speed: two heap-entry shapes, a run
loop per entry point and a profiled dispatch branch.  ``RefSimulator``
below states the same documented semantics with none of that: one heap
ordered by ``(time, priority, seq)``, one entry shape (a zero-argument
action), and one dispatch, :meth:`RefSimulator._step`.

* Same-instant entries fire in ``(time, priority, seq)`` order; URGENT
  (triggered events, bootstraps, resumes, interrupts, ``call_soon``)
  before NORMAL (timeouts).
* A process resumes when the event it yielded is processed, or at once
  (as a new URGENT entry) if that event was already processed.
* ``interrupt`` detaches the process from a pending event and queues an
  URGENT ``Interrupt``; a wake-up that reaches a finished process is
  dropped (the stale wake-up).
* A process failure reaches its waiters; one nobody waits on when it
  fails escapes ``run()``.  So does a non-event yield.
* ``AnyOf``/``AllOf`` consume already-processed constituents at once.

A hypothesis strategy builds random process programs.  Each program runs
on both simulators through every entry point of the kernel, and the two
``(time, process, action, value)`` logs, final clocks and heap-push
counts must be equal.
"""

import heapq
import math
from functools import partial

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.profiler import KernelProfiler
from repro.sim.kernel import NORMAL, URGENT, Interrupt, SimulationError, Simulator


class RefEvent:
    def __init__(self, sim):
        self.sim = sim
        self.callbacks = []
        self.ok = None
        self.outcome = None
        self.error = None

    @property
    def triggered(self):
        return self.ok is not None

    @property
    def processed(self):
        return self.callbacks is None

    @property
    def value(self):
        if self.error is not None:
            raise self.error
        return self.outcome

    def succeed(self, value=None, delay=0.0, priority=URGENT):
        self._trigger(True, value, None, delay, priority)
        return self

    def fail(self, error):
        self._trigger(False, None, error, 0.0, URGENT)
        return self

    def _trigger(self, ok, value, error, delay, priority):
        if self.ok is not None:
            raise SimulationError("event already triggered")
        self.ok, self.outcome, self.error = ok, value, error
        self.sim._push(self.sim.now + delay, priority, self._fire)

    def _fire(self):
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)


class RefCondition(RefEvent):
    def __init__(self, sim, events, need_all):
        super().__init__(sim)
        self.events, self.need_all = tuple(events), need_all
        self.pending = len(self.events)
        for event in self.events:
            if event.processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)
        if not self.events and self.ok is None:
            self.succeed({})

    def _check(self, event):
        if self.ok is not None:
            return
        if not event.ok:
            self.fail(event.error)
            return
        self.pending -= 1
        if self.pending == 0 or not self.need_all:
            self.succeed({e: e.outcome for e in self.events if e.processed and e.ok})


class RefProcess(RefEvent):
    def __init__(self, sim, generator, name):
        super().__init__(sim)
        self.generator, self.name, self.target = generator, name, None
        sim._push(sim.now, URGENT, partial(self._resume, None, None))

    @property
    def is_alive(self):
        return self.ok is None

    def interrupt(self, cause=None):
        if self.ok is not None:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        if self.target is not None and self.target.callbacks is not None:
            if self._wake in self.target.callbacks:
                self.target.callbacks.remove(self._wake)
        self.target = None
        self.sim._push(self.sim.now, URGENT, partial(self._resume, None, Interrupt(cause)))

    def _wake(self, event):
        self._resume(event.outcome, event.error)

    def _resume(self, value, error):
        if self.ok is not None:
            return  # the stale wake-up of a finished process
        self.target = None
        try:
            if error is not None:
                yielded = self.generator.throw(error)
            else:
                yielded = self.generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Exception as exc:
            unawaited = not self.callbacks
            self.fail(exc)
            if unawaited:
                raise
            return
        if not isinstance(yielded, RefEvent):
            error = SimulationError(f"process {self.name!r} yielded non-event {yielded!r}")
            self.generator.close()
            self.fail(error)
            raise error
        self.target = yielded
        if yielded.processed:
            self.sim._push(self.sim.now, URGENT, partial(self._wake, yielded))
        else:
            yielded.callbacks.append(self._wake)


class RefSimulator:
    def __init__(self):
        self.now = 0.0
        self.heap = []
        self.events_scheduled = 0

    def _push(self, time, priority, action):
        self.events_scheduled += 1
        heapq.heappush(self.heap, (time, priority, self.events_scheduled, action))

    def _step(self):
        time, _, _, action = heapq.heappop(self.heap)
        self.now = time
        action()

    def event(self):
        return RefEvent(self)

    def timeout(self, delay, value=None):
        return RefEvent(self).succeed(value, delay, NORMAL)

    def process(self, generator, name=""):
        return RefProcess(self, generator, name)

    def any_of(self, events):
        return RefCondition(self, events, need_all=False)

    def all_of(self, events):
        return RefCondition(self, events, need_all=True)

    def call_soon(self, callback):
        self._push(self.now, URGENT, callback)

    def schedule_at(self, time, callback, priority=NORMAL):
        self._push(time, priority, callback)

    def peek(self):
        return self.heap[0][0] if self.heap else math.inf

    def step(self):
        if not self.heap:
            raise SimulationError("step() on an empty event heap")
        self._step()

    def run(self, until=None):
        while self.heap and (until is None or self.heap[0][0] <= until):
            self._step()
        if until is not None:
            self.now = until

    def run_until_process(self, process, limit=math.inf):
        while process.ok is None:
            if not self.heap:
                raise SimulationError("deadlock")
            if self.heap[0][0] > limit:
                raise SimulationError("time limit exceeded")
            self._step()
        return process.value


# -- random process programs --------------------------------------------------

# A program is plain data, interpreted against either simulator.  Indices
# (events, children, interrupt targets) are taken modulo what exists.
_DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0])
_ACTION = st.one_of(
    st.none(),
    st.tuples(st.just("fire"), st.integers(0, 3), st.booleans()),
    st.tuples(st.just("interrupt"), st.integers(0, 7)),
)
_OP = st.one_of(
    st.tuples(st.just("sleep"), _DELAYS),
    st.tuples(st.just("wait"), st.integers(0, 3)),
    st.tuples(st.just("again")),
    st.tuples(st.just("fire"), st.integers(0, 3), st.booleans()),
    st.tuples(
        st.sampled_from(["any", "all"]),
        st.lists(st.one_of(_DELAYS, st.integers(0, 3)), max_size=3),
    ),
    st.tuples(st.just("spawn"), st.integers(0, 2), st.booleans()),
    st.tuples(st.just("interrupt"), st.integers(0, 7)),
    st.tuples(st.just("soon"), _ACTION),
    st.tuples(st.just("at"), _DELAYS, st.sampled_from([URGENT, NORMAL]), _ACTION),
    st.tuples(st.just("raise")),
    st.tuples(st.just("junk")),
)
_OPS = st.lists(_OP, max_size=6)
PROGRAMS = st.fixed_dictionaries(
    {
        "events": st.integers(1, 4),
        "roots": st.lists(_OPS, min_size=1, max_size=4),
        "children": st.lists(_OPS, min_size=1, max_size=3),
    }
)
DRIVES = st.one_of(
    st.tuples(st.sampled_from(["run", "step"])),
    st.tuples(
        st.just("legs"),
        st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.5]), min_size=1, max_size=3),
        st.lists(st.tuples(_DELAYS, st.sampled_from([URGENT, NORMAL])), max_size=2),
    ),
    st.tuples(st.just("until_process"), st.sampled_from([math.inf, 0.0, 1.0, 2.5])),
)


def describe(exc):
    """A simulator-independent name for an exception."""
    if isinstance(exc, Interrupt):
        return ("Interrupt", exc.cause)
    if isinstance(exc, SimulationError):
        return ("SimulationError",)
    return (type(exc).__name__,) + exc.args


class Interpreter:
    """Runs one program on one simulator and logs what happens."""

    def __init__(self, sim, program):
        self.sim, self.program = sim, program
        self.log = []
        self.labels = {}
        self.events = [self.label(sim.event(), f"e{k}") for k in range(program["events"])]
        self.processes = []
        for index, ops in enumerate(program["roots"]):
            self.start(ops, f"p{index}", depth=0)

    def label(self, event, name):
        self.labels[event] = name
        return event

    def note(self, who, action, value=None):
        self.log.append((self.sim.now, who, action, value))

    def outcome(self, value):
        if isinstance(value, dict):  # a condition's {event: value} map
            return sorted((self.labels[event], v) for event, v in value.items())
        return value

    def start(self, ops, name, depth):
        process = self.sim.process(self.body(ops, name, depth), name=name)
        self.processes.append(self.label(process, name))
        return process

    def body(self, ops, name, depth):
        self.note(name, "start")
        last = None
        for index, op in enumerate(ops):
            if op[0] == "raise":
                raise RuntimeError(name)
            if op[0] == "junk":
                yield 42
            try:
                yielded = self.waitable(op, name, index, depth, last)
                if yielded is not None:
                    last = yielded
                    self.note(name, "woke", self.outcome((yield yielded)))
            except Exception as exc:  # an Interrupt, or a failure delivered to us
                self.note(name, "caught", describe(exc))
        return name

    def waitable(self, op, name, index, depth, last):
        """Carry out ``op``; return the event to wait on, if any."""
        sim, kind = self.sim, op[0]
        if kind == "sleep":
            return self.label(sim.timeout(op[1], f"{name}.{index}"), f"{name}.{index}")
        if kind == "wait":
            return self.events[op[1] % len(self.events)]
        if kind == "again":
            return last if last is not None else sim.timeout(0.0)
        if kind in ("any", "all"):
            parts = [
                self.events[p % len(self.events)]
                if isinstance(p, int)
                else self.label(sim.timeout(p, f"{name}.{index}.{i}"), f"{name}.{index}.{i}")
                for i, p in enumerate(op[1])
            ]
            return sim.any_of(parts) if kind == "any" else sim.all_of(parts)
        if kind == "spawn":
            if depth >= 2:
                self.note(name, "no-spawn")
                return None
            child = op[1] % len(self.program["children"])
            process = self.start(self.program["children"][child], f"{name}/c{child}", depth + 1)
            return process if op[2] else None
        if kind == "soon":
            sim.call_soon(partial(self.callback, f"{name}.{index}", op[1]))
        elif kind == "at":
            callback = partial(self.callback, f"{name}.{index}", op[3])
            sim.schedule_at(sim.now + op[1], callback, op[2])
        else:
            self.act(name, op)
        return None

    def act(self, who, action):
        if action[0] == "fire":
            event = self.events[action[1] % len(self.events)]
            if not event.triggered:
                self.note(who, "fire", self.labels[event])
                event.succeed(who) if action[2] else event.fail(RuntimeError(self.labels[event]))
        elif action[0] == "interrupt":
            target = self.processes[action[1] % len(self.processes)]
            self.note(who, "interrupt", target.name)
            target.interrupt(who)

    def callback(self, tag, action):
        self.note(tag, "callback")
        if action is not None:
            self.act(tag, action)

    def attempt(self, call):
        """``call()`` until no process failure escapes it; log each escape."""
        for _ in range(100):
            try:
                return call()
            except Exception as exc:
                self.note("run", "escape", describe(exc))
        raise AssertionError("more escapes than the program can produce")

    def drive(self, drive):
        sim, mode = self.sim, drive[0]
        if mode == "step":
            while sim.peek() < math.inf:
                try:
                    sim.step()
                except Exception as exc:
                    self.note("run", "escape", describe(exc))
        elif mode == "legs":
            injections = drive[2] + [(None, None)] * len(drive[1])
            for horizon, (delay, priority) in zip(sorted(drive[1]), injections):
                self.attempt(partial(sim.run, until=max(horizon, sim.now)))
                self.note("run", "leg")
                if delay is not None:
                    callback = partial(self.callback, "inject", None)
                    sim.schedule_at(sim.now + delay, callback, priority)
        elif mode == "until_process":
            self.join(self.processes[0], drive[1])
        self.attempt(sim.run)
        return self.log, sim.now, sim.events_scheduled

    def join(self, process, limit):
        """``run_until_process`` until it returns or cannot get further."""
        while True:
            try:
                self.note("run", "joined", self.sim.run_until_process(process, limit))
                return
            except Exception as exc:
                self.note("run", "escape", describe(exc))
            upcoming = self.sim.peek()
            if not process.is_alive or upcoming == math.inf or upcoming > limit:
                return


def both(program, drive, profiled=False):
    """The outcome of ``program`` on the kernel and on the reference."""
    sim = Simulator()
    if profiled:
        KernelProfiler().install(sim)
    real = Interpreter(sim, program).drive(drive)
    reference = Interpreter(RefSimulator(), program).drive(drive)
    return real, reference


# Hand-built programs that reach the cases random search finds rarely.
# p0 fires e0, then re-yields its processed timeout (a direct resume at
# t=0); p1, woken by e0 just before that resume fires, interrupts p0,
# which has finished by the time the interrupt lands (the stale wake-up).
STALE_INTERRUPT = {
    "events": 1,
    "roots": [
        [("sleep", 0.0), ("fire", 0, True), ("again",)],
        [("wait", 0), ("interrupt", 0)],
    ],
    "children": [[]],
}
# Every scheduling path at one instant, with a schedule_at in the future.
SAME_INSTANT = {
    "events": 2,
    "roots": [
        [("soon", None), ("at", 0.0, NORMAL, None), ("sleep", 0.0), ("fire", 0, True)],
        [("at", 1.0, URGENT, ("fire", 1, False)), ("wait", 0), ("spawn", 0, False)],
        [("any", [1, 2.0]), ("all", [0, 0.5])],
    ],
    "children": [[("sleep", 0.0), ("interrupt", 2), ("raise",)]],
}


@settings(deadline=None)
@given(program=PROGRAMS, drive=DRIVES, profiled=st.booleans())
@example(program=STALE_INTERRUPT, drive=("run",), profiled=False)
@example(program=SAME_INSTANT, drive=("run",), profiled=True)
@example(program=SAME_INSTANT, drive=("legs", [0.5, 1.0], [(0.5, NORMAL)]), profiled=False)
def test_kernel_matches_reference_event_for_event(program, drive, profiled):
    real, reference = both(program, drive, profiled)
    assert real == reference


def test_hand_built_programs_reach_their_cases():
    (log, _, _), _ = both(STALE_INTERRUPT, ("run",))
    assert (0.0, "p1", "interrupt", "p0") in log
    assert not any(entry[0:3] == (0.0, "p0", "caught") for entry in log)
    (log, now, _), _ = both(SAME_INSTANT, ("legs", [0.5, 1.0], [(0.5, NORMAL)]))
    actions = {entry[2] for entry in log}
    assert {"callback", "fire", "interrupt", "caught", "escape", "leg", "woke"} <= actions
    assert now == 2.0
