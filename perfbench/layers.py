"""Per-layer host-time split for the traced benchmark run.

Two sources feed one exclusive-time ledger (:class:`LayerClock`):

* **timing wrappers** the benchmark installs around each layer's public
  entry points (``Simulator.run``, ``LAN.transfer``, ``ServiceSwitch.serve``,
  ...).  A wrapper charges the host time spent inside it, minus the time
  of any nested wrapper, to its layer.  Generator entry points are timed
  per resumption, so a suspended process costs nothing.
* the program's public :class:`~repro.obs.profiler.KernelProfiler`.  The
  kernel's profiled loop reports every dispatched heap entry with its
  callback site and wall time; the part of that wall time not already
  charged to a nested wrapper moves from ``sim.kernel`` to the layer the
  site maps to (:data:`SITE_RULES`).

Every interval between two clock readings is charged to exactly one
layer; the benchmark's own code between program calls is charged to
``bench`` and left out, so the parts sum to the host time spent inside
program calls.  What neither a wrapper nor the site map claims lands in
``unattributed``.

All times here are host seconds (the simulator's wall clock), never
simulated seconds.
"""

from __future__ import annotations

import functools
import re
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.profiler import KernelProfiler

KERNEL = "sim.kernel"
UNATTRIBUTED = "unattributed"
BENCH = "bench"  # the benchmark's own code; not part of the split

#: Every layer the split reports, named after the repository's modules.
#: ``harness`` is the scenario/chaos/federation/scheduler driver code the
#: benchmark calls (``scenario/run.py``, ``faults/chaos.py``, ...).
LAYERS = (
    KERNEL,
    "net.lan",
    "core.switch",
    "core.control",
    "scenario.compile",
    "sla.enforcement",
    "market.pricing",
    "faults",
    "sim.fluid",
    "sim.parallel",
    "host.scheduler",
    "harness",
    UNATTRIBUTED,
)

#: Kernel profiler site -> layer.  A site is ``resume:<process>``,
#: ``call_soon:<qualname>``, ``<EventType>-><process or qualname>`` or a
#: bare event type; the rules match the part after the prefix, first
#: match wins.
SITE_RULES: Tuple[Tuple[str, str], ...] = (
    (r"^LAN\.", "net.lan"),
    (r"^(serve|attempt):", "core.switch"),
    (r"^batch:[^:]+:", "core.switch"),  # dispatch-batching coalescer
    (r"^(create|prime|teardown|boot)", "core.control"),
    (r"^(health|watchdog|fault):", "faults"),
    (r"^scenario-spot", "market.pricing"),
    (r"^(fluid|batch:|fluid-background)", "sim.fluid"),
    (r"^(ClusterShard\.|geo:|place:)", "sim.parallel"),
    (r"^(req|drive|post):", "harness"),
    (r"^(AnyOf|AllOf)\._check", KERNEL),  # composite events of sim/kernel.py
    (r"^(Process|Event|Timeout|AnyOf|AllOf|_Request|Initialize)$", KERNEL),
)
_COMPILED_RULES = tuple((re.compile(p), layer) for p, layer in SITE_RULES)
_SITE_PREFIX = re.compile(r"^(resume:|call_soon:|[A-Za-z_]+->)")


def layer_of_site(site: str) -> str:
    """The layer a kernel profiler site belongs to (``unattributed`` if none)."""
    rest = _SITE_PREFIX.sub("", site, count=1)
    for pattern, layer in _COMPILED_RULES:
        if pattern.search(rest):
            return layer
    return UNATTRIBUTED


class LayerClock:
    """Exclusive host-time ledger over a stack of active layers."""

    def __init__(self) -> None:
        self.parts: Dict[str, float] = {layer: 0.0 for layer in LAYERS + (BENCH,)}
        self.calls: Dict[str, int] = {}
        self._stack: List[str] = [BENCH]
        self._last = 0.0
        self._outside_kernel = 0.0  # cumulative time charged to non-kernel layers
        self._mark = 0.0

    def _charge(self, now: float) -> None:
        layer = self._stack[-1]
        elapsed = now - self._last
        self.parts[layer] += elapsed
        if layer != KERNEL:
            self._outside_kernel += elapsed
        self._last = now

    def start(self) -> None:
        self._last = perf_counter()

    def stop(self) -> None:
        self._charge(perf_counter())

    def program_parts(self) -> Dict[str, float]:
        """Host seconds per layer, without the benchmark's own code."""
        return {layer: self.parts[layer] for layer in LAYERS}

    def enter(self, layer: str) -> None:
        self._charge(perf_counter())
        self._stack.append(layer)
        if layer == KERNEL:
            self._mark = self._outside_kernel

    def exit(self) -> None:
        self._charge(perf_counter())
        self._stack.pop()

    def take_nested(self) -> float:
        """Time charged outside the kernel since the last call."""
        nested = self._outside_kernel - self._mark
        self._mark = self._outside_kernel
        return nested

    def transfer(self, src: str, dst: str, seconds: float) -> None:
        self.parts[src] -= seconds
        self.parts[dst] += seconds


class LayerProfiler(KernelProfiler):
    """A kernel profiler that also moves each dispatch's own time to its layer."""

    def __init__(self, clock: LayerClock):
        super().__init__()
        self.clock = clock
        self._layers: Dict[str, str] = {}

    def record(self, site: str, wall_s: float) -> None:
        super().record(site, wall_s)
        layer = self._layers.get(site)
        if layer is None:
            layer = self._layers[site] = layer_of_site(site)
        residual = wall_s - self.clock.take_nested()
        if layer != KERNEL:
            self.clock.transfer(KERNEL, layer, residual)


def _timed_generator(clock: LayerClock, layer: str, gen):
    """Drive ``gen``, charging each resumption (not each wait) to ``layer``."""
    value, error = None, None
    while True:
        clock.enter(layer)
        try:
            item = gen.send(value) if error is None else gen.throw(error)
        except StopIteration as stop:
            clock.exit()
            return stop.value
        except BaseException:
            clock.exit()
            raise
        clock.exit()
        value, error = None, None
        try:
            value = yield item
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # delivered into the wrapped generator
            error = exc


class Patches:
    """Class-attribute timing wrappers, installed for one traced pass."""

    def __init__(self, clock: LayerClock):
        self.clock = clock
        self._saved: List[Tuple[type, str, object]] = []
        #: Instances seen by a wrapper, by key (switches, sims, checkers...).
        self.seen: Dict[str, Dict[int, object]] = {}

    def _note(self, key: Optional[str], obj) -> None:
        if key is not None:
            self.seen.setdefault(key, {})[id(obj)] = obj

    def instances(self, key: str) -> List[object]:
        return list(self.seen.get(key, {}).values())

    def _count(self, name: str) -> None:
        calls = self.clock.calls
        calls[name] = calls.get(name, 0) + 1

    def wrap(self, cls: type, attr: str, layer: str, collect: Optional[str] = None) -> None:
        """Time ``cls.attr`` (a plain method) as ``layer``."""
        original = getattr(cls, attr)
        clock, count, note, name = self.clock, self._count, self._note, f"{cls.__name__}.{attr}"

        @functools.wraps(original)
        def wrapper(self_, *args, **kwargs):
            count(name)
            note(collect, self_)
            clock.enter(layer)
            try:
                return original(self_, *args, **kwargs)
            finally:
                clock.exit()

        self._saved.append((cls, attr, original))
        setattr(cls, attr, wrapper)

    def wrap_generator(
        self, cls: type, attr: str, layer: str, collect: Optional[str] = None
    ) -> None:
        """Time ``cls.attr`` (a generator method) per resumption as ``layer``."""
        original = getattr(cls, attr)
        clock, count, note, name = self.clock, self._count, self._note, f"{cls.__name__}.{attr}"

        @functools.wraps(original)
        def wrapper(self_, *args, **kwargs):
            count(name)
            note(collect, self_)
            inner = original(self_, *args, **kwargs)
            outer = _timed_generator(clock, layer, inner)
            outer.__name__ = inner.__name__  # unnamed processes keep their name
            return outer

        self._saved.append((cls, attr, original))
        setattr(cls, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            cls, attr, original = self._saved.pop()
            setattr(cls, attr, original)


def install_program_wrappers(patches: Patches) -> None:
    """Wrap the public entry points of every discrete-path layer."""
    from repro.core.agent import SODAAgent
    from repro.core.api import HUPTestbed
    from repro.core.recovery import NodeWatchdog
    from repro.core.switch import ServiceSwitch
    from repro.faults.health import SwitchHealthChecker
    from repro.faults.injector import FaultInjector
    from repro.host.scheduler import ProportionalShareScheduler, VanillaLinuxScheduler
    from repro.market.pricing import SpotPricer
    from repro.net.lan import LAN
    from repro.sim.kernel import Simulator
    from repro.sla.enforcement import ClassPriorityShedder

    patches.wrap(Simulator, "run", KERNEL, collect="sim")
    patches.wrap(Simulator, "run_until_process", KERNEL, collect="sim")
    patches.wrap(LAN, "transfer", "net.lan")
    patches.wrap_generator(ServiceSwitch, "serve", "core.switch", collect="switch")
    patches.wrap_generator(SODAAgent, "service_creation", "core.control")
    for attr in ("__init__", "add_host", "finalize", "add_repository"):
        patches.wrap(HUPTestbed, attr, "core.control")
    patches.wrap(ClassPriorityShedder, "should_shed", "sla.enforcement")
    patches.wrap(SpotPricer, "tick", "market.pricing")
    patches.wrap(FaultInjector, "arm", "faults")
    patches.wrap_generator(NodeWatchdog, "watch", "faults")
    patches.wrap_generator(SwitchHealthChecker, "run", "faults", collect="checker")
    for cls in (VanillaLinuxScheduler, ProportionalShareScheduler):
        patches.wrap(cls, "run", "host.scheduler")


def timed_call(clock: LayerClock, layer: str, fn: Callable, *args, **kwargs):
    """A benchmark-side span: charge ``fn(*args, **kwargs)`` to ``layer``."""
    clock.enter(layer)
    try:
        return fn(*args, **kwargs)
    finally:
        clock.exit()


def federation_split(run, wall_s: float) -> Dict[str, float]:
    """Layer split of a federated run from its per-shard kernel profiles.

    Shards run in worker processes, so their sites are summed across
    shards and projected onto the wall clock by the measured ratio of
    the epoch critical path to total worker busy time.  Worker time
    outside any dispatch goes to ``sim.kernel``; coordinator time off
    the critical path (fork, pipes, barrier waits) goes to
    ``sim.parallel``.  The parts sum to ``wall_s``.
    """
    parts = {layer: 0.0 for layer in LAYERS}
    dispatched = 0.0
    for profile in run.observability.kernel_profiles.values():
        for site, stats in profile["sites"].items():
            parts[layer_of_site(site)] += stats["wall_s"]
            dispatched += stats["wall_s"]
    busy = sum(run.worker_busy_s)
    share = run.critical_path_s / busy if busy > 0 else 0.0
    for layer in LAYERS:
        parts[layer] *= share
    parts[KERNEL] += (busy - dispatched) * share
    parts["sim.parallel"] += wall_s - run.critical_path_s
    return parts
