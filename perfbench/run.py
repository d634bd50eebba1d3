"""End-to-end benchmark of the SODA simulator.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scenario-contended --seed 3 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics (host time per pass, set-up
time, peak memory, simulated throughput, failure share and response
time); ``--trace 1`` prints the per-layer metrics of a separate traced
run.  Host times are host (wall-clock) seconds of the simulator; ``run_s``
and ``setup_s`` are scaled to the reference host speed by a calibration
loop timed around each sample (see "Host noise" in README.md).  Values
in ``sim_s`` are simulated seconds of the modelled platform.

Every run checks the simulated outputs: per-cell conservation, identical
digests on every pass, a digest recorded in ``references.json`` for the
seed (when there is one), 1-worker parity on ``federation-fleet`` and no
dropped or open spans on ``chaos-observed``.  A pass that fails a check
is counted as failed, is not timed, and the command exits non-zero.

The last line of standard output is the result object; the line before
it is a manifest naming the source, interpreter, cores, seed and
workload parameters.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import heapq
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")

if not os.path.isdir(os.path.join(SOURCE, "repro")):
    sys.stderr.write(f"perfbench: no program source under {SOURCE}; nothing to measure\n")
    sys.exit(2)
sys.path[:0] = [SOURCE, HERE]

import layers  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    ChaosObserved,
    FederationFleet,
    ScenarioContended,
    Workload,
    aggregate,
    sha,
    workload,
)

REFERENCES = os.path.join(HERE, "references.json")
SETUP_PROBES = 7
MIN_TIMED_PASSES = 3

#: Host seconds ``calibration_s`` takes on the reference host (2-vCPU
#: Xeon VM, Python 3.11) in its fast phase; see "Host noise" in README.md.
CALIBRATION_REFERENCE_S = 0.0165

#: end-to-end metric -> unit (host ``s``; simulated ``sim_s``)
END_TO_END = {
    "run_s": "s",
    "sim_req_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: simulated outcomes, exact for a seed (unchanged by a pure speed-up)
SIM_OUTCOMES = {
    "sim_fail_frac": "ratio",
    "sim_mean_response_s": "sim_s",
}

#: layer -> per-layer self-time metric (host seconds per traced pass)
SELF_TIME = {
    layers.KERNEL: "kernel.self_s",
    "net.lan": "lan.self_s",
    "core.switch": "switch.self_s",
    "core.control": "control.service_creation_s",
    "scenario.compile": "scenario.compile_s",
    "sla.enforcement": "sla.self_s",
    "market.pricing": "market.self_s",
    "faults": "faults.self_s",
    "sim.fluid": "fluid.self_s",
    "sim.parallel": "parallel.self_s",
    "host.scheduler": "scheduler.self_s",
    "harness": "harness.self_s",
    layers.UNATTRIBUTED: "unattributed_s",
}

#: per-layer metric -> unit
PER_LAYER = {
    **SIM_OUTCOMES,
    "trace.wall_s": "s",
    "trace.overhead_x": "x",
    **{name: "s" for name in SELF_TIME.values()},
    "kernel.events": "count",
    "kernel.us_per_event": "us",
    "kernel.heap_high_water": "count",
    "lan.flushes": "count",
    "lan.us_per_flush": "us",
    "lan.transfers": "count",
    "switch.dispatched": "count",
    "switch.shedded": "count",
    "switch.failovers": "count",
    "switch.timeouts": "count",
    "switch.batches_dispatched": "count",
    "switch.useful_frac": "ratio",
    "control.services_created": "count",
    "scenario.arrivals": "count",
    "sla.shed": "count",
    "market.priced_out": "count",
    "market.reprices": "count",
    "faults.injected": "count",
    "faults.reboots": "count",
    "faults.probes": "count",
    "obs.spans": "count",
    "obs.spans_dropped": "count",
    "obs.overhead_x": "x",
    "fluid.batches": "count",
    "fluid.requests": "count",
    "parallel.epochs": "count",
    "parallel.messages": "count",
    "parallel.barrier_stall_frac": "ratio",
    "parallel.critical_path_s": "s",
    "parallel.worker_busy_s": "s",
    "scheduler.quanta": "count",
    "scheduler.us_per_quantum": "us",
}

#: cell counters summed into the per-layer metric of the same name
CELL_COUNTS = (
    "scenario.arrivals", "sla.shed", "market.priced_out", "market.reprices",
    "faults.injected", "faults.reboots", "obs.spans", "obs.spans_dropped",
    "fluid.batches", "fluid.requests", "parallel.epochs", "parallel.messages",
    "parallel.barrier_stall_frac", "parallel.critical_path_s",
    "parallel.worker_busy_s", "scheduler.quanta",
)


class Ledger:
    """Cells attempted and failed, and what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, label: str, cells, expected: Optional[List[str]]) -> bool:
        """Check one pass; True when every cell passed."""
        ok = True
        for index, cell in enumerate(cells):
            self.attempted += 1
            problems = list(cell.problems)
            if not cell.conserved:
                problems.append("conservation violated")
            if expected is not None and cell.digest != expected[index]:
                problems.append("digest differs from the first pass")
            if problems:
                self.failed += 1
                ok = False
                self.problems.append(f"{label} cell {index}: {'; '.join(problems)}")
        return ok


def calibration_s() -> float:
    """Host time of a fixed pure-Python loop (heap, dict and float work)."""
    began = time.perf_counter()
    heap: List[Tuple[float, int]] = []
    counts: Dict[int, int] = {}
    total = 0.0
    for i in range(20000):
        heapq.heappush(heap, ((i * 7919) % 1009 * 0.001, i))
        counts[i & 255] = counts.get(i & 255, 0) + 1
        total += (i * 0.5) ** 0.5
        if len(heap) > 64:
            total += heapq.heappop(heap)[0]
    return time.perf_counter() - began


def to_reference(host_s: float, before_s: float, after_s: float) -> float:
    """``host_s`` scaled to the reference host speed by the calibration
    loop's mean time just before and just after it."""
    return host_s * CALIBRATION_REFERENCE_S / ((before_s + after_s) / 2.0)


def run_pass(
    wl: Workload, cells, calibrated: bool = False, **kwargs
) -> Tuple[list, List[float], List[float]]:
    """Run every cell; time only the program's harness calls, not the checks.

    Returns (cells, host seconds per cell, scaled seconds per cell).  When
    ``calibrated``, the calibration loop is timed before the first cell
    and after each cell, and each cell's host time is scaled by the two
    loops around it (``to_reference``), so a speed phase that starts in
    the middle of a pass is tracked cell by cell.  Otherwise the scaled
    seconds are the host seconds.
    """
    elapsed = [0.0]

    def timed(call):
        began = time.perf_counter()
        try:
            return call()
        finally:
            elapsed[0] += time.perf_counter() - began

    out: list = []
    host: List[float] = []
    scaled: List[float] = []
    before = calibration_s() if calibrated else 0.0
    for cell in cells:
        elapsed[0] = 0.0
        out.append(wl.run_cell(cell, observe=timed, **kwargs))
        host.append(elapsed[0])
        if calibrated:
            after = calibration_s()
            scaled.append(to_reference(elapsed[0], before, after))
            before = after
        else:
            scaled.append(elapsed[0])
    return out, host, scaled


def median_pass(passes: List[List[float]]) -> float:
    """Seconds of the median pass, taken cell by cell.

    Each cell's median over the passes, summed: a slow spell that hits
    one cell of a pass moves that cell's sample only.
    """
    return sum(statistics.median(column) for column in zip(*passes))


def reference_key(wl: Workload) -> str:
    return wl.name if wl.size == "full" else f"{wl.name}@{wl.size}"


def load_references() -> Dict[str, Dict[str, str]]:
    if not os.path.exists(REFERENCES):
        return {}
    with open(REFERENCES) as handle:
        return json.load(handle)


def verify(wl: Workload, seed: int, ledger: Ledger, label: str) -> Tuple[list, list, Dict]:
    """Prepare and run the untimed first pass; check it against references."""
    cells = wl.prepare(seed)
    first, _, _ = run_pass(wl, cells)
    ledger.check(label, first, None)
    pass_digest = sha([cell.digest for cell in first])
    status: Dict[str, Any] = {"seed": seed, "digest": pass_digest, "reference": "none recorded"}
    reference = load_references().get(reference_key(wl), {}).get(str(seed))
    if reference is not None:
        status["reference"] = "match" if reference == pass_digest else "MISMATCH"
        if reference != pass_digest:
            ledger.failed += 1
            ledger.problems.append(f"{label}: digest {pass_digest[:12]} != reference {reference[:12]}")
    if isinstance(wl, FederationFleet):
        serial = wl.run_cell(cells[0], workers=1)
        ledger.attempted += 1
        if serial.digest != first[0].digest:
            ledger.failed += 1
            ledger.problems.append(f"{label}: 2-worker digest differs from the 1-worker digest")
    return cells, first, status


def sim_metrics(first) -> Dict[str, float]:
    issued, failed, served, response = aggregate(first)
    return {
        "issued": issued,
        "sim_fail_frac": failed / issued if issued else 0.0,
        "sim_mean_response_s": response / served if served else 0.0,
    }


def timed_passes(
    wl, cells, first, ledger, seconds, label, calibrated=False, raw=None, **kwargs
) -> List[List[float]]:
    """Repeat the pass for ``seconds`` (at least MIN_TIMED_PASSES times).

    Returns the scaled seconds per cell (see ``run_pass``) of each pass
    that passed every check; their host seconds per cell go to ``raw``.
    """
    expected = [cell.digest for cell in first]
    times: List[List[float]] = []
    deadline = time.perf_counter() + seconds
    attempts = 0
    while attempts < MIN_TIMED_PASSES or time.perf_counter() < deadline:
        attempts += 1
        out, host, scaled = run_pass(wl, cells, calibrated, **kwargs)
        if ledger.check(label, out, expected):
            times.append(scaled)
            if raw is not None:
                raw.append(host)
    return times


# ---------------------------------------------------------------------------
# Set-up time: fresh processes, from spawn to the first simulated arrival.
# ---------------------------------------------------------------------------

def setup_probe(args) -> int:
    """Child mode: set up, run to the first arrival, report the instant."""
    wl = workload(args.workload, args.size)
    forked = isinstance(wl, FederationFleet)

    def on_first() -> None:
        sys.stdout.write(f"FIRST_ARRIVAL {time.monotonic()!r}\n")
        sys.stdout.flush()
        if not forked:  # fork workers report; the coordinator finishes the run
            os._exit(0)

    wl.first_arrival_hook(on_first)
    cells = wl.prepare(args.seed)
    wl.run_cell(cells[0])
    return 0


def measure_setup(args, ledger: Ledger, raw: List[float]) -> List[float]:
    """Seconds from spawning each probe process to its first arrival.

    Each probe's host seconds (appended to ``raw``) are scaled by the
    calibration loop timed just before the spawn and after the probe
    exits (``to_reference``).
    """
    samples: List[float] = []
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--size", args.size, "--setup-probe",
    ]
    for _ in range(SETUP_PROBES):
        before = calibration_s()
        spawned = time.monotonic()
        try:
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=150)
        except subprocess.TimeoutExpired:
            ledger.failed += 1
            ledger.problems.append("setup probe timed out")
            continue
        firsts = [
            float(line.split()[1])
            for line in proc.stdout.splitlines()
            if line.startswith("FIRST_ARRIVAL ")
        ]
        if proc.returncode != 0 or not firsts:
            ledger.failed += 1
            ledger.problems.append(f"setup probe failed: {proc.stderr.strip()[-300:]}")
            continue
        host = min(firsts) - spawned
        raw.append(host)
        samples.append(to_reference(host, before, calibration_s()))
    return samples


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ---------------------------------------------------------------------------
# The traced run: per-layer split and counters.
# ---------------------------------------------------------------------------

def traced_pass(wl: Workload, seed: int) -> Tuple[Dict[str, float], float, Dict[str, float], list]:
    """One traced pass: (layer parts, traced wall, counters, cells)."""
    from repro.obs import Observability
    from repro.obs.federation import FederationObservability

    wall = [0.0]

    def span(layer, fn, *args):
        """Time a program call independently of the layer clock."""
        began = time.perf_counter()
        try:
            return layers.timed_call(clock, layer, fn, *args)
        finally:
            wall[0] += time.perf_counter() - began

    if isinstance(wl, FederationFleet):
        (cell,) = wl.prepare(seed)
        clock = layers.LayerClock()  # federation shards cannot be wrapped
        out = [
            wl.run_cell(
                cell,
                observe=lambda call: span("harness", call),
                obs=FederationObservability(tracing=False, metrics=False, profile=True),
            )
        ]
        run = out[0].result
        counters = {"kernel.events": 0, "kernel.heap_high_water": 0, "lan.flushes": 0,
                    "lan.transfers": 0, "lan.flush_s": 0.0}
        for name, profile in run.observability.kernel_profiles.items():
            counters["kernel.events"] += run.digests[name]["events"]
            counters["kernel.heap_high_water"] = max(
                counters["kernel.heap_high_water"], profile["heap_high_water"]
            )
            _lan_sites(profile["sites"], counters)
        return layers.federation_split(run, wall[0]), wall[0], counters, out

    clock = layers.LayerClock()
    patches = layers.Patches(clock)
    layers.install_program_wrappers(patches)
    profiler = layers.LayerProfiler(clock)

    def harness(call):
        return span("harness", call)

    try:
        clock.start()
        if isinstance(wl, ScenarioContended):
            from repro.scenario.compile import compile_scenario

            cells = wl.prepare(
                seed,
                compile_fn=lambda spec, sub: span("scenario.compile", compile_scenario, spec, sub),
            )
            hub = Observability(tracing=False, metrics=False)
            hub.profiler = profiler
            with hub.activate():
                out = [wl.run_cell(cell, observe=harness) for cell in cells]
        elif isinstance(wl, ChaosObserved):
            cells = wl.prepare(seed)
            out = [wl.run_cell(cell, observe=harness, profiler=profiler) for cell in cells]
        else:
            cells = wl.prepare(seed)
            out = [wl.run_cell(cell, observe=harness) for cell in cells]
        clock.stop()
    finally:
        patches.restore()

    sims = patches.instances("sim")
    switches = patches.instances("switch")
    counters: Dict[str, float] = {
        "kernel.events": sum(sim.events_scheduled for sim in sims),
        "kernel.heap_high_water": profiler.heap_high_water,
        "lan.flushes": 0, "lan.transfers": 0, "lan.flush_s": 0.0,
        "switch.dispatched": sum(s.dispatched for s in switches),
        "switch.shedded": sum(s.shedded for s in switches),
        "switch.failovers": sum(s.failovers for s in switches),
        "switch.timeouts": sum(s.timeouts for s in switches),
        "switch.batches_dispatched": sum(s.batches_dispatched for s in switches),
        "control.services_created": clock.calls.get("SODAAgent.service_creation", 0),
        "faults.probes": sum(c.probes for c in patches.instances("checker")),
    }
    _lan_sites(
        {site: {"events": s.events, "wall_s": s.wall_s} for site, s in profiler.sites.items()},
        counters,
    )
    return clock.program_parts(), wall[0], counters, out


def _lan_sites(sites: Dict[str, Dict[str, float]], counters: Dict[str, float]) -> None:
    """Flush and completed-transfer counts from kernel profiler sites."""
    for site, stats in sites.items():
        if site == "call_soon:LAN._flush":
            counters["lan.flushes"] += stats["events"]
            counters["lan.flush_s"] += stats["wall_s"]
        elif site.startswith("Timeout->LAN._finish"):
            counters["lan.transfers"] += stats["events"]


def per_layer_metrics(
    parts: Dict[str, float], wall: float, counters: Dict[str, float], out: list,
    untraced_run_s: float, obs_overhead_x: float,
) -> Dict[str, float]:
    metrics: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    metrics["trace.wall_s"] = wall
    # The traced pass also compiles; the untraced passes reuse compiled cells.
    replayed = wall - parts["scenario.compile"]
    metrics["trace.overhead_x"] = replayed / untraced_run_s if untraced_run_s else 0.0
    for layer, name in SELF_TIME.items():
        metrics[name] = parts[layer]
    for name in CELL_COUNTS:
        metrics[name] = sum(cell.counts.get(name, 0) for cell in out)
    for name, value in counters.items():
        if name in metrics:
            metrics[name] = value
    events = counters.get("kernel.events", 0)
    metrics["kernel.us_per_event"] = parts[layers.KERNEL] / events * 1e6 if events else 0.0
    flushes = counters.get("lan.flushes", 0)
    metrics["lan.us_per_flush"] = counters["lan.flush_s"] / flushes * 1e6 if flushes else 0.0
    dispatched = counters.get("switch.dispatched", 0)
    served = sum(cell.served for cell in out)
    metrics["switch.useful_frac"] = served / dispatched if dispatched else 0.0
    quanta = metrics["scheduler.quanta"]
    metrics["scheduler.us_per_quantum"] = (
        parts["host.scheduler"] / quanta * 1e6 if quanta else 0.0
    )
    metrics["obs.overhead_x"] = obs_overhead_x
    return metrics


# ---------------------------------------------------------------------------
# Manifest and driver.
# ---------------------------------------------------------------------------

def source_identity() -> Dict[str, Optional[str]]:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SOURCE, "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, SOURCE).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            )
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def measure(args) -> Tuple[Dict[str, Any], Dict[str, Any], bool]:
    wl = workload(args.workload, args.size)
    ledger = Ledger()
    cells, first, status = verify(wl, args.seed, ledger, "warm-up")
    sim = sim_metrics(first)
    manifest: Dict[str, Any] = {
        "manifest": "perfbench/1",
        **source_identity(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": wl.name,
        "size": wl.size,
        "seed": args.seed,
        "params": wl.params(),
        "trace": args.trace,
        "seconds": args.seconds,
        "verification": status,
    }
    kwargs = {"hub": True} if isinstance(wl, ChaosObserved) else {}
    metrics: Dict[str, float] = {}
    if args.trace:
        half = args.seconds / 2.0
        if isinstance(wl, ChaosObserved):
            on = timed_passes(wl, cells, first, ledger, half / 2.0, "hub-on")
            off = timed_passes(wl, cells, first, ledger, half / 2.0, "hub-off", hub=False)
            untraced = median_pass(on) if on else 0.0
            obs_overhead = untraced / median_pass(off) if off else 0.0
        else:
            times = timed_passes(wl, cells, first, ledger, half, "untraced")
            untraced = median_pass(times) if times else 0.0
            obs_overhead = 0.0
        totals = {layer: 0.0 for layer in layers.LAYERS}
        wall_total = 0.0
        n_traced = 0
        deadline = time.perf_counter() + half
        while n_traced < 1 or time.perf_counter() < deadline:
            parts, wall, counters, out = traced_pass(wl, args.seed)
            ok = ledger.check("traced", out, [cell.digest for cell in first])
            # The wall is read outside the layer clock, around each program
            # call: the parts may miss it by the clock reads themselves.
            residue = abs(sum(parts.values()) - wall)
            if residue > 1e-3 * wall + 1e-4:
                ledger.failed += 1
                ledger.problems.append(f"layer split misses the traced wall by {residue:.3g}s")
                ok = False
            if ok:
                n_traced += 1
                wall_total += wall
                for layer, seconds in parts.items():
                    totals[layer] += seconds
            elif n_traced == 0 and time.perf_counter() >= deadline:
                break
        if n_traced:
            metrics = per_layer_metrics(
                {layer: total / n_traced for layer, total in totals.items()},
                wall_total / n_traced, counters, out, untraced, obs_overhead,
            )
            metrics.update({name: sim[name] for name in SIM_OUTCOMES})
        manifest["traced_passes"] = n_traced
    else:
        raw: List[List[float]] = []
        times = timed_passes(
            wl, cells, first, ledger, args.seconds, "timed", calibrated=True, raw=raw, **kwargs
        )
        rss = peak_rss_mb()
        raw_setups: List[float] = []
        setups = measure_setup(args, ledger, raw_setups)
        if times and setups:
            run_s = median_pass(times)
            metrics = {
                "run_s": run_s,
                "sim_req_per_s": sim["issued"] / run_s,
                "setup_s": statistics.median(setups),
                "peak_rss_mb": rss,
            }
        manifest["timed_passes"] = len(times)
        if raw:
            manifest["uncalibrated_run_s"] = median_pass(raw)
        if raw_setups:
            manifest["uncalibrated_setup_s"] = statistics.median(raw_setups)
        manifest["setup_probes"] = len(setups)
    manifest["sim"] = sim
    if args.heldout_seed is not None:
        _cells, heldout_first, heldout = verify(wl, args.heldout_seed, ledger, "held-out")
        heldout.update(sim_metrics(heldout_first))
        manifest["heldout"] = heldout
    manifest["problems"] = ledger.problems
    units = PER_LAYER if args.trace else END_TO_END
    correct = ledger.failed == 0 and bool(metrics)
    result = {
        "correct": correct,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()
        },
    }
    return manifest, result, correct


def record_references(args) -> int:
    """Record the pass digests of seeds ``0 .. n-1`` into references.json."""
    wl = workload(args.workload, args.size)
    references = load_references()
    table = references.setdefault(reference_key(wl), {})
    for seed in range(args.record_references):
        ledger = Ledger()
        cells = wl.prepare(seed)
        first, _, _ = run_pass(wl, cells)
        ledger.check("record", first, None)
        if isinstance(wl, FederationFleet) and wl.run_cell(cells[0], workers=1).digest != first[0].digest:
            ledger.problems.append("1-worker parity")
        if ledger.problems:
            sys.stderr.write(f"seed {seed}: {ledger.problems}\n")
            return 1
        table[str(seed)] = sha([cell.digest for cell in first])
    with open(REFERENCES, "w") as handle:
        json.dump(references, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--heldout-seed", type=int, default=None,
        help="also verify (untimed) a second seed not used for tuning",
    )
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--record-references", type=int, default=0, metavar="N",
        help="record digests of seeds 0..N-1 into references.json and exit",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or (args.heldout_seed is not None and args.heldout_seed < 0):
        parser.error("seeds must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    if args.record_references:
        return record_references(args)
    manifest, result, correct = measure(args)
    print(json.dumps(manifest, sort_keys=True, default=repr))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
