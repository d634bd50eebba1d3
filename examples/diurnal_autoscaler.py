#!/usr/bin/env python
"""Elastic hosting: a diurnal workload, the resizing API, and billing.

A long-lived application service (§1) sees daily load swings.  This
example drives the web content service with a diurnal (sinusoidal)
arrival trace, lets a reactive autoscaler call SODA_service_resizing
as latency moves, and compares the machine-hours billed against static
peak provisioning — the utility-computing pitch, quantified with
nothing but the paper's own API.

Run:  python examples/diurnal_autoscaler.py
"""

from repro.core import MachineConfig, ResourceRequirement, build_paper_testbed
from repro.core.auth import Credentials
from repro.core.autoscaler import AutoscalerConfig, ReactiveAutoscaler
from repro.image.profiles import make_s1_web_content
from repro.sim.rng import RandomStreams
from repro.workload.clients import ClientPool
from repro.workload.replay import diurnal_trace
from repro.workload.siege import Siege

PERIOD_S = 600.0         # one compressed "day"
DURATION_S = 2 * PERIOD_S
DATASET_MB = 0.5

# -- deploy at minimal capacity -------------------------------------------------
testbed = build_paper_testbed(seed=29)
repo = testbed.add_repository()
repo.publish(make_s1_web_content())
testbed.agent.register_asp("acme", "supersecret")
creds = Credentials("acme", "supersecret")
testbed.run(
    testbed.agent.service_creation(
        creds, "web", repo, "web-content",
        ResourceRequirement(n=1, machine=MachineConfig()),
    )
)
record = testbed.master.get_service("web")

# -- the workload: two compressed days of diurnal traffic -----------------------
streams = RandomStreams(29)
trace = diurnal_trace(
    streams, base_rps=2.0, peak_factor=8.0, period_s=PERIOD_S,
    duration_s=DURATION_S, dataset_mb=DATASET_MB,
)
print(f"trace: {len(trace)} requests over {DURATION_S:.0f} s "
      f"(rate swings 2..16 req/s across each {PERIOD_S:.0f} s 'day')")

clients = ClientPool(testbed.lan, n=4)
siege = Siege(testbed.sim, record.switch, clients)

# -- the controller ---------------------------------------------------------------
autoscaler = ReactiveAutoscaler(
    testbed.sim, testbed.agent, creds, "web", repo,
    AutoscalerConfig(
        target_response_s=0.25, min_units=1, max_units=4,
        check_period_s=30.0, min_samples=4,
    ),
)

replay_proc = testbed.spawn(siege.run_trace(trace), name="diurnal-replay")
testbed.run(autoscaler.run(DURATION_S))
report = testbed.sim.run_until_process(replay_proc)

# -- results ------------------------------------------------------------------------
print(f"\nserved {report.completed} requests, {report.failures} failures; "
      f"mean RT {report.mean_response_s()*1e3:.0f} ms, "
      f"p95 {report.overall.percentile(95)*1e3:.0f} ms")

print(f"\nautoscaler: {autoscaler.scale_ups} scale-ups, "
      f"{autoscaler.scale_downs} scale-downs")
for decision in autoscaler.decisions:
    direction = "+" if decision.to_units > decision.from_units else "-"
    print(f"  t={decision.time:7.1f}s  {decision.from_units}M -> "
          f"{decision.to_units}M ({direction}) after observing "
          f"{decision.observed_response_s*1e3:.0f} ms ({decision.reason})")

elastic_hours = testbed.agent.ledger.machine_hours("web", now=testbed.now)
peak_units = max(units for _, units in autoscaler.capacity_timeline)
static_hours = peak_units * testbed.now / 3600.0
print(f"\nbilling: elastic {elastic_hours:.3f} machine-hours vs "
      f"{static_hours:.3f} if statically provisioned at the peak "
      f"({peak_units}M) — {100 * (1 - elastic_hours / static_hours):.0f}% saved")
