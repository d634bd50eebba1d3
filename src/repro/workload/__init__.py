"""Workload substrate: clients, request generators, and attacks.

* :mod:`repro.workload.apps` — per-application request profiles (the
  web content service's dataset-dependent syscall mix, honeypot probe
  requests, and the comp/log background jobs of Figure 5).
* :mod:`repro.workload.siege` — the HTTP request generator standing in
  for the paper's *siege* tool (§5): open-loop Poisson, closed-loop
  worker and recorded-trace modes, with response-time monitors.
* :mod:`repro.workload.replay` — arrival traces (recorded, Poisson,
  diurnal, thinned) for :meth:`Siege.run_trace
  <repro.workload.siege.Siege.run_trace>`.
* :mod:`repro.workload.attack` — the ghttpd buffer-overflow attack
  campaign against the honeypot (§2.1, §5 'Attack isolation').
* :mod:`repro.workload.clients` — client machine populations on the
  LAN.
* :mod:`repro.workload.ledger` — per-tenant request accounting shared
  by the scenario and chaos harnesses.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "apps": ["honeypot_probe_request", "web_request", "web_request_mix"],
    "attack": ["AttackCampaign", "AttackOutcome"],
    "clients": ["ClientPool"],
    "siege": ["Siege", "SiegeReport"],
})
