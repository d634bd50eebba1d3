"""Deterministic fault injection (extension).

Paper §3.5 concedes SODA only "jails" a fault inside one service —
recovery is the operator's job.  This package plays the adversary *and*
the operator's tooling so that story can be tested end to end:

* :mod:`repro.faults.schedule` — :class:`FaultSchedule`: what breaks,
  when, for how long; explicit or drawn from seeded streams.
* :mod:`repro.faults.injector` — :class:`FaultInjector`: arms a
  schedule against live nodes and the LAN; keeps a comparable log.
* :mod:`repro.faults.retry` — :class:`BackoffPolicy`: capped
  exponential backoff the switch's attempt loop consults.
* :mod:`repro.faults.health` — :class:`SwitchHealthChecker`:
  probe-based quarantine of dead replicas.
* :mod:`repro.faults.chaos` — the full chaos scenario harness shared
  by the experiment, the soak test, and the determinism guard.

Everything is a pure function of (seed, schedule): same inputs, same
fault log, same digests — with observability on or off.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "health": ["SwitchHealthChecker"],
    "injector": ["FaultInjector"],
    "retry": ["BackoffPolicy"],
    "schedule": ["FaultEvent", "FaultKind", "FaultSchedule", "seeded_campaign"],
})
