"""Host OS substrate.

Models one HUP host's operating system and hardware as seen by SODA:

* :mod:`repro.host.machine` — the physical host (CPU, RAM, disk, NIC),
  including the paper's two testbed hosts *seattle* and *tacoma* (§4).
* :mod:`repro.host.reservation` — the per-host resource reservation
  manager the SODA Daemon contacts "to make resource reservations for
  the virtual service node" (§3.3).
* :mod:`repro.host.memory` — RAM accounting and RAM-disk mounts
  ("in many cases it can be mounted in RAM disk for fast
  bootstrapping", §4.3).
* :mod:`repro.host.scheduler` — the vanilla Linux-like CPU scheduler
  and the paper's coarse-grain **proportional-share CPU scheduler**
  keyed on userids (§4.2, Figure 5).
* :mod:`repro.host.traffic` — the outbound token-bucket **traffic
  shaper** keyed on virtual-node IP addresses (§4.2).
* :mod:`repro.host.bridge` — the **bridging module** that forwards
  packets to virtual service nodes by IP (§3.3), plus the *proxying*
  alternative of footnote 3.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "bridge": ["BridgingModule", "ProxyModule"],
    "machine": ["Host", "make_seattle", "make_tacoma", "paper_testbed_hosts"],
    "memory": ["MemoryError_", "MemoryManager"],
    "reservation": ["Reservation", "ReservationError", "ReservationManager"],
    "scheduler": ["ProportionalShareScheduler", "TaskGroup", "VanillaLinuxScheduler"],
    "traffic": ["TokenBucket", "TrafficShaper"],
})
