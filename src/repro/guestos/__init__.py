"""Guest OS (User-Mode Linux) substrate.

SODA runs each application service inside a UML guest OS on top of the
host OS (paper §4.2).  This package models that layer:

* :mod:`repro.guestos.services` — the registry of Linux system services
  (init scripts in ``/etc/``) with start costs, on-disk sizes, and
  dependency/library graphs; the raw material for rootfs tailoring.
* :mod:`repro.guestos.rootfs` — guest root filesystems and the SODA
  Daemon's tailoring step (§4.3): retain only the system services the
  application needs, dependency-closed, with only the necessary
  libraries.
* :mod:`repro.guestos.syscall` — the system-call interposition cost
  model calibrated to the paper's Table 4 (a tracing thread redirects
  every guest syscall into the host kernel).
* :mod:`repro.guestos.boot` — the boot-time model behind Table 2
  (mount the rootfs in RAM disk or from disk, init the guest kernel,
  start the retained services).
* :mod:`repro.guestos.uml` — the virtual machine itself: lifecycle,
  memory cap, guest process table, and the guest-root / host-root
  privilege separation that provides fault/attack isolation (§2.1).
* :mod:`repro.guestos.proc` — guest processes, users, and ``ps -ef``
  rendering (Figure 3).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "boot": ["BootPlan", "BootTimeModel"],
    "proc": ["GuestProcess", "ProcessState", "ProcessTable"],
    "rootfs": ["RootFilesystem", "TailoringError"],
    "services": ["ServiceRegistry", "SystemService", "default_registry"],
    "syscall": ["SyscallCostModel"],
    "uml": ["UmlError", "UmlState", "UserModeLinux"],
})
