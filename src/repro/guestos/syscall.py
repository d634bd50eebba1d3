"""System-call interposition cost model (paper Table 4).

"A special thread is created to intercept the system calls made by all
process threads of the UML, and redirect them into the host OS kernel"
(paper §4.2).  That interception is the 'source' of the guest/host
slow-down the paper measures (§5):

    Table 4 — Measuring slow-down at system call level (clock cycles)

    | System call  | in UML | in host OS |
    | dup2         | 27276  | 1208       |
    | getpid       | 26648  | 1064       |
    | geteuid      | 26904  | 1084       |
    | mmap         | 27864  | 1208       |
    | mmap_munmap  | 27044  | 1200       |
    | gettimeofday | 37004  | 1368       |

The model stores the host-OS cost per syscall and a per-call
interception overhead (ptrace stop, context switch to the tracing
thread, redirection, resume); the UML cost is ``host + interception``.
``gettimeofday`` pays an extra penalty (in 2002-era UML it cannot use
the fast path and does extra bookkeeping).  An application-level mix —
user-mode cycles plus a syscall profile — yields the *application*
slow-down, which is far smaller than the per-syscall ratio because user
cycles run unmodified (Figure 6's observation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping

__all__ = ["SyscallCostModel", "SyscallMix", "PAPER_TABLE4_HOST_CYCLES", "PAPER_TABLE4_UML_CYCLES"]

# Host-OS syscall costs measured in the paper (clock cycles).
PAPER_TABLE4_HOST_CYCLES: Dict[str, float] = {
    "dup2": 1208.0,
    "getpid": 1064.0,
    "geteuid": 1084.0,
    "mmap": 1208.0,
    "mmap_munmap": 1200.0,
    "gettimeofday": 1368.0,
}

# UML-side costs measured in the paper (clock cycles).
PAPER_TABLE4_UML_CYCLES: Dict[str, float] = {
    "dup2": 27276.0,
    "getpid": 26648.0,
    "geteuid": 26904.0,
    "mmap": 27864.0,
    "mmap_munmap": 27044.0,
    "gettimeofday": 37004.0,
}

# Mean interception overhead implied by Table 4 (UML - host), excluding
# gettimeofday whose extra bookkeeping is modelled separately.
_PLAIN_CALLS = ["dup2", "getpid", "geteuid", "mmap", "mmap_munmap"]
INTERCEPTION_CYCLES = sum(
    PAPER_TABLE4_UML_CYCLES[c] - PAPER_TABLE4_HOST_CYCLES[c] for c in _PLAIN_CALLS
) / len(_PLAIN_CALLS)

# gettimeofday's additional UML-side penalty beyond plain interception.
GETTIMEOFDAY_EXTRA_CYCLES = (
    PAPER_TABLE4_UML_CYCLES["gettimeofday"]
    - PAPER_TABLE4_HOST_CYCLES["gettimeofday"]
    - INTERCEPTION_CYCLES
)

# Fallback host cost for syscalls outside Table 4 (read/write/accept...):
# the Table 4 host mean is representative of a trap + light kernel work.
DEFAULT_HOST_CYCLES = sum(PAPER_TABLE4_HOST_CYCLES[c] for c in _PLAIN_CALLS) / len(
    _PLAIN_CALLS
)


@dataclass(frozen=True)
class SyscallMix:
    """An application's per-request execution profile.

    ``user_mcycles`` of unmodified user-mode work plus ``n_syscalls``
    kernel crossings (costed at the generic rate).
    """

    user_mcycles: float
    n_syscalls: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.user_mcycles) and self.user_mcycles >= 0):
            raise ValueError(
                f"user cycles must be finite and non-negative, got {self.user_mcycles}"
            )
        if not (math.isfinite(self.n_syscalls) and self.n_syscalls >= 0):
            raise ValueError(
                f"syscall count must be finite and non-negative, got {self.n_syscalls}"
            )


class SyscallCostModel:
    """Cycle costs of syscalls in the host OS and inside a UML guest."""

    def __init__(
        self,
        host_cycles: Mapping[str, float] = PAPER_TABLE4_HOST_CYCLES,
        interception_cycles: float = INTERCEPTION_CYCLES,
        gettimeofday_extra: float = GETTIMEOFDAY_EXTRA_CYCLES,
    ):
        if interception_cycles < 0:
            raise ValueError("interception cost cannot be negative")
        self._host = dict(host_cycles)
        self.interception_cycles = interception_cycles
        self.gettimeofday_extra = gettimeofday_extra

    @property
    def known_syscalls(self):
        return sorted(self._host)

    def host_cycles(self, name: str) -> float:
        """Cost of ``name`` executed directly on the host OS."""
        return self._host.get(name, DEFAULT_HOST_CYCLES)

    def uml_cycles(self, name: str) -> float:
        """Cost of ``name`` executed inside a UML guest."""
        cost = self.host_cycles(name) + self.interception_cycles
        if name == "gettimeofday":
            cost += self.gettimeofday_extra
        return cost

    def cycles(self, name: str, in_uml: bool) -> float:
        return self.uml_cycles(name) if in_uml else self.host_cycles(name)

    def time_s(self, name: str, cpu_mhz: float, in_uml: bool) -> float:
        """Wall time of one call at the given clock."""
        if cpu_mhz <= 0:
            raise ValueError(f"cpu_mhz must be positive, got {cpu_mhz}")
        return self.cycles(name, in_uml) / (cpu_mhz * 1e6)

    def syscall_slowdown(self, name: str) -> float:
        """UML/host ratio for one syscall (Table 4's headline ~20-27x)."""
        return self.uml_cycles(name) / self.host_cycles(name)

    # -- application level ----------------------------------------------------
    def mix_mcycles(self, mix: SyscallMix, in_uml: bool) -> float:
        """Total megacycles to execute one request with profile ``mix``."""
        per_call = (
            DEFAULT_HOST_CYCLES + self.interception_cycles
            if in_uml
            else DEFAULT_HOST_CYCLES
        )
        return mix.user_mcycles + mix.n_syscalls * per_call / 1e6

    def mix_time_s(self, mix: SyscallMix, cpu_mhz: float, in_uml: bool) -> float:
        if cpu_mhz <= 0:
            raise ValueError(f"cpu_mhz must be positive, got {cpu_mhz}")
        return self.mix_mcycles(mix, in_uml) / cpu_mhz

    def application_slowdown(self, mix: SyscallMix) -> float:
        """UML/host time ratio for an application profile.

        Approaches the syscall-level ratio only as user work vanishes;
        for realistic mixes it is a small constant (Figure 6).
        """
        host = self.mix_mcycles(mix, in_uml=False)
        if host == 0:
            return 1.0
        return self.mix_mcycles(mix, in_uml=True) / host

    def table4(self) -> Dict[str, Dict[str, float]]:
        """Regenerate Table 4 from the model: {syscall: {uml, host}}."""
        return {
            name: {
                "in_uml": round(self.uml_cycles(name)),
                "in_host_os": round(self.host_cycles(name)),
            }
            for name in self.known_syscalls
        }
