"""Application request profiles.

The web content service (S_I) "provides a static dataset to clients"
(§5); serving a dataset of D MB costs user-mode work (parsing plus
copy/checksum of the payload) and a syscall count that grows with the
number of 32 KB ``write()`` chunks.  This mix is what produces the
Figure 6 observation: the UML application-level slow-down is a modest,
roughly size-independent constant (~1.4x), far below the ~23x
per-syscall ratio of Table 4, because the user-mode portion runs
unmodified.
"""

from __future__ import annotations

import math

from repro.core.node import Request
from repro.guestos.syscall import SyscallMix
from repro.net.lan import NetworkInterface

__all__ = [
    "WEB_BASE_SYSCALLS",
    "WEB_SYSCALLS_PER_MB",
    "WEB_BASE_USER_MCYCLES",
    "WEB_USER_MCYCLES_PER_MB",
    "web_request_mix",
    "web_request",
    "honeypot_probe_request",
]

# Accept/parse/open/stat/close etc. per request.
WEB_BASE_SYSCALLS = 30.0
# One write() per 32 KB chunk of response body.
WEB_SYSCALLS_PER_MB = 32.0
# Request parsing, header generation.
WEB_BASE_USER_MCYCLES = 1.0
# Copy/checksum work per MB of payload.
WEB_USER_MCYCLES_PER_MB = 2.0


def web_request_mix(dataset_mb: float) -> SyscallMix:
    """The per-request execution profile for a D-MB static dataset."""
    if not (math.isfinite(dataset_mb) and dataset_mb >= 0):
        raise ValueError(f"dataset size must be finite and non-negative, got {dataset_mb}")
    return SyscallMix(
        user_mcycles=WEB_BASE_USER_MCYCLES + WEB_USER_MCYCLES_PER_MB * dataset_mb,
        n_syscalls=WEB_BASE_SYSCALLS + WEB_SYSCALLS_PER_MB * dataset_mb,
    )


def web_request(client: NetworkInterface, dataset_mb: float, label: str = "GET /") -> Request:
    """One GET for the static dataset."""
    return Request(
        client=client,
        response_mb=dataset_mb,
        mix=web_request_mix(dataset_mb),
        label=label,
    )


def honeypot_probe_request(
    client: NetworkInterface, exploit: bool = False
) -> Request:
    """A request to the honeypot's ghttpd 'victim' server.

    With ``exploit=True`` this is the malicious HTTP request of §2.1:
    "a malicious packet is sent as an HTTP request, causing buffer
    overflow to bind a shell on a certain port."
    """
    return Request(
        client=client,
        response_mb=0.002,  # a small page / error response
        mix=SyscallMix(user_mcycles=0.2, n_syscalls=15),
        is_exploit=exploit,
        label="exploit" if exploit else "probe",
    )
