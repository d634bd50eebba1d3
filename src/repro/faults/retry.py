"""Capped exponential backoff for switch-side retries.

A :class:`BackoffPolicy` is the duck-typed object the
:class:`~repro.core.switch.ServiceSwitch` failover engine consults: it
needs only ``max_attempts`` and ``delay(attempt)``.  The policy lives
here (not in core) so the core switch keeps zero imports from the fault
layer — installing a policy is what opts a switch into retrying.

The delay sequence is deterministic (no jitter): determinism is the
whole point of the fault subsystem, and the simulated workload already
de-synchronises retries naturally through queueing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["BackoffPolicy"]


@dataclass(frozen=True)
class BackoffPolicy:
    """``delay(k) = min(cap_s, base_s * factor**(k-1))`` for attempt k.

    With ``factor >= 1`` (validated) the sequence is monotone
    non-decreasing and capped at ``cap_s`` — both properties are pinned
    by ``tests/property/test_fault_properties.py``.
    """

    base_s: float = 0.05
    factor: float = 2.0
    cap_s: float = 1.0
    max_attempts: int = 4

    def __post_init__(self) -> None:
        # isfinite first: NaN passes every comparison below (min(cap, nan)
        # is cap) and inf would back off forever.
        if not (math.isfinite(self.base_s) and self.base_s > 0):
            raise ValueError(f"base delay must be positive and finite, got {self.base_s}")
        if not (math.isfinite(self.factor) and self.factor >= 1.0):
            raise ValueError(f"factor must be finite and >= 1 (monotone), got {self.factor}")
        if not (math.isfinite(self.cap_s) and self.cap_s >= self.base_s):
            raise ValueError(
                f"cap {self.cap_s} must be finite and >= base delay {self.base_s}"
            )
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")

    def delay(self, attempt: int) -> float:
        """Backoff before attempt ``attempt + 1`` (``attempt`` is 1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt is 1-based, got {attempt}")
        return min(self.cap_s, self.base_s * self.factor ** (attempt - 1))

    def delays(self) -> tuple:
        """The full delay sequence (one entry per possible retry)."""
        return tuple(self.delay(k) for k in range(1, self.max_attempts))
