"""Hypothesis profiles for the kernel suite.

Tier-1 runs every property at its default example budget.  The CI
``kernel`` job passes ``--hypothesis-profile=deep`` to drive the
reference-kernel property through many more random programs.
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=2000, deadline=None)
