"""Hypothesis profiles for the whole suite.

Tier-1 runs every property at its own example budget.  The CI
``kernel`` job passes ``--hypothesis-profile=deep`` to drive the
reference-kernel property and the LAN fill properties through many
more random programs; a property whose budget reads
``settings.default.max_examples`` takes the profile's.
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=2000, deadline=None)
