"""Seeded, named random streams.

Every stochastic component in the reproduction draws from its own named
stream so that (a) runs are reproducible end-to-end from a single master
seed and (b) adding randomness to one component does not perturb the
draws seen by another (the classic common-random-numbers discipline for
comparing simulated configurations).

**Block reads.** The draw methods do not make one scalar numpy call per
draw.  Each name keeps a block of standard variates, drawn with one
``size=`` call, and every draw takes the next entry and applies the
float operation numpy's own per-draw routine applies to it:

===================  ===================  ==================================
method               block                value
===================  ===================  ==================================
``exponential``      standard exponential ``mean * e``
``pareto``           standard exponential ``math.expm1(e / a)``
``uniform``          standard uniform     ``low + (high - low) * u``
``normal``           standard normal      ``mean + std * z``
``lognormal``        standard normal      ``math.exp(mean + sigma * z)``
``lognormal_factor`` standard normal      ``math.exp(sigma * z)``
``poisson``          Poisson, one mean    the entry itself
===================  ===================  ==================================

numpy fills ``size=k`` by calling the same per-element routine k times,
so a block holds exactly the variates k scalar calls would have made,
in the same order, and leaves the generator in the same state.  The
transforms are the ones numpy applies in C (``lognormal`` is
``exp(mean + sigma * z)``; ``pareto`` is ``expm1(e / a)``), done here
with the same IEEE double operations and the same libm functions, so
every value is ``==`` the scalar draw it replaces.
(``lognormal_factor`` drops numpy's ``0.0 +``: it changes only a
``-0.0``, and ``exp`` maps both zeros to 1.0.)
``tests/sim/test_rng.py`` checks this against fresh scalar draws for
every method across block boundaries.  Entries a run did not consume
stay with the stream, so a later call (a second scheduler ``run()``,
say) continues the same sequence.  On the reference host (2 vCPU,
Python 3.11.7, numpy 2.4.6) a block read costs 0.15-0.31 µs against
0.7-3.3 µs for a scalar call; ``lognormal_factor``, one draw per
blocking task in the CPU scheduler's quantum loop, went from 0.80-1.58
to 0.17-0.20 µs (docs/MODELING.md §9).

**Ownership.** A name belongs to one block: draws that read the same
standard variate may share it (``normal`` and ``lognormal``, say), but
any other read of that name raises ``ValueError``.  So does a Poisson
draw with a different mean (its block holds Poisson variates of one
mean), ``stream(name)`` on a block-read name and a block read on a
name that ``stream()`` handed out.  A mixed use would interleave a
block's lookahead with scalar draws and silently reorder the sequence.

``choice`` and callers of ``stream()`` draw scalars directly from the
generator: bounded integers take a variable number of raw words, and
their bounds change from call to call (the geo broker picks among the
services it currently knows), so there is no fixed block to read.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from typing import Callable, Dict, List

import numpy as np

__all__ = ["RandomStreams"]

#: Variates drawn per block refill; one size for every stream.
_BLOCK = 256
_INF = math.inf

#: Owner tags of a name (see the module docstring).
_GENERATOR = "the generator handed out by stream()"
_EXPONENTIAL = "standard exponential variates"
_UNIFORM = "standard uniform variates"
_NORMAL = "standard normal variates"


class RandomStreams:
    """A factory of independent, reproducible RNG streams.

    >>> streams = RandomStreams(seed=42)
    >>> a = streams.stream("arrivals")
    >>> b = streams.stream("attack")
    >>> a is streams.stream("arrivals")   # streams are cached by name
    True

    The per-name seed is derived by hashing ``(master_seed, name)``, so
    streams are stable across process restarts and independent of the
    order in which they are first requested.
    """

    def __init__(self, seed: int = 0):
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self.seed = int(seed)
        self._generators: Dict[str, np.random.Generator] = {}
        self._owners: Dict[str, str] = {}
        # Unconsumed block entries per name, next draw last (``pop()``).
        self._exponential: Dict[str, List[float]] = {}
        self._uniform: Dict[str, List[float]] = {}
        self._normal: Dict[str, List[float]] = {}
        self._poisson: Dict[tuple, List[int]] = {}

    def _derive(self, name: str) -> int:
        digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
        return int.from_bytes(digest[:8], "little")

    def _claim(self, name: str, owner: str) -> np.random.Generator:
        """The generator of ``name``, which ``owner`` must own."""
        held = self._owners.setdefault(name, owner)
        if held != owner:
            raise ValueError(
                f"stream {name!r} already reads {held}; "
                f"it cannot also read {owner}"
            )
        generator = self._generators.get(name)
        if generator is None:
            generator = np.random.default_rng(self._derive(name))
            self._generators[name] = generator
        return generator

    def _refill(
        self,
        blocks: Dict,
        key,
        name: str,
        owner: str,
        draw: Callable[[np.random.Generator, int], np.ndarray],
    ) -> list:
        block = draw(self._claim(name, owner), _BLOCK).tolist()
        block.reverse()
        blocks[key] = block
        return block

    def _exponentials(self, name: str) -> list:
        return self._refill(
            self._exponential, name, name, _EXPONENTIAL,
            np.random.Generator.standard_exponential,
        )

    def _uniforms(self, name: str) -> list:
        return self._refill(self._uniform, name, name, _UNIFORM, np.random.Generator.random)

    def _normals(self, name: str) -> list:
        return self._refill(
            self._normal, name, name, _NORMAL, np.random.Generator.standard_normal
        )

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the stream for ``name``."""
        return self._claim(name, _GENERATOR)

    def spawn(self, name: str) -> "RandomStreams":
        """A child factory with a seed derived from ``name``.

        Used to give each experiment replication its own namespace.
        """
        return RandomStreams(self._derive(name))

    # Block-read draws ------------------------------------------------------
    def exponential(self, name: str, mean: float) -> float:
        """One exponential draw with the given mean (not rate)."""
        if not 0.0 < mean < _INF:
            raise ValueError(f"mean must be positive and finite, got {mean}")
        block = self._exponential.get(name) or self._exponentials(name)
        return float(mean * block.pop())

    def pareto(self, name: str, a: float) -> float:
        """One Lomax (Pareto II) draw with shape ``a``, as numpy's ``pareto``."""
        if not 0.0 < a < _INF:
            raise ValueError(f"shape must be positive and finite, got {a}")
        block = self._exponential.get(name) or self._exponentials(name)
        return math.expm1(block.pop() / a)

    def uniform(self, name: str, low: float, high: float) -> float:
        if not -_INF < low <= high < _INF or high - low == _INF:
            raise ValueError(f"need a finite interval [{low}, {high}] of finite width")
        block = self._uniform.get(name) or self._uniforms(name)
        return float(low + (high - low) * block.pop())

    def normal(self, name: str, mean: float, std: float) -> float:
        if not (-_INF < mean < _INF and 0.0 <= std < _INF):
            raise ValueError(f"need a finite mean and std >= 0, got {mean}, {std}")
        block = self._normal.get(name) or self._normals(name)
        return float(mean + std * block.pop())

    def lognormal(self, name: str, mean: float, sigma: float) -> float:
        """``exp(N(mean, sigma))``, as numpy's ``lognormal(mean, sigma)``."""
        if not (-_INF < mean < _INF and 0.0 <= sigma < _INF):
            raise ValueError(f"need a finite mean and sigma >= 0, got {mean}, {sigma}")
        block = self._normal.get(name) or self._normals(name)
        return math.exp(mean + sigma * block.pop())

    def lognormal_factor(self, name: str, sigma: float) -> float:
        """A multiplicative noise factor with median 1.0.

        Used to jitter modelled costs (boot steps, per-request service
        times) without shifting their central tendency.  ``sigma == 0``
        returns 1.0 without drawing.
        """
        if not 0.0 < sigma < _INF:
            if sigma == 0:
                return 1.0
            raise ValueError(f"sigma must be non-negative and finite, got {sigma}")
        block = self._normal.get(name) or self._normals(name)
        return math.exp(sigma * block.pop())

    def poisson(self, name: str, mean: float) -> int:
        """One Poisson draw with the given mean (>= 0; 0 draws nothing)."""
        if not 0.0 < mean < _INF:
            if mean == 0:
                return 0
            raise ValueError(f"mean must be non-negative and finite, got {mean}")
        key = (name, mean)
        block = self._poisson.get(key) or self._refill(
            self._poisson, key, name, f"Poisson variates of mean {float(mean)!r}",
            lambda generator, size: generator.poisson(mean, size),
        )
        return block.pop()

    # Direct scalar draws ---------------------------------------------------
    def choice(self, name: str, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        return int(self.stream(name).integers(0, n))
