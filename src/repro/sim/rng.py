"""Named, seeded random-number streams.

Every stochastic input of a simulation (service-time noise, OS scheduling
jitter, frame content variation) draws from its own named stream, derived
deterministically from ``(root_seed, stream_name)``. This keeps runs
reproducible *and* keeps streams independent: adding a new consumer of
randomness does not perturb existing streams.

A stream builds its :class:`numpy.random.Generator` on first draw, so
``len()`` and ``in`` count *named* streams, drawn from or not.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np


def _derive_seed(root_seed: int, name: str) -> int:
    """Stable 64-bit seed from a root seed and a stream name."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class Stream:
    """Forwards to its seed's ``numpy`` generator, built on first attribute
    access and then cached per attribute, so a draw is a plain dict hit. Not
    a ``Generator`` itself: hand on ``stream.bit_generator`` (shared state)."""

    def __init__(self, root_seed: int, name: str) -> None:
        self._key = (root_seed, name)

    def __getattr__(self, attr: str):
        if attr.startswith("__"):  # copy/pickle probes; never a draw
            raise AttributeError(attr)
        gen = self.__dict__.get("_gen")
        if gen is None:
            gen = self._gen = np.random.default_rng(_derive_seed(*self._key))
        value = getattr(gen, attr)
        setattr(self, attr, value)
        return value


class RngRegistry:
    """Factory and cache of named, lazily built random streams.

    Example
    -------
    >>> rngs = RngRegistry(seed=7)
    >>> a = rngs.stream("digitizer.service")
    >>> b = rngs.stream("digitizer.service")
    >>> a is b
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, Stream] = {}

    def stream(self, name: str) -> Stream:
        """Return (creating on first use) the stream called ``name``."""
        stream = self._streams.get(name)
        if stream is None:
            stream = self._streams[name] = Stream(self.seed, name)
        return stream

    def spawn(self, name: str) -> "RngRegistry":
        """A child registry whose streams are independent of this one's."""
        return RngRegistry(_derive_seed(self.seed, f"spawn:{name}"))

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __len__(self) -> int:
        return len(self._streams)


def lognormal_with_mean(rng: np.random.Generator, mean: float, cv: float) -> float:
    """Draw a lognormal sample with arithmetic mean ``mean`` and coefficient
    of variation ``cv`` (= sigma/mean of the *sample*, not of log-space).

    Service times of data-dependent vision kernels are well modelled as
    lognormal: strictly positive, right-skewed. ``cv == 0`` returns the
    mean exactly.
    """
    if mean <= 0:
        raise ValueError(f"mean must be positive, got {mean}")
    if cv < 0:
        raise ValueError(f"cv must be non-negative, got {cv}")
    if cv == 0.0:
        return mean
    sigma2 = np.log1p(cv * cv)
    mu = np.log(mean) - 0.5 * sigma2
    return float(rng.lognormal(mean=mu, sigma=float(np.sqrt(sigma2))))
