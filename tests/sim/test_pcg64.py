"""The plain-Python exponential port against numpy, its oracle.

``repro.sim.pcg64.PCG64(seed).exponential(scale)`` must equal
``numpy.random.default_rng(seed).exponential(scale)`` draw for draw, and
the schedule helpers built on it (``churn``, ``poisson_arrivals``) must
stamp exactly what their numpy versions stamped.
"""

from collections import Counter

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.sim import pcg64
from repro.sim.pcg64 import PCG64
from repro.tenancy import TenantSpec, churn, poisson_arrivals

#: 0, the word boundaries, multi-word entropy (64 bits and more) and a
#: run of small seeds: 104 seeds.
SEEDS = [*range(96), 2**32 - 1, 2**32, 2**40 + 7, 2**63, 2**64 - 1,
         2**64 + 3, 2**73 + 12345, 2**130 + 1]
SCALES = [1.0, 0.125, 12.0, 1e-3, 3.5]
DRAWS_PER_SEED = 1000


class _PathCounter(PCG64):
    """A port that files each draw under the ziggurat path that ended it."""

    def __init__(self, seed, paths: Counter) -> None:
        super().__init__(seed)
        self.paths, self._first = paths, None

    def next_uint64(self) -> int:
        word = super().next_uint64()
        if self._first is None:
            self._first = word
        return word

    def standard_exponential(self) -> float:
        self._first = None
        x = super().standard_exponential()
        ri = self._first >> 3
        idx, ri = ri & 0xFF, ri >> 8
        self.paths["fast" if ri < pcg64._KE[idx]
                   else "tail" if idx == 0 else "wedge"] += 1
        return x


def test_every_draw_equals_numpy_and_both_slow_paths_run():
    paths = Counter()
    draws = 0
    for seed in SEEDS:
        port, oracle = _PathCounter(seed, paths), np.random.default_rng(seed)
        for k in range(DRAWS_PER_SEED):
            scale = SCALES[(k + seed) % len(SCALES)]
            assert port.exponential(scale) == float(oracle.exponential(scale)), (
                seed, k, scale)
            draws += 1
    assert draws >= 100_000 and len(SEEDS) >= 100
    # The first word of a draw that took a slow path may be rejected and
    # drawn again; each path still ran at least once.
    assert paths["tail"] > 0 and paths["wedge"] > 0, paths


def test_raw_words_equal_numpy_pcg64():
    for seed in (0, 1, 2**32, 2**64 + 3):
        port = PCG64(seed)
        raw = np.random.default_rng(seed).bit_generator.random_raw(8)
        assert [port.next_uint64() for _ in range(8)] == [int(w) for w in raw]


def test_integer_like_seeds_are_their_value():
    assert PCG64(np.int64(5)).exponential() == PCG64(5).exponential()
    assert PCG64(True).exponential() == float(np.random.default_rng(True).exponential())


@pytest.mark.parametrize("seed, error", [
    (-1, ValueError), (-(2**70), ValueError),
    (1.5, TypeError), (np.float64(3.0), TypeError), ("7", TypeError),
])
def test_a_bad_seed_raises_what_numpy_raises(seed, error):
    with pytest.raises(error):
        np.random.default_rng(seed)
    with pytest.raises(error):
        PCG64(seed)


# -- the schedule helpers ----------------------------------------------------


def _numpy_poisson_arrivals(tenants, rate, seed=0, start=0.0):
    rng = np.random.default_rng(seed)
    t, out = start, []
    for spec in tenants:
        t += float(rng.exponential(1.0 / rate))
        out.append(spec.with_(arrival=t, departure=None)
                   if spec.departure is not None and spec.departure <= t
                   else spec.with_(arrival=t))
    return tuple(out)


def _numpy_churn(tenants, rate, mean_lifetime, seed=0, start=0.0):
    rng = np.random.default_rng(seed)
    t, out = start, []
    for spec in tenants:
        t += float(rng.exponential(1.0 / rate)) if rate > 0 else 0.0
        lifetime = float(rng.exponential(mean_lifetime))
        out.append(spec.with_(arrival=t, departure=t + max(1e-6, lifetime)))
    return tuple(out)


def _fleet(n, departure=None):
    return tuple(TenantSpec(f"t{i}", departure=departure) for i in range(n))


@pytest.mark.parametrize("seed", [0, 1, 7, 2**32, 2**64 + 3])
@pytest.mark.parametrize("rate, mean_lifetime, start", [
    (8.0, 12.0, 0.0), (0.5, 0.25, 3.0), (0.0, 5.0, 1.5), (40, 2, 0.0),
])
def test_churn_equals_its_numpy_version(seed, rate, mean_lifetime, start):
    fleet = _fleet(300)
    assert churn(fleet, rate, mean_lifetime, seed=seed, start=start) == \
        _numpy_churn(fleet, rate, mean_lifetime, seed=seed, start=start)


@pytest.mark.parametrize("seed", [0, 1, 7, 2**32, 2**64 + 3])
@pytest.mark.parametrize("rate, start, departure", [
    (2.0, 0.0, None), (8.0, 4.0, None), (0.25, 0.0, 6.0), (3, 1.0, 2.0),
])
def test_poisson_arrivals_equal_their_numpy_version(seed, rate, start, departure):
    fleet = _fleet(200, departure)
    assert poisson_arrivals(fleet, rate, seed=seed, start=start) == \
        _numpy_poisson_arrivals(fleet, rate, seed=seed, start=start)


def test_a_non_positive_poisson_rate_is_refused_before_any_draw():
    with pytest.raises(ConfigError, match="must be positive"):
        poisson_arrivals(_fleet(2), rate=0.0, seed=-1)
