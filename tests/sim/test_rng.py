"""Tests for named seeded RNG streams and distribution helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RngRegistry, lognormal_with_mean
from repro.sim.rng import _derive_seed


def test_same_name_same_stream_object():
    rngs = RngRegistry(seed=1)
    assert rngs.stream("x") is rngs.stream("x")


def test_streams_reproducible_across_registries():
    a = RngRegistry(seed=42).stream("svc").random(5)
    b = RngRegistry(seed=42).stream("svc").random(5)
    assert np.array_equal(a, b)


def test_different_names_are_independent():
    rngs = RngRegistry(seed=42)
    a = rngs.stream("a").random(5)
    b = rngs.stream("b").random(5)
    assert not np.array_equal(a, b)


def test_different_seeds_differ():
    a = RngRegistry(seed=1).stream("x").random(5)
    b = RngRegistry(seed=2).stream("x").random(5)
    assert not np.array_equal(a, b)


def test_new_stream_does_not_perturb_existing():
    """Adding a consumer of randomness must not change other streams."""
    r1 = RngRegistry(seed=9)
    seq_before = r1.stream("stable").random(3)

    r2 = RngRegistry(seed=9)
    r2.stream("newcomer").random(100)  # interleaved draws on another stream
    seq_after = r2.stream("stable").random(3)
    assert np.array_equal(seq_before, seq_after)


def test_spawn_produces_independent_registry():
    parent = RngRegistry(seed=3)
    child = parent.spawn("worker")
    a = parent.stream("x").random(4)
    b = child.stream("x").random(4)
    assert not np.array_equal(a, b)
    # but the spawn itself is deterministic
    child2 = RngRegistry(seed=3).spawn("worker")
    assert np.array_equal(b, child2.stream("x").random(4))


def test_contains_and_len():
    rngs = RngRegistry(seed=0)
    assert "a" not in rngs
    rngs.stream("a")
    assert "a" in rngs
    assert len(rngs) == 1


def test_len_and_in_count_named_streams_not_built_generators():
    rngs = RngRegistry(seed=0)
    rngs.stream("never drawn")
    rngs.stream("drawn").random()
    assert len(rngs) == 2 and "never drawn" in rngs


@pytest.fixture
def generators_built(monkeypatch):
    """A list that grows by one per ``np.random.default_rng`` call."""
    built = []
    default_rng = np.random.default_rng

    def counting(*args, **kwargs):
        built.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    return built


def test_a_stream_never_drawn_builds_no_generator(generators_built):
    rngs = RngRegistry(seed=5)
    streams = [rngs.stream(f"s{i}") for i in range(10)]
    assert lognormal_with_mean(streams[0], 0.25, 0.0) == 0.25  # cv=0
    assert generators_built == []
    streams[3].random()
    streams[3].normal()
    assert generators_built == [(_derive_seed(5, "s3"),)]


def test_a_cv0_fleet_builds_no_generator(generators_built):
    from repro.cluster.spec import uniform_spec
    from repro.tenancy import TenancySpec, TenantSpec, run_tenants
    from repro.tenancy import scaled_tracker_config

    cfg = scaled_tracker_config(0.02, frame_period=0.25, cv=0.0)
    result = run_tenants(TenancySpec(
        tenants=tuple(TenantSpec(f"t{i}", app_config=cfg) for i in range(3)),
        cluster=uniform_spec(4, ncpus=8), seed=0, horizon=2.0))
    assert result.stats["engine"]["events_processed"] > 100
    assert len(result.runtime.rngs) == 4  # one per node
    assert generators_built == []


DRAWS = {
    "random": lambda g: g.random(),
    "lognormal": lambda g: g.lognormal(0.1, 0.5),
    "integers": lambda g: g.integers(0, 1000, size=3).tolist(),
    "normal": lambda g: g.normal(size=2).tolist(),
    "choice": lambda g: g.choice(7),
}


@given(seed=st.integers(0, 2**32), name=st.text(max_size=8),
       calls=st.lists(st.sampled_from(sorted(DRAWS)), max_size=12))
@settings(max_examples=60, deadline=None)
def test_lazy_draws_equal_an_eager_generator(seed, name, calls):
    lazy = RngRegistry(seed=seed).stream(name)
    eager = np.random.default_rng(_derive_seed(seed, name))
    for call in calls:
        assert DRAWS[call](lazy) == DRAWS[call](eager)


def test_a_draw_is_a_plain_attribute_hit_after_the_first():
    stream = RngRegistry(seed=1).stream("x")
    first = stream.random
    assert vars(stream)["random"] is first  # cached on the stream
    assert stream.random is first


def test_a_stream_hands_on_its_state_through_the_bit_generator():
    stream = RngRegistry(seed=2).stream("x")
    eager = np.random.default_rng(_derive_seed(2, "x"))
    assert not isinstance(stream, np.random.Generator)
    shared = np.random.default_rng(stream.bit_generator)
    assert shared.random() == eager.random()
    assert stream.random() == eager.random()  # the same state, advanced


def test_lognormal_zero_cv_is_exact():
    rng = np.random.default_rng(0)
    assert lognormal_with_mean(rng, 0.25, 0.0) == 0.25


def test_lognormal_mean_matches_target():
    rng = np.random.default_rng(0)
    samples = [lognormal_with_mean(rng, 2.0, 0.3) for _ in range(20000)]
    assert np.mean(samples) == pytest.approx(2.0, rel=0.02)


def test_lognormal_cv_matches_target():
    rng = np.random.default_rng(0)
    samples = np.array([lognormal_with_mean(rng, 1.0, 0.5) for _ in range(40000)])
    assert np.std(samples) / np.mean(samples) == pytest.approx(0.5, rel=0.05)


def test_lognormal_rejects_bad_args():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        lognormal_with_mean(rng, -1.0, 0.1)
    with pytest.raises(ValueError):
        lognormal_with_mean(rng, 1.0, -0.1)


@given(mean=st.floats(0.001, 1e3), cv=st.floats(0.0, 2.0))
@settings(max_examples=60, deadline=None)
def test_lognormal_always_positive(mean, cv):
    rng = np.random.default_rng(1234)
    for _ in range(5):
        assert lognormal_with_mean(rng, mean, cv) > 0.0
