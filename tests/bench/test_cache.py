"""Content-addressed result cache: hits, misses, corruption, versioning."""

import pickle

import pytest

import repro
from repro.aru import aru_disabled, aru_max, aru_min
from repro.apps import TrackerConfig
from repro.bench import CellSpec, ResultCache, SweepRunner, canonical_repr

HORIZON = 6.0


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


@pytest.fixture
def spec():
    return CellSpec(config="config1", policy=aru_min(), seed=0,
                    horizon=HORIZON)


@pytest.fixture
def warm(cache, spec):
    """A runner whose cache already holds ``spec``'s result."""
    runner = SweepRunner(workers=1, cache=cache)
    result, = runner.run([spec])
    assert runner.stats.executed == 1
    return runner, result


class TestHitAndMiss:
    def test_hit_on_identical_spec(self, warm, spec):
        runner, first = warm
        again, = runner.run([CellSpec(config="config1", policy=aru_min(),
                                      seed=0, horizon=HORIZON)])
        assert runner.stats.cache_hits == 1
        assert runner.stats.executed == 0
        assert pickle.dumps(again) == pickle.dumps(first)

    @pytest.mark.parametrize("change", [
        dict(seed=1),
        dict(horizon=HORIZON + 1.0),
        dict(policy=aru_max()),
        dict(policy=aru_disabled()),
        dict(config="config2"),
        dict(gc="tgc"),
        dict(config={"kind": "config1", "sched_noise_cv": 0.3}),
        dict(gc={"kind": "dgc", "interval": 0.5}),
        dict(app="elastic"),
        dict(app_config=TrackerConfig(channel_capacity=3)),
    ])
    def test_miss_on_any_field_change(self, cache, spec, change):
        changed = spec.with_(**change)
        assert cache.key(changed) != cache.key(spec)

    def test_policy_parameter_changes_key(self, cache, spec):
        tweaked = spec.with_(policy=aru_min(headroom=1.1))
        assert cache.key(tweaked) != cache.key(spec)

    def test_dgc_interval_changes_key(self, cache, spec):
        keys = {cache.key(spec.with_(gc={"kind": "dgc", "interval": lag}))
                for lag in (0.25, 0.5)}
        assert len(keys) == 2 and cache.key(spec) not in keys

    def test_get_on_empty_cache_is_none(self, cache, spec):
        assert cache.get(spec) is None


class TestBypass:
    def test_no_cache_runner_never_touches_cache(self, warm, spec):
        _, first = warm
        bare = SweepRunner(workers=1, cache=None)
        redone, = bare.run([spec])
        assert bare.stats.executed == 1
        assert bare.stats.cache_hits == 0
        # the bypassed execution still reproduces the result exactly
        assert pickle.dumps(redone) == pickle.dumps(first)

    def test_cli_no_cache_flag_disables_cache(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["sweep", "--workers", "1", "--horizon", "5", "--seeds",
                   "1", "--no-cache", "--cache-dir",
                   str(tmp_path / "never_created")])
        assert rc == 0
        assert not (tmp_path / "never_created").exists()
        assert "cache=off" in capsys.readouterr().out


class TestRobustness:
    def test_corrupted_file_discarded_not_crashed(self, warm, cache, spec):
        runner, _ = warm
        path = cache.path_for(spec)
        path.write_bytes(b"\x00garbage not a pickle\xff")
        result, = runner.run([spec])  # silently re-executes
        assert result.ok
        assert runner.stats.executed == 1
        assert runner.stats.cache_hits == 0
        # rewritten: next run hits again
        result2, = runner.run([spec])
        assert runner.stats.cache_hits == 1

    def test_truncated_file_discarded_not_crashed(self, warm, cache, spec):
        runner, _ = warm
        path = cache.path_for(spec)
        path.write_bytes(path.read_bytes()[:20])
        result, = runner.run([spec])
        assert result.ok and runner.stats.executed == 1

    def test_foreign_payload_is_a_miss(self, cache, spec):
        cache.put(spec, object())  # not a CellResult: no .spec attribute
        assert cache.get(spec) is None

    def test_clear_empties_cache(self, warm, cache, spec):
        assert len(cache) == 1
        assert cache.clear() == 1
        assert cache.get(spec) is None


class TestVersioning:
    def test_key_changes_with_repro_version(self, cache, spec, monkeypatch):
        before = cache.key(spec)
        monkeypatch.setattr(repro, "__version__", "999.0.0-test")
        after = cache.key(spec)
        assert before != after

    def test_version_bump_invalidates_stored_result(self, warm, spec,
                                                    monkeypatch):
        runner, _ = warm
        monkeypatch.setattr(repro, "__version__", "999.0.0-test")
        runner.run([spec])
        assert runner.stats.executed == 1
        assert runner.stats.cache_hits == 0


class TestCanonicalRepr:
    def test_dict_order_is_normalized(self):
        assert canonical_repr({"a": 1, "b": 2}) == \
            canonical_repr({"b": 2, "a": 1})

    def test_equal_specs_equal_reprs(self, spec):
        twin = CellSpec(config="config1", policy=aru_min(), seed=0,
                        horizon=HORIZON)
        assert canonical_repr(spec) == canonical_repr(twin)

    def test_distinguishes_float_values(self):
        assert canonical_repr(0.1) != canonical_repr(0.1000001)

    def test_rejects_unknown_objects(self):
        with pytest.raises(TypeError):
            canonical_repr(object())

    def test_graph_app_is_not_keyable(self, cache, spec):
        """A cell names its app; a built graph has no content key."""
        from repro.apps import build_tracker

        with pytest.raises(TypeError):
            cache.key(spec.with_(app=build_tracker()))
