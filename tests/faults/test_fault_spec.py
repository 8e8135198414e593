"""FaultSpec/FaultSchedule validation, dict round-trips, chaos files."""

import json

import pytest

from repro.errors import FaultError
from repro.faults import (
    FAULT_KINDS,
    FaultSchedule,
    FaultSpec,
    chaos_from_dict,
    list_faults_text,
    load_chaos_file,
)


def crash(at=1.0, target="t"):
    return FaultSpec(kind="thread_crash", at=at, target=target)


class TestFaultSpecValidation:
    def test_minimal_specs_for_every_kind(self):
        FaultSpec(kind="thread_crash", at=0.0, target="t")
        FaultSpec(kind="thread_stall", at=0.0, target="t", duration=1.0)
        FaultSpec(kind="thread_restart", at=0.0, target="t")
        FaultSpec(kind="node_crash", at=0.0, target="n")
        FaultSpec(kind="node_restart", at=0.0, target="n")
        FaultSpec(kind="link_degrade", at=0.0, target="a->b", factor=2.0)
        FaultSpec(kind="link_partition", at=0.0, target="a->b", mode="block")
        FaultSpec(kind="link_restore", at=0.0, target="a->b")
        FaultSpec(kind="message_drop", at=0.0, target="a->b", probability=0.5)

    def test_unknown_kind(self):
        with pytest.raises(FaultError, match="unknown fault kind"):
            FaultSpec(kind="gamma_ray", at=0.0, target="t")

    def test_negative_time(self):
        with pytest.raises(FaultError, match=">= 0"):
            crash(at=-1.0)

    def test_empty_target(self):
        with pytest.raises(FaultError, match="non-empty"):
            crash(target="")

    def test_link_kind_needs_arrow_target(self):
        with pytest.raises(FaultError, match="src->dst"):
            FaultSpec(kind="link_restore", at=0.0, target="a")

    def test_thread_kind_rejects_link_target(self):
        with pytest.raises(FaultError, match="looks like a link"):
            crash(target="a->b")

    def test_duration_only_on_window_kinds(self):
        with pytest.raises(FaultError, match="takes no duration"):
            FaultSpec(kind="thread_crash", at=0.0, target="t", duration=1.0)

    def test_negative_duration(self):
        with pytest.raises(FaultError, match="requires a duration > 0"):
            FaultSpec(kind="thread_stall", at=0.0, target="t", duration=-1.0)

    def test_stall_requires_duration(self):
        with pytest.raises(FaultError, match="requires a duration"):
            FaultSpec(kind="thread_stall", at=0.0, target="t")

    def test_degrade_requires_factor_above_one(self):
        with pytest.raises(FaultError, match="factor > 1"):
            FaultSpec(kind="link_degrade", at=0.0, target="a->b")
        with pytest.raises(FaultError, match="factor > 1"):
            FaultSpec(kind="link_degrade", at=0.0, target="a->b", factor=0.5)

    def test_factor_rejected_elsewhere(self):
        with pytest.raises(FaultError, match="takes no factor"):
            crash(target="t").with_(factor=2.0)

    def test_drop_requires_probability_in_unit_interval(self):
        with pytest.raises(FaultError, match="probability"):
            FaultSpec(kind="message_drop", at=0.0, target="a->b")
        with pytest.raises(FaultError, match="probability"):
            FaultSpec(kind="message_drop", at=0.0, target="a->b",
                      probability=1.5)

    def test_mode_only_on_partition(self):
        with pytest.raises(FaultError, match="takes no mode"):
            FaultSpec(kind="link_degrade", at=0.0, target="a->b",
                      factor=2.0, mode="block")
        with pytest.raises(FaultError, match="fail/block"):
            FaultSpec(kind="link_partition", at=0.0, target="a->b",
                      mode="maybe")

    def test_link_endpoints(self):
        spec = FaultSpec(kind="link_restore", at=0.0, target="n0 -> n1")
        assert spec.link_endpoints == ("n0", "n1")


class TestFaultSchedule:
    def test_sorted_by_time_stably(self):
        a, b, c = crash(at=5.0, target="a"), crash(at=1.0, target="b"), \
            crash(at=5.0, target="c")
        sched = FaultSchedule([a, b, c])
        assert [f.target for f in sched] == ["b", "a", "c"]

    def test_rejects_non_spec_entries(self):
        with pytest.raises(FaultError, match="must be FaultSpec"):
            FaultSchedule([{"kind": "thread_crash"}])

    def test_empty_properties(self):
        sched = FaultSchedule()
        assert sched.is_empty and not sched and len(sched) == 0

    def test_dict_roundtrip(self):
        sched = FaultSchedule([
            FaultSpec(kind="thread_crash", at=1.0, target="t"),
            FaultSpec(kind="link_partition", at=2.0, target="a->b",
                      mode="block", duration=3.0),
            FaultSpec(kind="message_drop", at=4.0, target="a->b",
                      probability=0.25, duration=1.0, seed=7),
        ])
        again = FaultSchedule.from_dicts(sched.to_dicts())
        assert again.faults == sched.faults


class TestFromDict:
    def test_family_key_selects_target(self):
        spec = FaultSpec.from_dict(
            {"kind": "thread_crash", "at": 1.0, "thread": "t"})
        assert spec.target == "t"

    def test_generic_target_key_accepted(self):
        spec = FaultSpec.from_dict(
            {"kind": "node_crash", "at": 1.0, "target": "n"})
        assert spec.target == "n"

    def test_family_mismatch(self):
        with pytest.raises(FaultError, match="targets a thread"):
            FaultSpec.from_dict(
                {"kind": "thread_crash", "at": 1.0, "node": "n"})

    def test_missing_kind(self):
        with pytest.raises(FaultError, match="missing 'kind'"):
            FaultSpec.from_dict({"at": 1.0, "thread": "t"})

    def test_missing_at(self):
        with pytest.raises(FaultError, match="missing 'at'"):
            FaultSpec.from_dict({"kind": "thread_crash", "thread": "t"})

    def test_two_target_keys(self):
        with pytest.raises(FaultError, match="exactly one"):
            FaultSpec.from_dict({"kind": "thread_crash", "at": 1.0,
                                 "thread": "t", "node": "n"})

    def test_unknown_key(self):
        with pytest.raises(FaultError, match="unknown key"):
            FaultSpec.from_dict({"kind": "thread_crash", "at": 1.0,
                                 "thread": "t", "severity": "high"})

    def test_wrong_type_names_its_key(self):
        with pytest.raises(FaultError, match="'at' in fault 'thread_crash'"):
            FaultSpec.from_dict({"kind": "thread_crash", "at": "soon",
                                 "thread": "t"})
        spec = FaultSpec.from_dict({"kind": "link_degrade", "at": 1,
                                    "link": "a->b", "factor": 3})
        assert (spec.at, spec.factor) == (1.0, 3.0)


class TestChaosFiles:
    CHAOS = {
        "experiment": {"app": "tracker", "config": "config1",
                       "horizon": 30},
        "detector": {"interval": 0.5},
        "faults": [
            {"kind": "thread_crash", "at": 5.0, "thread": "gui"},
        ],
    }

    def test_nested_layout(self):
        experiment, schedule, detector = chaos_from_dict(dict(self.CHAOS))
        assert experiment["app"] == "tracker"
        assert len(schedule) == 1
        assert detector == {"interval": 0.5}

    def test_flat_layout(self):
        experiment, schedule, detector = chaos_from_dict({
            "app": "tracker", "config": "config1",
            "faults": [{"kind": "node_crash", "at": 1.0, "node": "node0"}],
        })
        assert experiment == {"app": "tracker", "config": "config1"}
        assert len(schedule) == 1 and detector == {}

    def test_unknown_detector_key(self):
        bad = dict(self.CHAOS)
        bad["detector"] = {"paranoia": 11}
        with pytest.raises(FaultError, match="detector"):
            chaos_from_dict(bad)

    def test_extra_top_level_key_next_to_experiment(self):
        bad = dict(self.CHAOS)
        bad["bonus"] = 1
        with pytest.raises(FaultError, match="unexpected top-level"):
            chaos_from_dict(bad)

    def test_load_json_file(self, tmp_path):
        path = tmp_path / "chaos.json"
        path.write_text(json.dumps(self.CHAOS))
        _, schedule, detector = load_chaos_file(path)
        assert len(schedule) == 1 and detector == {"interval": 0.5}

    def test_load_yaml_file(self, tmp_path):
        pytest.importorskip("yaml")
        path = tmp_path / "chaos.yaml"
        path.write_text(
            "experiment: {app: tracker, config: config1, horizon: 30}\n"
            "faults:\n"
            "  - {kind: thread_crash, at: 5.0, thread: gui}\n"
        )
        _, schedule, _ = load_chaos_file(path)
        assert schedule.faults[0].target == "gui"

    def test_bundled_chaos_file_parses(self):
        pytest.importorskip("yaml")
        from pathlib import Path

        bundled = Path(__file__).parents[2] / "examples" / "chaos_tracker.yaml"
        _, schedule, detector = load_chaos_file(bundled)
        assert {f.kind for f in schedule} == set(FAULT_KINDS)
        assert detector["stall_timeout"] == 1.5


def test_catalog_covers_every_kind():
    text = list_faults_text()
    for kind in FAULT_KINDS:
        assert kind in text
