"""The one spec-file reader, :func:`repro.schema.build`, and the promise
that a spec file's keys are its dataclass's fields."""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path
from typing import Optional

import pytest

from repro.cluster.load import LoadSpec
from repro.errors import ConfigError, FaultError
from repro.experiment import ExperimentSpec
from repro.faults import FaultSpec
from repro.schema import build
from repro.tenancy import ArbiterConfig, ResourceDemand, TenancySpec, TenantSpec


@dataclasses.dataclass(frozen=True)
class Probe:
    name: str
    count: int = 1
    ratio: float = 0.5
    flag: bool = False
    limit: Optional[int] = None
    mem_bytes: int = 0
    rate_bps: int = 0
    extra: object = None


class TestBuild:
    def test_scalars_are_checked_and_converted(self):
        probe = build(Probe, {"name": "a", "count": 2.0, "ratio": 1,
                              "flag": True, "limit": None}, "p")
        assert probe == Probe("a", count=2, ratio=1.0, flag=True)
        assert isinstance(probe.ratio, float) and isinstance(probe.count, int)

    @pytest.mark.parametrize("key, value", [
        ("name", 3), ("count", "many"), ("count", True), ("ratio", [1]),
        ("flag", "yes"), ("limit", "none"),
    ])
    def test_wrong_scalar_is_an_error_at_its_key(self, key, value):
        raw = {"name": "a", key: value}
        with pytest.raises(ConfigError, match=f"'{key}' in p must be"):
            build(Probe, raw, "p")

    def test_other_annotations_pass_through(self):
        assert build(Probe, {"name": "a", "extra": {"x": 1}}, "p").extra == {
            "x": 1}

    def test_unit_aliases(self):
        probe = build(Probe, {"name": "a", "mem_mb": 1.5, "rate_mbps": 2},
                      "p")
        assert (probe.mem_bytes, probe.rate_bps) == (3 * 2**19, 2_000_000)
        with pytest.raises(ConfigError, match="give mem_bytes or mem_mb"):
            build(Probe, {"name": "a", "mem_mb": 1, "mem_bytes": 1}, "p")

    def test_unknown_and_missing_keys(self):
        with pytest.raises(ConfigError,
                           match=re.escape("unknown key(s) in p: ['a', 'b']")):
            build(Probe, {"name": "x", "b": 1, "a": 2}, "p")
        with pytest.raises(ConfigError, match="p: missing 'name'"):
            build(Probe, {}, "p")

    def test_instance_passes_through_and_non_object_fails(self):
        probe = Probe("a")
        assert build(Probe, probe, "p") is probe
        with pytest.raises(ConfigError, match="p must be an object"):
            build(Probe, ["name"], "p")

    def test_parse_reads_nested_values(self):
        probe = build(Probe, {"name": "a", "extra": [1, 2]}, "p",
                      parse={"extra": tuple})
        assert probe.extra == (1, 2)

    def test_error_class_is_the_callers(self):
        with pytest.raises(FaultError, match="unknown key"):
            build(Probe, {"name": "a", "z": 1}, "p", error=FaultError)


#: Every dataclass a spec file spells, with its reader and the smallest
#: object it accepts.
SPEC_CLASSES = [
    (ExperimentSpec, ExperimentSpec.from_dict, {}),
    (TenancySpec, TenancySpec.from_dict, {"tenants": [{"name": "a"}]}),
    (TenantSpec, TenantSpec.from_dict, {"name": "a"}),
    (ResourceDemand, lambda raw: build(ResourceDemand, raw, "demand"), {}),
    (ArbiterConfig, lambda raw: build(ArbiterConfig, raw, "arbiter"), {}),
    (LoadSpec, lambda raw: build(LoadSpec, raw, "load"),
     {"node": "node0", "start": 1, "stop": 2}),
    (FaultSpec, FaultSpec.from_dict,
     {"kind": "thread_crash", "at": 1.0, "target": "t"}),
]


@pytest.mark.parametrize("cls, read, minimal", SPEC_CLASSES,
                         ids=[c.__name__ for c, _, _ in SPEC_CLASSES])
def test_every_field_is_a_key_and_nothing_else(cls, read, minimal):
    """A file's keys are the dataclass's fields: a field needs no second
    key list, and a name that is not a field is rejected."""
    spec = read(dict(minimal))
    assert isinstance(spec, cls)
    error = FaultError if cls is FaultSpec else ConfigError
    for field in dataclasses.fields(cls):
        value = getattr(spec, field.name)
        if dataclasses.is_dataclass(value) or field.name == "tenants":
            continue  # nested specs have their own readers
        again = read({**minimal, field.name: value})
        assert getattr(again, field.name) == value, field.name
    with pytest.raises(error, match="unknown key"):
        read({**minimal, "not_a_field": 1})


def test_documented_tenancy_example_parses():
    text = (Path(__file__).parent.parent / "docs" /
            "multi-tenancy.md").read_text()
    block = text.split("## Spec files", 1)[1].split("```json\n", 1)[1]
    spec = TenancySpec.from_dict(json.loads(block.split("```", 1)[0]))
    assert [t.name for t in spec.tenants][:2] == ["cam-0", "cam-1"]
    assert len(spec.resolve_cluster().nodes) == 8


@pytest.mark.parametrize("command, name", [
    ("run-config", "experiment.json"), ("tenants", "fleet.json"),
])
def test_example_spec_files_run(command, name, capsys):
    from repro.cli import main

    examples = Path(__file__).parent.parent / "examples"
    assert main([command, str(examples / name)]) == 0
    assert capsys.readouterr().out
