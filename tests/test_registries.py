"""The one :class:`~repro.registry.Registry` contract, checked on every
module-level registry in ``repro``, and the domain resolvers in front
of them."""

import importlib
import pkgutil
import re

import pytest

import repro
from repro.aru.filters import resolve_factory
from repro.bench import PROBES
from repro.errors import ConfigError
from repro.experiment import ExperimentSpec
from repro.gc import make_gc
from repro.registry import Registry


def module_registries():
    """Every :class:`Registry` bound to a module-level name in ``repro``,
    once each (packages re-export their submodules' registries)."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        for value in vars(importlib.import_module(info.name)).values():
            if isinstance(value, Registry):
                found[id(value)] = value
    return sorted(found.values(), key=lambda registry: registry.kind)


REGISTRIES = module_registries()


@pytest.fixture(params=REGISTRIES,
                ids=[registry.kind.replace(" ", "-") for registry in REGISTRIES])
def registry(request):
    return request.param


def test_conftest_restores_every_registry(isolated_registries):
    restored = {id(registry) for registry in isolated_registries}
    missing = [r.kind for r in REGISTRIES if id(r) not in restored]
    assert not missing, f"tests/conftest.py REGISTRIES lacks {missing}"


def test_empty_name_rejected(registry):
    with pytest.raises(ConfigError, match="non-empty"):
        registry.register("", object())


def test_taken_name_rejected(registry):
    with pytest.raises(ConfigError, match="already registered"):
        registry.register(registry.names()[0], object())


@pytest.mark.parametrize("name", [["x"], {}, 42, None])
def test_non_string_name_rejected(registry, name):
    with pytest.raises(ConfigError, match="must be a registered name"):
        registry.get(name)
    with pytest.raises(ConfigError, match="non-empty string"):
        registry.register(name, object())
    assert name not in registry


def test_unknown_name_suggests(registry):
    name = registry.names()[0]
    with pytest.raises(ConfigError, match=(
            f"unknown {registry.kind} '{re.escape(name)}x'; "
            f"did you mean .*'{re.escape(name)}'")):
        registry.get(name + "x")


def test_names_sorted_and_catalogued(registry):
    names = registry.names()
    assert names and names == sorted(names)
    assert all(name in registry for name in names)
    text = registry.help_text()
    assert text.startswith(f"registered {registry.plural}:")
    assert all(name in text for name in names)


def test_registered_name_resolves(registry):
    value = object()
    registry.register("contract-test", value, help="registered by a test")
    assert registry.get("contract-test") is value
    assert "registered by a test" in registry.help_text()


@pytest.mark.parametrize("resolve, suggestion", [
    (lambda: make_gc("dgcc"), "dgc"),
    (lambda: resolve_factory("ewmaa:0.2"), "ewma"),
    (lambda: PROBES.get("ce_stat"), "ce_stats"),
    (lambda: ExperimentSpec(app="trackr").resolve_graph(), "tracker"),
], ids=["collector", "filter", "probe", "app"])
def test_domain_resolvers_suggest(resolve, suggestion):
    with pytest.raises(ConfigError, match=f"did you mean '{suggestion}'"):
        resolve()
