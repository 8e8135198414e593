"""Policy registry: resolution, suggestions, extension registration."""

import pytest

from repro.aru import AruConfig, aru_min
from repro.control import (
    POLICIES,
    SCALE_POLICIES,
    ScaleConfig,
    list_policies,
    list_scale_policies,
    register_policy,
    register_scale_policy,
    resolve_policy,
    resolve_scale_policy,
)
from repro.errors import ConfigError


def test_builtin_names_resolve():
    assert resolve_policy("no-aru").enabled is False
    assert resolve_policy("aru-min").thread_op == "min"
    assert resolve_policy("aru-max").thread_op == "max"
    assert resolve_policy("aru-pid").policy == "pid"
    with pytest.raises(ConfigError, match="unknown policy 'null'"):
        resolve_policy("null")


def test_config_passes_through():
    cfg = aru_min(headroom=1.1)
    assert resolve_policy(cfg) is cfg


def test_unknown_name_suggests_close_match():
    with pytest.raises(ConfigError, match="did you mean 'aru-min'"):
        resolve_policy("aru-mn")


def test_unknown_name_lists_available():
    with pytest.raises(ConfigError, match="available: .*no-aru"):
        resolve_policy("warp-speed")


def test_list_policies_sorted():
    names = list_policies()
    assert names == sorted(names)
    assert {"no-aru", "aru-min", "aru-max", "aru-pid"} <= set(names)
    assert "null" not in names


def test_register_custom_policy():
    # No manual cleanup: the autouse conftest fixture restores the
    # registry after every test.
    register_policy(
        "aru-pid-hot",
        lambda: AruConfig(policy="pid", headroom=1.2, name="aru-pid-hot"),
        help="over-throttling PI")
    cfg = resolve_policy("aru-pid-hot")
    assert (cfg.policy, cfg.headroom) == ("pid", 1.2)
    assert "aru-pid-hot" in POLICIES.help_text()


def test_registry_mutations_do_not_leak():
    """The previous test registered 'aru-pid-hot'; it must be gone here.

    Guards the conftest fixture that snapshots/restores registry state
    (tests run in file order, so this observes the restore)."""
    assert "aru-pid-hot" not in list_policies()


def test_none_means_aru_off():
    assert resolve_policy(None).enabled is False


def test_non_string_names_are_config_errors():
    # Unhashable names used to escape as TypeError: unhashable.
    with pytest.raises(ConfigError, match="policy must be a registered name"):
        resolve_policy(["aru-min"])
    with pytest.raises(ConfigError,
                       match="scale policy must be a registered name"):
        resolve_scale_policy({})


# -- scale-policy registry --------------------------------------------------
def test_builtin_scale_names_resolve():
    assert resolve_scale_policy("no-scale") is None
    with pytest.raises(ConfigError, match="unknown scale policy 'null-scale'"):
        resolve_scale_policy("null-scale")
    assert resolve_scale_policy("erlang") == ScaleConfig(name="erlang")
    assert resolve_scale_policy("erlang-latency").wait_budget is not None


def test_scale_none_and_config_pass_through():
    assert resolve_scale_policy(None) is None
    cfg = ScaleConfig(target_utilization=0.5)
    assert resolve_scale_policy(cfg) is cfg


def test_unknown_scale_name_suggests_close_match():
    with pytest.raises(ConfigError, match="did you mean 'erlang'"):
        resolve_scale_policy("erlng")


def test_register_custom_scale_policy():
    register_scale_policy(
        "erlang-tight",
        lambda: ScaleConfig(target_utilization=0.5, name="erlang-tight"),
        help="low-utilisation sizing")
    assert resolve_scale_policy("erlang-tight").target_utilization == 0.5
    assert "erlang-tight" in SCALE_POLICIES.help_text()


def test_scale_registry_mutations_do_not_leak():
    assert "erlang-tight" not in list_scale_policies()
