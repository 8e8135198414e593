"""Tests for ARU policy configuration."""

import pytest

from repro.aru import AruConfig, aru_disabled, aru_max, aru_min
from repro.errors import ConfigError


def test_presets():
    assert aru_disabled().enabled is False
    assert aru_min().enabled and aru_min().default_channel_op == "min"
    assert aru_max().default_channel_op == "max"
    assert aru_max().thread_op == "max"


def test_preset_names():
    assert aru_disabled().name == "no-aru"
    assert aru_min().name == "aru-min"
    assert aru_max().name == "aru-max"


def test_with_override():
    cfg = aru_min().with_(headroom=1.2)
    assert cfg.headroom == 1.2
    assert cfg.default_channel_op == "min"


def test_preset_kwargs():
    cfg = aru_max(stp_filter="ewma:0.2")
    assert cfg.stp_filter == "ewma:0.2"


def test_invalid_headroom():
    with pytest.raises(ConfigError):
        AruConfig(headroom=0.0)


def test_invalid_operator_rejected_eagerly():
    with pytest.raises(ConfigError):
        AruConfig(default_channel_op="bogus")


def test_invalid_filter_rejected_eagerly():
    with pytest.raises(ConfigError):
        AruConfig(stp_filter="kalman")


def test_non_numeric_parameters_are_config_errors():
    # int("abc") used to escape as a bare ValueError.
    with pytest.raises(ConfigError, match="filter 'ewma:abc'"):
        AruConfig(summary_filter="ewma:abc")
    with pytest.raises(ConfigError, match="operator 'kth:two'"):
        AruConfig(thread_op="kth:two")


def test_frozen():
    cfg = aru_min()
    with pytest.raises(Exception):
        cfg.headroom = 2.0


def test_off_is_enabled_false_only():
    """``enabled=False`` is the one way to turn the loop off: there is
    no inert policy kind beside it."""
    with pytest.raises(ConfigError, match="unknown policy kind 'null'"):
        AruConfig(policy="null")
