"""The typed router configuration surface: RouterPolicy and
RouterConfig (one ``ROUTER_CONFIG`` env var)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.services.router import RouterConfig, RouterPolicy


def test_policy_coerce_accepts_enum_and_string():
    assert RouterPolicy.coerce("round-robin") is RouterPolicy.ROUND_ROBIN
    assert RouterPolicy.coerce(RouterPolicy.CACHE_AFFINITY) \
        is RouterPolicy.CACHE_AFFINITY
    with pytest.raises(ConfigurationError, match="unknown router policy"):
        RouterPolicy.coerce("weighted")


def test_config_env_round_trip():
    for config in (RouterConfig(),
                   RouterConfig(policy=RouterPolicy.LEAST_OUTSTANDING,
                                port=4010),
                   RouterConfig(policy="cache-affinity", disagg=True)):
        assert RouterConfig.from_env(config.to_env()) == config
    # String policies coerce to the enum at construction.
    assert RouterConfig(policy="round-robin").policy \
        is RouterPolicy.ROUND_ROBIN


def test_config_validates_at_construction():
    with pytest.raises(ConfigurationError, match="unknown router policy"):
        RouterConfig(policy="p2c")
    with pytest.raises(ConfigurationError, match="port"):
        RouterConfig(port=0)
    with pytest.raises(ConfigurationError, match="bad ROUTER_CONFIG"):
        RouterConfig.from_env({"ROUTER_CONFIG": "{not json"})


def test_typed_env_wins_over_legacy():
    env = RouterConfig(policy="cache-affinity").to_env()
    env["ROUTER_POLICY"] = "round-robin"   # stale removed var: ignored
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no DeprecationWarning either
        config = RouterConfig.from_env(env)
    assert config.policy is RouterPolicy.CACHE_AFFINITY


def test_empty_env_is_the_default_config():
    assert RouterConfig.from_env({}) == RouterConfig()
