"""The one ``vllm serve`` schema: ``EngineArgs`` declares every flag.

The parser takes each flag's type from the ``EngineArgs`` annotations and
the renderer walks ``SERVE_FLAGS``.  Two hand-written copies of both,
frozen below as they were before the schema replaced them, are the
oracles: over drawn deploy parameters and drawn argv, the schema-driven
code must render the same commands, parse to equal ``EngineArgs`` and
refuse with the same error.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import fields
from typing import Any

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import build_sandia_site, vllm_package
from repro.core.package import vllm_serve_flags
from repro.core.translate import helm_values_for
from repro.errors import ConfigurationError
from repro.vllm.config import (FLAG_TYPES, SERVE_FLAGS, EngineArgs,
                               parse_serve_command)
from repro.vllm.scheduler import SCHEDULER_POLICIES

SCOUT = "meta-llama/Llama-4-Scout-17B-16E-Instruct"

#: The fields the command heads name themselves (Figures 4-6).
HEADS = {"model", "tensor_parallel_size", "host", "port"}


# -- the frozen oracles ---------------------------------------------------------------


def oracle_serve_flags(params: dict[str, Any],
                       served_name: bool = True) -> list[str]:
    flags: list[str] = []
    pp = int(params.get("pipeline_parallel_size", 1))
    if pp > 1:
        flags.append(f"--pipeline_parallel_size={pp}")
    if params.get("disable_log_requests", True):
        flags.append("--disable-log-requests")
    if params.get("enable_prefix_caching"):
        flags.append("--enable-prefix-caching")
    gmu = params.get("gpu_memory_utilization")
    if gmu is not None:
        flags.append(f"--gpu_memory_utilization={float(gmu)}")
    max_len = params.get("max_model_len")
    if max_len is not None:
        flags.append(f"--max-model-len={int(max_len)}")
    served = params.get("served_model_name")
    if served and served_name:
        flags.append(f"--served-model-name={served}")
    policy = params.get("scheduler_policy")
    if policy and policy != "fcfs":
        flags.append(f"--scheduler-policy={policy}")
    chunk = params.get("chunk_tokens")
    if chunk is not None:
        flags.append(f"--chunk-tokens={int(chunk)}")
    role = params.get("disagg_role")
    if role and role != "unified":
        flags.append(f"--disagg-role={role}")
    overrides = params.get("override_generation_config")
    if overrides:
        flags.append(
            f"--override-generation-config={json.dumps(overrides)}")
    return flags


def oracle_parse(command: tuple[str, ...]) -> EngineArgs:
    args = list(command)
    if args and args[0] == "vllm":
        args.pop(0)
    if args and args[0] == "serve":
        args.pop(0)
    if not args or args[0].startswith("--"):
        raise ConfigurationError(
            f"vllm serve needs a model argument, got {command!r}")
    model = args.pop(0)
    kwargs: dict = {}
    i = 0
    while i < len(args):
        token = args[i]
        if not token.startswith("--"):
            raise ConfigurationError(f"unexpected argument {token!r}")
        if "=" in token:
            flag, value = token[2:].split("=", 1)
            i += 1
        else:
            flag = token[2:]
            if flag in ("disable-log-requests", "disable_log_requests",
                        "enable-prefix-caching", "enable_prefix_caching"):
                value = "true"
                i += 1
            else:
                if i + 1 >= len(args):
                    raise ConfigurationError(f"flag {token!r} needs a value")
                value = args[i + 1]
                i += 2
        key = flag.replace("-", "_")
        if key == "tensor_parallel_size":
            kwargs[key] = int(value)
        elif key == "pipeline_parallel_size":
            kwargs[key] = int(value)
        elif key == "max_model_len":
            kwargs[key] = int(value)
        elif key == "max_num_seqs":
            kwargs[key] = int(value)
        elif key == "gpu_memory_utilization":
            kwargs[key] = float(value)
        elif key == "served_model_name":
            kwargs[key] = value
        elif key == "host":
            kwargs[key] = value
        elif key == "port":
            kwargs[key] = int(value)
        elif key == "disable_log_requests":
            kwargs[key] = value.lower() in ("1", "true", "yes")
        elif key == "enable_prefix_caching":
            kwargs[key] = value.lower() in ("1", "true", "yes")
        elif key == "scheduler_policy":
            kwargs[key] = value
        elif key == "chunk_tokens":
            kwargs[key] = int(value)
        elif key == "disagg_role":
            kwargs[key] = value
        elif key == "override_generation_config":
            try:
                kwargs[key] = json.loads(value)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"bad JSON for --override-generation-config: {exc}"
                ) from exc
        else:
            raise ConfigurationError(f"unknown vllm serve flag --{flag}")
    return EngineArgs(model=model, **kwargs)


# -- rendering ------------------------------------------------------------------------

#: Every engine field absent, at its default, or at other values; plus
#: deploy parameters that are not engine flags.
PARAMS = st.fixed_dictionaries({"model": st.just(SCOUT)}, optional={
    "tensor_parallel_size": st.integers(1, 8),
    "host": st.just("0.0.0.0") | st.just("127.0.0.1"),
    "port": st.just(8000) | st.integers(1024, 65535),
    "pipeline_parallel_size": st.just(1) | st.integers(1, 4),
    "disable_log_requests": st.booleans(),
    "enable_prefix_caching": st.booleans(),
    "gpu_memory_utilization": st.just(0.90) | st.floats(0.1, 1.0),
    "max_model_len": st.none() | st.integers(16, 131072),
    "max_num_seqs": st.just(1024) | st.integers(1, 4096),
    "served_model_name": st.none() | st.sampled_from(["", "scout",
                                                       "team/llm"]),
    "scheduler_policy": st.none() | st.sampled_from(SCHEDULER_POLICIES),
    "chunk_tokens": st.none() | st.just(512) | st.integers(1, 4096),
    "disagg_role": st.none() | st.sampled_from(["unified", "prefill",
                                                "decode"]),
    "override_generation_config": st.none() | st.dictionaries(
        st.sampled_from(["attn_temperature_tuning", "temperature"]),
        st.booleans() | st.floats(0.0, 2.0), max_size=2),
    "name": st.just("vllm-a"),
    "replicas": st.integers(1, 3),
})


def _max_num_seqs(params: dict[str, Any]) -> list[str]:
    """The one flag the oracle renderer never wrote."""
    n = params.get("max_num_seqs")
    return [] if n is None else [f"--max-num-seqs={n}"]


@pytest.fixture(scope="module")
def chart_site():
    return build_sandia_site(seed=11, hops_nodes=1, eldorado_nodes=1,
                             goodall_nodes=1, cee_nodes=1)


@settings(max_examples=250, deadline=None)
@given(PARAMS)
@example({"model": SCOUT})
@example({"model": SCOUT, "served_model_name": "scout",
          "scheduler_policy": "fcfs", "disagg_role": "unified",
          "pipeline_parallel_size": 1, "override_generation_config": {}})
def test_renderer_matches_the_oracle(chart_site, params):
    """Flags, the Podman/Apptainer argv and the Helm chart command are
    the oracle's, plus ``--max-num-seqs`` when the parameters set it."""
    tail = _max_num_seqs(params)
    assert vllm_serve_flags(params) == oracle_serve_flags(params) + tail
    pkg = vllm_package()
    tp = int(params.get("tensor_parallel_size", 1))
    podman = pkg.command(params)
    assert podman == ("serve", SCOUT, f"--tensor_parallel_size={tp}",
                      *oracle_serve_flags(params), *tail)
    chart = helm_values_for(chart_site, pkg, pkg.variant_for("cuda"),
                            pkg.profile(), params)["image"]["command"]
    served = params.get("served_model_name") or SCOUT
    assert chart == ["vllm", "serve", "/data/", "--host", "0.0.0.0",
                     "--port", "8000", "--served-model-name", served,
                     f"--tensor-parallel-size={tp}",
                     *oracle_serve_flags(params, served_name=False), *tail]
    for argv in (podman, tuple(chart)):
        assert parse_serve_command(argv) == oracle_parse(argv)


# -- parsing --------------------------------------------------------------------------

#: Flag names: every field (``model`` is positional, so no flag) and
#: names no field has.
FLAG_NAMES = st.sampled_from(
    sorted(f.name for f in fields(EngineArgs)) + ["bogus", "max_len"])

VALUES = st.sampled_from([
    "0", "1", "2", "16", "-1", "4096", "0.5", "0.05", "0.9", "1.5", "nan",
    "true", "false", "yes", "TRUE", "no", "fcfs", "priority", "chunked",
    "sjf", "unified", "prefill", "decode", "scout", "abc", "",
    '{"temperature": 0.5}', '{"attn_temperature_tuning": true}', "{}",
    "[1, 2]", "{bad", '{"a":'])


@st.composite
def _flag_tokens(draw) -> list[str]:
    """One flag in either spelling: ``--f=v``, ``--f v`` or bare."""
    name = draw(FLAG_NAMES)
    spelled = "--" + (name if draw(st.booleans())
                      else name.replace("_", "-"))
    form = draw(st.sampled_from(["eq", "space", "bare"]))
    if form == "bare":
        return [spelled]
    value = draw(VALUES)
    return [f"{spelled}={value}"] if form == "eq" else [spelled, value]


ARGV = st.builds(
    lambda prefix, model, groups: tuple(
        [*prefix, *model, *(token for group in groups for token in group)]),
    st.sampled_from([(), ("serve",), ("vllm", "serve")]),
    st.sampled_from([(), ("/data/",), ("m",)]),
    st.lists(_flag_tokens() | st.just(["stray"]), max_size=6))


def _outcome(parse, argv):
    try:
        return parse(argv)
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(ARGV)
@example(("serve", "m", "--max-model-len"))
@example(("serve", "m", "--enable_prefix_caching", "--max_num_seqs=8"))
@example(("serve", "m", "--override-generation-config={bad"))
@example(("serve", "m", "--override_generation_config", "{}"))
@example(("serve", "m", "--model=x"))
@example(("serve", "m", "--disable-log-requests=yes", "--enable_prefix_caching=No"))
@example(("serve", "m", "--enable-prefix-caching", "YES"))
@example(("serve", "m", "--bogus"))
@example(("serve", "--tensor_parallel_size=4"))
@example(("vllm", "serve", "/data/", "--port", "abc"))
def test_parser_matches_the_oracle(argv):
    """Equal ``EngineArgs``, or the same exception type and message."""
    assert _outcome(parse_serve_command, argv) == _outcome(oracle_parse,
                                                           argv)


# -- coverage -------------------------------------------------------------------------

#: A value off the default for every field the heads do not name.
SAMPLES: dict[str, Any] = {
    "pipeline_parallel_size": 2,
    "max_model_len": 4096,
    "gpu_memory_utilization": 0.5,
    "max_num_seqs": 64,
    "enable_prefix_caching": True,
    "served_model_name": "scout",
    "disable_log_requests": True,
    "override_generation_config": {"temperature": 0.5},
    "scheduler_policy": "priority",
    "chunk_tokens": 256,
    "disagg_role": "decode",
}

FLAG_FIELDS = sorted(f.name for f in fields(EngineArgs)
                     if f.name not in HEADS)


def test_every_engine_field_has_exactly_one_row():
    rows = Counter(flag.field for flag in SERVE_FLAGS)
    assert sorted(rows) == FLAG_FIELDS
    assert set(rows.values()) == {1}
    for flag in SERVE_FLAGS:
        assert flag.spelling[2:].replace("-", "_") == flag.field
    assert set(FLAG_TYPES) == {f.name for f in fields(EngineArgs)} - {"model"}
    assert {FLAG_TYPES[name] for name in FLAG_FIELDS} == {
        int, float, str, bool, dict}


@pytest.mark.parametrize("field", FLAG_FIELDS)
def test_each_flag_round_trips(field):
    params = {"model": "m", "disable_log_requests": False,
              field: SAMPLES[field]}
    head = ("serve", "m", "--tensor_parallel_size=1")
    assert parse_serve_command(head + tuple(vllm_serve_flags(params))) == \
        EngineArgs(**params)


def test_every_flag_at_once_round_trips_through_the_package():
    params = {"model": "m", "tensor_parallel_size": 2, **SAMPLES}
    args = parse_serve_command(vllm_package().command(params))
    assert args == EngineArgs(**params)
    assert args.max_num_seqs == 64
