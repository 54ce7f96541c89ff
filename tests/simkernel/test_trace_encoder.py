"""The tracer's digest line is ``json.dumps(row, sort_keys=True,
default=_jsonable)``, from one reused C encoder or, without the C
accelerator, from ``JSONEncoder.encode``."""

from __future__ import annotations

import hashlib
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkernel import SimKernel
from repro.simkernel.tracing import _encode, _jsonable, _make_encode

_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-2**70, max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),                            # non-ASCII included
    st.sampled_from(["é", "日本", " ", "\x00", "🙂"]),
    st.integers(min_value=-2**62, max_value=2**62).map(np.int64),
    st.floats(allow_nan=True).map(np.float64),
    st.booleans().map(np.bool_),
    st.sampled_from([object, str.upper]))           # repr() fallback

_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=5), inner,
                                            max_size=4)),
    max_leaves=12)

_ROWS = st.tuples(st.floats(allow_nan=False, min_value=0.0),
                  st.text(max_size=10),
                  st.dictionaries(st.text(max_size=6), _VALUES, max_size=5))


def _reference(row) -> str:
    return json.dumps(row, sort_keys=True, default=_jsonable)


@given(rows=st.lists(_ROWS, min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_lines_equal_json_dumps(rows):
    fallback = json.JSONEncoder(sort_keys=True, default=_jsonable).encode
    for row in rows:
        assert _encode(row) == _reference(row) == fallback(row)


def test_fallback_without_the_c_encoder_is_encode(monkeypatch):
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    encode = _make_encode()
    assert encode.__func__ is json.JSONEncoder.encode
    row = (1.5, "k", {"b": float("nan"), "a": [np.int64(3), "é"]})
    assert encode(row) == _reference(row)


def test_a_failed_encode_leaves_the_encoder_usable():
    class Boom:
        def item(self):
            raise RuntimeError("boom")

    row = (0.0, "k", {"a": {"b": [Boom()]}})
    try:
        _encode(row)
    except RuntimeError:
        pass
    ok = (0.0, "k", {"a": {"b": [1]}})
    assert _encode(ok) == _reference(ok)


def test_the_digest_hashes_these_lines():
    kernel = SimKernel()
    kernel.trace.emit("a.b", x=np.float64(0.1), y="é", z=[float("inf")])
    kernel.trace.emit("c", nested={"k": (1, 2)})
    rows = [(0.0, "a.b", {"x": np.float64(0.1), "y": "é",
                          "z": [float("inf")]}),
            (0.0, "c", {"nested": {"k": (1, 2)}})]
    text = "".join(_reference(row) + "\n" for row in rows)
    assert kernel.trace.digest() == hashlib.sha256(text.encode()).hexdigest()
