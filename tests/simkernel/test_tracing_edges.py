"""Tracer edge case: digest stability for non-JSON field values."""

from __future__ import annotations

import enum

import numpy as np
import pytest

from repro.simkernel import SimKernel


@pytest.fixture
def tracer(kernel):
    return kernel.trace


def test_digest_stable_for_numpy_scalars_and_enums(tracer):
    class Mode(enum.Enum):
        FAST = "fast"

    tracer.emit("step", batch=np.int64(32), util=np.float32(0.5),
                ok=np.bool_(True), mode=Mode.FAST)
    first = tracer.digest()
    assert len(first) == 64
    assert tracer.digest() == first      # digesting is read-only
    # The same event with plain Python numbers hashes identically for
    # int-valued fields (numpy scalars digest via .item()).
    k2 = SimKernel(seed=1)
    k2.trace.emit("step", batch=32, util=np.float32(0.5).item(),
                  ok=True, mode=Mode.FAST)
    assert k2.trace.digest() == first
