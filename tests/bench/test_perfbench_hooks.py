"""Every entry point the repo benchmark's per-layer tracer wraps exists.

``perfbench/layers.py`` wraps methods by name, listed in its ``LAYERS``
table as ``(module, class, attributes)``.  A renamed or deleted method
makes the traced run raise ``LookupError``, which otherwise shows only
in the benchmark's own self-check or a failed benchmark run.  This test
loads ``layers.py`` from its file, as it is, and asks its own
``_defining_classes`` for an owner of every listed name.
"""

from __future__ import annotations

import importlib
import importlib.util
import pathlib

LAYERS_PY = (pathlib.Path(__file__).resolve().parents[2]
             / "perfbench" / "layers.py")


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  LAYERS_PY)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_entry_point_has_a_defining_class():
    layers = _load_layers()
    checked, missing = 0, []
    for layer, sites in layers.LAYERS.items():
        for module, cls_name, attrs in sites:
            cls = getattr(importlib.import_module(module), cls_name)
            for attr in attrs:
                checked += 1
                if not layers._defining_classes(cls, attr):
                    missing.append(f"{layer}: {module}.{cls_name}.{attr}")
    assert checked > 0
    assert missing == []
