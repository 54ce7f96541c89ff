"""Repo-root conftest.

Its presence puts the repository root on ``sys.path`` during collection,
so the test modules' absolute helper imports (``from
tests.containers.conftest import drive``) resolve under both ``pytest``
and ``python -m pytest``, from any working directory.

It also imports Hypothesis's failure-patch module up front, when
``libcst`` is installed.  Hypothesis imports it only while reporting a
failing example, and ``libcst`` raises a ``DeprecationWarning`` on
import; under ``filterwarnings = error`` that warning became an
INTERNALERROR that hid the falsifying example.  Importing it here, with
warnings ignored for this import only, leaves the gate in force for
everything else.
"""

import importlib.util
import warnings

if all(importlib.util.find_spec(name) is not None
       for name in ("hypothesis", "libcst")):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        import hypothesis.extra._patching  # noqa: F401
