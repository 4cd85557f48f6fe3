"""The benchmark's tracer finds every spinaep function it hooks.

``perfbench/child.py`` wraps the functions named in its ``LAYER_CALLS``; a
renamed one would silently drop its per-layer metric, and losing all the
set-up stages would fail every benchmark sample.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def _load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CHILD_MODULE = _load_child()
SPINAEP_CALLS = [
    (module, attr) for module, attr, _ in CHILD_MODULE.LAYER_CALLS if module.startswith("spinaep")
]


@pytest.mark.parametrize("module, attr", SPINAEP_CALLS, ids=[f"{m}.{a}" for m, a in SPINAEP_CALLS])
def test_layer_call_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))

