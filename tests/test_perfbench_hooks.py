"""The benchmark's tracer finds every spinaep function it hooks.

``perfbench/child.py`` wraps the functions named in its ``LAYER_CALLS``; a
renamed one would silently drop its per-layer metric, and losing all the
set-up stages would fail every benchmark sample.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
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



@pytest.mark.parametrize("case", ["tfim", "dm"])
def test_traced_sweep_fills_the_counters(case, tmp_path):
    """A traced sweep of a golden config counts its work.

    Resolving the names above misses a change that keeps a hooked function
    but breaks what the tracer reads from its result, such as
    ``Decomposition.vectors``. The TFIM chains take the parity blocks, and
    the dm chains of 3, 5 and 7 sites the real form.
    """
    root = CHILD.parents[1]
    record = tmp_path / "record.json"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(record), "trace", "--", "sweep",
         "--config", str(root / "tests" / "golden" / f"{case}.cfg"),
         "--out", str(tmp_path / "out"), "--quiet"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(record.read_text(encoding="utf-8"))
    assert result["exit_code"] == 0
    assert result["missing"] == []
    # the sweep reads H row by row and forms no dense matrix
    assert result["counters"]["hamiltonian.calls"] == 0
    assert result["counters"]["hamiltonian.h_bytes"] == 0
    assert result["counters"]["codec.decomposition_bytes"] > 0
    # every volume is solved before the first decomposition
    spans = result["spans"]  # [name, start, end, parent, rss_start_kib, rss_end_kib]
    last_solve = max(end for name, _, end, *_ in spans if name == "gibbs.ensemble")
    decompositions = [start for name, start, *_ in spans if name == "codec.decomposition"]
    assert len(decompositions) == 3
    assert min(decompositions) > last_solve
