"""Golden outputs: the CLI's files, pinned byte for byte across code changes.

Each ``golden/<case>.cfg`` has its expected outputs in ``golden/<case>/``:
``sweep.csv``, ``aep.csv``, one ``spectrum_n<n>.csv`` per volume and the
``codebook_n<n>.txt`` of the largest volume. All nine commands run in one
fresh interpreter pinned to one BLAS thread, since the last digits of the
LAPACK results depend on the thread count. ``golden/check.txt`` is the
stdout of ``spinaep check``, run the same way.

An intended change of output means regenerating the goldens on purpose, from
the repository root, and saying so in CHANGES.md:

    PYTHONPATH=tests python -c "import test_golden as g; g.run_cli(g.GOLDEN)"
    PYTHONPATH=tests python -c "import test_golden as g; g.CHECK.write_bytes(g.run_check())"
"""

import os
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
CHECK = GOLDEN / "check.txt"
SRC = GOLDEN.parents[1] / "src"
CASES = ("tfim", "dm", "generic2d")
SINGLE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

_SCRIPT = """
import sys
from spinaep.cli import main

golden, out = sys.argv[1:3]
for case in sys.argv[3:]:
    for command in ("sweep", "spectrum", "codec-demo"):
        args = [command, "--config", f"{golden}/{case}.cfg", "--out", f"{out}/{case}", "--quiet"]
        if main(args) != 0:
            sys.exit(f"spinaep {' '.join(args)} failed")
"""


def _run(*args: str) -> bytes:
    """The stdout of ``python args`` in a fresh interpreter at one BLAS thread, which must exit 0."""
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr.decode())
    return proc.stdout


def run_cli(out: Path) -> None:
    """Write every case's outputs to ``out/<case>/``, one BLAS thread."""
    _run("-c", _SCRIPT, str(GOLDEN), str(out), *CASES)


def run_check() -> bytes:
    """The stdout of ``spinaep check``, one BLAS thread."""
    return _run("-m", "spinaep", "check")


def test_outputs_match_goldens_byte_for_byte(tmp_path):
    run_cli(tmp_path)
    mismatches = []
    for case in CASES:
        expected = sorted(p.name for p in (GOLDEN / case).iterdir())
        produced = sorted(p.name for p in (tmp_path / case).iterdir())
        assert produced == expected, f"{case}: files differ"
        mismatches += [
            f"{case}/{name}" for name in expected
            if (tmp_path / case / name).read_bytes() != (GOLDEN / case / name).read_bytes()
        ]
    assert not mismatches, f"outputs differ from the goldens: {mismatches}"


def test_check_output_matches_golden_byte_for_byte():
    assert run_check() == CHECK.read_bytes()
