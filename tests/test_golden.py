"""Golden outputs: the CLI's files, pinned byte for byte across code changes.

Each ``golden/<case>.cfg`` has its expected outputs in ``golden/<case>/``:
``sweep.csv``, ``aep.csv``, one ``spectrum_n<n>.csv`` per volume and the
``codebook_n<n>.txt`` of the largest volume. All nine commands run in one
fresh interpreter pinned to one BLAS thread, since the last digits of the
LAPACK results depend on the thread count, and with ``-W error``, so that a
warning on a golden path fails the run. They run without ``--quiet`` from
the output directory with a relative ``--out <case>``: ``golden/stdout.txt``
pins their stdout and stderr, each command's behind a ``$`` line naming it.
``golden/check.txt`` is the stdout of ``spinaep check``, run the same way.
A last fresh interpreter builds each ``sweep.csv`` from the library's
per-volume results, so the goldens also pin what the library returns.

An intended change of output means regenerating the goldens on purpose, from
the repository root, and saying so in CHANGES.md:

    PYTHONPATH=tests python -c "import test_golden as g; g.STDOUT.write_bytes(g.run_cli(g.GOLDEN))"
    PYTHONPATH=tests python -c "import test_golden as g; g.CHECK.write_bytes(g.run_check())"
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
CHECK = GOLDEN / "check.txt"
STDOUT = GOLDEN / "stdout.txt"
SRC = GOLDEN.parents[1] / "src"
CASES = ("tfim", "dm", "generic2d")
SINGLE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

_SCRIPT = """
import contextlib, os, sys
from spinaep.cli import main

golden, out = sys.argv[1:3]
os.chdir(out)
with contextlib.redirect_stderr(sys.stdout):
    for case in sys.argv[3:]:
        for command in ("sweep", "spectrum", "codec-demo"):
            print(f"$ spinaep {command} --config {case}.cfg --out {case}")
            if main([command, "--config", f"{golden}/{case}.cfg", "--out", case]) != 0:
                sys.exit(f"spinaep {command} on {case} failed")
"""

# sweep.csv of each config named on the command line, its rows built here
# from the library's per-volume results and formatted by the CLI's _fmt
_LIBRARY_ROWS_SCRIPT = """
import sys
from spinaep import build_boundary, build_hypercube, build_interaction, parse_config
from spinaep.cli import SWEEP_COLUMNS, _fmt
from spinaep.codec import solve_volume, volume_result

for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        config = parse_config(fh.read())
    interaction, boundary = build_interaction(config), build_boundary(config)
    print(",".join(SWEEP_COLUMNS))
    for n in config.volumes:
        volume = build_hypercube(n, config.d, max_qubits=config.max_qubits)
        r = volume_result(config, n, *solve_volume(config, interaction, boundary, volume))
        ens, d = r.ensemble, r.densities
        for w in r.windows:
            sub, length = w.subspace, w.codebook.length if w.codebook else None
            for rate, mass in zip(config.rates, r.masses):
                for t, residual in zip(config.ts, r.residuals):
                    print(",".join(map(_fmt, (
                        n, ens.n_sites, config.beta, config.lam, d.h_bits * ens.n_sites, d.f, d.g, d.h_bits,
                        d.identity_residual, sub.delta, sub.dim, sub.mass, w.dim_rate, rate, mass, t, residual,
                        w.fidelity, length,
                    ))))
"""


def _run(*args: str) -> bytes:
    """The stdout of ``python args`` in a fresh interpreter at one BLAS thread, which must exit 0."""
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-W", "error", *args], env=env, capture_output=True)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr.decode())
    return proc.stdout


def run_cli(out: Path) -> bytes:
    """Write every case's outputs to ``out/<case>/``, one BLAS thread; their stdout and stderr."""
    return _run("-c", _SCRIPT, str(GOLDEN), str(out), *CASES)


def run_check() -> bytes:
    """The stdout of ``spinaep check``, one BLAS thread."""
    return _run("-m", "spinaep", "check")


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """The output directory and the printed text of one run of every case."""
    out = tmp_path_factory.mktemp("golden")
    return out, run_cli(out)


def test_outputs_match_goldens_byte_for_byte(cli_run):
    out, _ = cli_run
    mismatches = []
    for case in CASES:
        expected = sorted(p.name for p in (GOLDEN / case).iterdir())
        produced = sorted(p.name for p in (out / case).iterdir())
        assert produced == expected, f"{case}: files differ"
        mismatches += [
            f"{case}/{name}" for name in expected
            if (out / case / name).read_bytes() != (GOLDEN / case / name).read_bytes()
        ]
    assert not mismatches, f"outputs differ from the goldens: {mismatches}"


def test_printed_text_matches_golden_byte_for_byte(cli_run):
    assert cli_run[1] == STDOUT.read_bytes()


def test_check_output_matches_golden_byte_for_byte():
    assert run_check() == CHECK.read_bytes()


def test_sweep_rows_from_the_library_results_match_goldens():
    """The library's per-volume results hold every number of sweep.csv: rows
    built from them and formatted by the CLI's ``_fmt`` are the golden bytes."""
    produced = _run("-c", _LIBRARY_ROWS_SCRIPT, *(str(GOLDEN / f"{case}.cfg") for case in CASES))
    assert produced == b"".join((GOLDEN / case / "sweep.csv").read_bytes() for case in CASES)
