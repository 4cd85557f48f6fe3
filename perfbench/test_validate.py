"""The output check that feeds the benchmark's error rate.

    python3 -m pytest perfbench/test_validate.py
"""

import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import validate  # noqa: E402


def _sample(out_dir: Path) -> run.Sample:
    sample = run.Sample(mode="plain", threads=1)
    sample.problems = validate.check_outputs("sweep", run.REFERENCE / "sweep-tfim11", out_dir, run.VOLUMES)
    return sample


def test_one_corrupted_value_counts_in_error_rate(tmp_path):
    clean = tmp_path / "clean"
    corrupt = tmp_path / "corrupt"
    shutil.copytree(run.REFERENCE / "sweep-tfim11", clean)
    shutil.copytree(run.REFERENCE / "sweep-tfim11", corrupt)

    # Move one best_rate_mass value of aep.csv by 1e-6, far past the 1e-9 tolerance.
    path = corrupt / "aep.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[-1].split(",")
    cells[-2] = repr(float(cells[-2]) + 1e-6)
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    samples = [_sample(clean), _sample(corrupt)]
    assert samples[0].problems == []
    assert len(samples[1].problems) == 1
    assert run.tally(samples) == (2, 1)
    assert run.error_rate(samples) == 0.5


def test_last_digit_changes_pass():
    header, rows = validate.read_table(run.REFERENCE / "sweep-tfim11" / "sweep.csv")
    k = header.index("typical_mass")
    moved = [row[:k] + [repr(float(row[k]) * (1 + 1e-13))] + row[k + 1:] for row in rows]
    assert validate.compare_tables("sweep.csv", header, moved, header, rows) == []


def test_fidelity_must_match_typical_mass():
    header, rows = validate.read_table(run.REFERENCE / "sweep-tfim11" / "sweep.csv")
    k = header.index("fidelity")
    rows[3][k] = repr(float(rows[3][k]) + 1e-8)
    problems = validate.check_sweep_rows(header, rows)
    assert len(problems) == 1 and "fidelity" in problems[0]
