"""Check the CSVs of one CLI run against the stored reference CSVs.

The comparison is numeric, never byte for byte: a planned change of RNG
stream or eigensolver may move last digits. It holds each run to the
package's own contracts:

- every numeric cell within ``VALUE_TOL * max(1, |reference|)`` of the
  reference, every other cell equal;
- ``identity_residual <= IDENTITY_TOL`` and
  ``|fidelity - typical_mass| <= FIDELITY_TOL`` on every sweep row.
"""

from __future__ import annotations

import csv
from pathlib import Path

VALUE_TOL = 1e-9
IDENTITY_TOL = 1e-10
FIDELITY_TOL = 1e-10
MAX_REPORTED = 5  # problems listed per file


def expected_files(command: str, volumes: tuple[int, ...]) -> list[str]:
    """Names of the CSVs a CLI command writes for the given volumes."""
    if command == "sweep":
        return ["sweep.csv", "aep.csv"]
    if command == "spectrum":
        return [f"spectrum_n{n}.csv" for n in volumes]
    raise ValueError(f"no reference outputs for command {command!r}")


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path.name} is empty")
    return rows[0], rows[1:]


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def compare_tables(name: str, header: list[str], rows: list[list[str]],
                   ref_header: list[str], ref_rows: list[list[str]]) -> list[str]:
    """Cell-by-cell numeric comparison of a table with its reference."""
    if header != ref_header:
        return [f"{name}: header {header} differs from the reference {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{name}: {len(rows)} rows, the reference has {len(ref_rows)}"]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows), start=2):
        if len(row) != len(ref):
            problems.append(f"{name}:{i}: {len(row)} cells, the reference has {len(ref)}")
            continue
        for column, cell, ref_cell in zip(header, row, ref):
            got, want = _number(cell), _number(ref_cell)
            if got is None or want is None:
                ok = cell == ref_cell
            else:
                ok = abs(got - want) <= VALUE_TOL * max(1.0, abs(want))
            if not ok:
                problems.append(f"{name}:{i}: {column} = {cell}, reference {ref_cell}")
    return problems


def check_sweep_rows(header: list[str], rows: list[list[str]]) -> list[str]:
    """The per-row contracts of sweep.csv."""
    col = {name: k for k, name in enumerate(header)}
    problems = []
    for i, row in enumerate(rows, start=2):
        residual = _number(row[col["identity_residual"]])
        if residual is None or not residual <= IDENTITY_TOL:
            problems.append(f"sweep.csv:{i}: identity_residual {row[col['identity_residual']]}")
        fid = _number(row[col["fidelity"]])
        mass = _number(row[col["typical_mass"]])
        if fid is None or mass is None or not abs(fid - mass) <= FIDELITY_TOL:
            problems.append(
                f"sweep.csv:{i}: |fidelity - typical_mass| = |{row[col['fidelity']]} - "
                f"{row[col['typical_mass']]}| exceeds {FIDELITY_TOL:g}"
            )
    return problems


def _reference_rows(header: list[str], rows: list[list[str]],
                    volumes: tuple[int, ...]) -> list[list[str]]:
    """Reference rows of the volumes run; tables without an ``n`` column are per volume."""
    if "n" not in header:
        return rows
    k = header.index("n")
    wanted = {str(n) for n in volumes}
    return [row for row in rows if row[k] in wanted]


def check_outputs(command: str, reference_dir: Path, out_dir: Path,
                  volumes: tuple[int, ...]) -> list[str]:
    """Every problem found in one run's CSVs; an empty list means the run is correct."""
    problems: list[str] = []
    for name in expected_files(command, volumes):
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name}: missing")
            continue
        try:
            header, rows = read_table(path)
        except (OSError, ValueError, csv.Error) as exc:
            problems.append(f"{name}: unreadable ({exc})")
            continue
        ref_header, ref_rows = read_table(reference_dir / name)
        found = compare_tables(name, header, rows, ref_header,
                               _reference_rows(ref_header, ref_rows, volumes))
        if name == "sweep.csv" and header == ref_header:
            found += check_sweep_rows(header, rows)
        if len(found) > MAX_REPORTED:
            found = found[:MAX_REPORTED] + [f"{name}: {len(found) - MAX_REPORTED} more problems"]
        problems += found
    return problems
