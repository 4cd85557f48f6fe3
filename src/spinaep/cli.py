"""Experiment runner: volume sweeps emitting deterministic CSV tables.

Subcommands: ``sweep`` (full pipeline), ``spectrum`` (energy and log-weight
dump), ``codec-demo`` (codebook plus fidelity for one volume), and ``check``
(built-in oracle suite at six qubits or fewer). Reals are printed with 17
significant digits so doubles round-trip; reruns with the same config, seed,
BLAS build and BLAS thread count are byte-identical.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path
from typing import Iterable

import numpy as np

from .codec import solve_volume, volume_result
from .config import ExperimentConfig, build_boundary, build_interaction, override, parse_config
from .errors import ConfigError, NumericError, QubitCapError, SpinAepError
from .gibbs import LOG2E
from .interaction import GroundStateConfig, Interaction, model_warnings
from .lattice import Volume, build_hypercube

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAP = 3
EXIT_NUMERIC = 4

SWEEP_COLUMNS = (
    "n", "n_sites", "beta", "lambda", "S_bits", "f", "g", "h_bits",
    "identity_residual", "delta", "typical_dim", "typical_mass", "dim_rate",
    "best_rate_R", "best_rate_mass", "lln_t", "lln_residual", "fidelity",
    "codeword_len",
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _set_up(config: ExperimentConfig, out_dir: Path, quiet: bool) -> tuple[Interaction, GroundStateConfig, list[Volume]]:
    """The model, its boundary and every volume; the model checks always run, and
    their warnings and the config's are printed unless ``quiet``. A volume over
    the qubit cap raises before ``out_dir`` is made or any volume solved."""
    interaction, boundary = build_interaction(config), build_boundary(config)
    notes = [*config.warnings, *model_warnings(interaction, boundary)]
    if not quiet:
        for note in notes:
            print(f"warning: {note}", file=sys.stderr)
    volumes = [build_hypercube(n, config.d, max_qubits=config.max_qubits) for n in config.volumes]
    out_dir.mkdir(parents=True, exist_ok=True)
    return interaction, boundary, volumes


def _write_csv(path: Path, header: Iterable[str], rows: Iterable[tuple]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def run_sweep(config: ExperimentConfig, out_dir: Path, *, quiet: bool = False) -> list[Path]:
    """Execute the configured sweep and write ``sweep.csv`` and ``aep.csv``."""
    interaction, boundary, volumes = _set_up(config, out_dir, quiet)
    # Every volume is solved before the first decomposition, whose imports
    # would otherwise be resident during the later, larger solves.
    solved = []
    for n, volume in zip(config.volumes, volumes):
        ens, densities = solve_volume(config, interaction, boundary, volume)
        solved.append((n, ens, densities))
        if not quiet:
            print(f"n={n} sites={ens.n_sites} S={densities.h_bits * ens.n_sites:.6f} bits "
                  f"h={densities.h_bits:.6f} bits/site")

    sweep_rows, aep_rows = [], []
    for r in (volume_result(config, *args) for args in solved):
        ens, d = r.ensemble, r.densities
        volume_columns = (r.n, ens.n_sites, config.beta, config.lam, d.h_bits * ens.n_sites,
                          d.f, d.g, d.h_bits, d.identity_residual)
        for w in r.windows:
            sub = w.subspace
            aep_rows.append((r.n, ens.n_sites, sub.h_ref, sub.delta, sub.mass, sub.dim, w.dim_rate,
                             *r.masses, *r.residuals))
            window_columns = volume_columns + (sub.delta, sub.dim, sub.mass, w.dim_rate)
            length = w.codebook.length if w.codebook else None
            for (rate, mass), (t, residual) in itertools.product(zip(config.rates, r.masses),
                                                                 zip(config.ts, r.residuals)):
                sweep_rows.append(window_columns + (rate, mass, t, residual, w.fidelity, length))

    sweep_path = out_dir / "sweep.csv"
    _write_csv(sweep_path, SWEEP_COLUMNS, sweep_rows)
    aep_header = ["n", "n_sites", "h_ref", "delta", "typical_mass", "typical_dim", "dim_rate"]
    aep_header += [f"best_rate_mass[R={rate:g}]" for rate in config.rates]
    aep_header += [f"lln_residual[t={t:g}]" for t in config.ts]
    aep_path = out_dir / "aep.csv"
    _write_csv(aep_path, aep_header, sorted(aep_rows, key=lambda row: (row[3], row[0])))

    if not quiet:
        print(f"wrote {sweep_path} and {aep_path}")
    return [sweep_path, aep_path]


def run_spectrum(config: ExperimentConfig, out_dir: Path, *, quiet: bool = False) -> list[Path]:
    """Dump energies and log2 weights for every configured volume."""
    interaction, boundary, volumes = _set_up(config, out_dir, quiet)
    paths = []
    for n, volume in zip(config.volumes, volumes):
        ens, _ = solve_volume(config, interaction, boundary, volume)
        path = out_dir / f"spectrum_n{n}.csv"
        log2k = ens.log_weights * LOG2E
        _write_csv(path, ("j", "energy", "log2_kappa"),
                   zip(range(ens.dim), ens.spectrum.energies, log2k))
        paths.append(path)
        if not quiet:
            print(f"wrote {path}")
    return paths


def run_codec_demo(config: ExperimentConfig, out_dir: Path, *, quiet: bool = False) -> list[Path]:
    """Codebook and projection fidelity of the first delta's window of the largest configured volume."""
    interaction, boundary, volumes = _set_up(config, out_dir, quiet)
    n = config.volumes[-1]
    window = volume_result(config, n, *solve_volume(config, interaction, boundary, volumes[-1])).windows[0]
    sub, codebook = window.subspace, window.codebook
    if codebook is None:
        raise NumericError(f"empty typical subspace in codec-demo at n={n}, delta={sub.delta:g}")
    path = out_dir / f"codebook_n{n}.txt"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in codebook.lines():
            fh.write(line + "\n")
    if not quiet:
        print(f"n={n} sites={sub.n_sites} delta={sub.delta:g} typical_dim={sub.dim} "
              f"codeword_len={codebook.length} mass={sub.mass:.12f} fidelity={window.fidelity:.12f}")
        print(f"wrote {path}")
    return [path]


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    """The config file, with each given flag applied by the rule of its config key."""
    try:
        text = Path(args.config).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    config = parse_config(text)
    for key in ("seed", "max_qubits", "out"):
        value = getattr(args, key)
        if value is not None:
            config = override(config, key, str(value))
    if config.out is None:
        raise ConfigError("out: no output directory given (use --out or set out in the config)")
    return config


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="spinaep",
        description="Gibbs-state entropy, typicality, and compression sweeps for spin chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("sweep", "run the full pipeline over all configured volumes"),
        ("spectrum", "dump energies and log2 weights per volume"),
        ("codec-demo", "emit a codebook and fidelity for the largest volume"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a key = value config document")
        p.add_argument("--out", default=None, help="output directory (overrides the config)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--max-qubits", type=int, default=None, help="override the qubit cap")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    p = sub.add_parser("check", help="run the built-in oracle suite (six qubits or fewer)")
    p.add_argument("--quiet", action="store_true", help="only report failures")

    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            from .checks import run_checks  # scipy, needed by no other command

            results = run_checks()
            for r in results:
                if not r.passed or not args.quiet:
                    status = "ok" if r.passed else "FAIL"
                    print(f"{status:4s} {r.name}: {r.detail}")
            return EXIT_OK if all(r.passed for r in results) else EXIT_NUMERIC
        config = _load_config(args)
        run = {"sweep": run_sweep, "spectrum": run_spectrum, "codec-demo": run_codec_demo}[args.command]
        run(config, Path(config.out), quiet=args.quiet)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QubitCapError, MemoryError) as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return EXIT_CAP
    except SpinAepError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
