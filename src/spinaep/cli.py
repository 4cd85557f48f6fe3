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
import math
import sys
from pathlib import Path
from typing import Iterable

import numpy as np

from .codec import Decomposition, build_codebook, fidelity, make_decomposition
from .config import ExperimentConfig, build_boundary, build_interaction, override, parse_config
from .errors import CapabilityError, ConfigError, NumericError, QubitCapError, SpinAepError
from .gibbs import GibbsEnsemble, LOG2E, ThermoDensities, diagonalize, gibbs_ensemble, thermo_densities
from .hamiltonian import hamiltonian_rows
from .interaction import (
    MAX_CELL_SITES, GroundStateConfig, Interaction, check_perturbation_bound, find_periodic_ground_states,
)
from .lattice import Volume, build_hypercube
from .typicality import best_rate_mass, dimension_rate, lln_residual, typical_subspace

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


def _model_warnings(interaction: Interaction, boundary: GroundStateConfig) -> list[str]:
    notes = []
    try:
        notes += [
            f"term {r.term_index}: quantum norm {r.spectral_norm:.4g} exceeds the smallness bound {r.bound:.4g}"
            for r in check_perturbation_bound(interaction) if not r.satisfied
        ]
    except CapabilityError:
        notes.append("smallness bound not verified (search bound exceeded)")
    try:
        # every axis up to the longest period while that cell fits, else each axis up to its own
        uniform = (max(2, *boundary.periods),) * boundary.d
        bounds = uniform if math.prod(uniform) <= MAX_CELL_SITES else tuple(max(2, p) for p in boundary.periods)
        ground_states = find_periodic_ground_states(interaction, bounds)
        if boundary.minimal_form() not in ground_states:
            notes.append("boundary configuration is not a classical ground state of the model")
    except CapabilityError:
        notes.append("boundary ground-state membership not verified (search bound exceeded)")
    return notes


def _set_up(config: ExperimentConfig, out_dir: Path, quiet: bool) -> tuple[Interaction, GroundStateConfig, list[Volume]]:
    """The model, its boundary and every volume; the model checks always run, and
    their warnings and the config's are printed unless ``quiet``. A volume over
    the qubit cap raises before ``out_dir`` is made or any volume solved."""
    interaction = build_interaction(config)
    boundary = build_boundary(config)
    notes = [*config.warnings, *_model_warnings(interaction, boundary)]
    if not quiet:
        for note in notes:
            print(f"warning: {note}", file=sys.stderr)
    volumes = [build_hypercube(n, config.d, max_qubits=config.max_qubits) for n in config.volumes]
    out_dir.mkdir(parents=True, exist_ok=True)
    return interaction, boundary, volumes


def _run_volume(config: ExperimentConfig, interaction: Interaction,
                boundary: GroundStateConfig, volume: Volume) -> tuple[GibbsEnsemble, ThermoDensities]:
    ensemble = gibbs_ensemble(diagonalize(hamiltonian_rows(interaction, volume, boundary)), config.beta)
    return ensemble, thermo_densities(ensemble)


def _codec_inputs(config: ExperimentConfig, n: int, ens: GibbsEnsemble,
                  densities: ThermoDensities) -> tuple[float, Decomposition]:
    """Volume ``n``'s reference rate and its decomposition, seeded by the config seed and ``n``."""
    h_ref = densities.h_bits if config.h_ref is None else config.h_ref
    return h_ref, make_decomposition(ens, ens.dim, seed=np.random.default_rng([config.seed, n]))


def _write_csv(path: Path, header: Iterable[str], rows: Iterable[tuple]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def run_sweep(config: ExperimentConfig, out_dir: Path, *, quiet: bool = False) -> list[Path]:
    """Execute the configured sweep and write ``sweep.csv`` and ``aep.csv``."""
    interaction, boundary, volumes = _set_up(config, out_dir, quiet)
    sweep_rows: list[tuple] = []
    aep_rows: list[tuple] = []

    # Every volume is solved before the first decomposition, whose imports
    # would otherwise be resident during the later, larger solves.
    solved = []
    for n, volume in zip(config.volumes, volumes):
        ens, densities = _run_volume(config, interaction, boundary, volume)
        solved.append((n, ens, densities))
        if not quiet:
            print(
                f"n={n} sites={ens.n_sites} S={densities.h_bits * ens.n_sites:.6f} bits "
                f"h={densities.h_bits:.6f} bits/site"
            )

    for n, ens, densities in solved:
        h_ref, decomposition = _codec_inputs(config, n, ens, densities)
        volume_columns = (
            n, ens.n_sites, config.beta, config.lam, densities.h_bits * ens.n_sites,
            densities.f, densities.g, densities.h_bits, densities.identity_residual,
        )
        # The reference rate, best-rate and LLN columns depend on the volume only.
        masses = [best_rate_mass(ens, rate) for rate in config.rates]
        residuals = [lln_residual(ens, densities.g, t) for t in config.ts]
        for delta in config.deltas:
            sub = typical_subspace(ens, h_ref, delta)
            dim_rate = dimension_rate(sub)
            fid = fidelity(decomposition, sub)
            length = build_codebook(sub).length if sub.dim else None
            aep_rows.append((n, ens.n_sites, sub.h_ref, delta, sub.mass, sub.dim, dim_rate,
                             *masses, *residuals))
            window_columns = volume_columns + (delta, sub.dim, sub.mass, dim_rate)
            for (rate, mass), (t, residual) in itertools.product(
                zip(config.rates, masses), zip(config.ts, residuals)
            ):
                sweep_rows.append(window_columns + (rate, mass, t, residual, fid, length))

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
        ens, _ = _run_volume(config, interaction, boundary, volume)
        path = out_dir / f"spectrum_n{n}.csv"
        log2k = ens.log_weights * LOG2E
        _write_csv(path, ("j", "energy", "log2_kappa"),
                   zip(range(ens.dim), ens.spectrum.energies, log2k))
        paths.append(path)
        if not quiet:
            print(f"wrote {path}")
    return paths


def run_codec_demo(config: ExperimentConfig, out_dir: Path, *, quiet: bool = False) -> list[Path]:
    """Codebook and projection fidelity for the largest configured volume."""
    interaction, boundary, volumes = _set_up(config, out_dir, quiet)
    n = config.volumes[-1]
    ens, densities = _run_volume(config, interaction, boundary, volumes[-1])
    h_ref, decomposition = _codec_inputs(config, n, ens, densities)
    delta = config.deltas[0]
    sub = typical_subspace(ens, h_ref, delta)
    if sub.dim == 0:
        raise NumericError(f"empty typical subspace in codec-demo at n={n}, delta={delta:g}")
    codebook = build_codebook(sub)
    path = out_dir / f"codebook_n{n}.txt"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in codebook.lines():
            fh.write(line + "\n")
    fid = fidelity(decomposition, sub)
    if not quiet:
        print(
            f"n={n} sites={ens.n_sites} delta={delta:g} typical_dim={sub.dim} "
            f"codeword_len={codebook.length} mass={sub.mass:.12f} fidelity={fid:.12f}"
        )
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
        out_dir = Path(config.out)
        if args.command == "sweep":
            run_sweep(config, out_dir, quiet=args.quiet)
        elif args.command == "spectrum":
            run_spectrum(config, out_dir, quiet=args.quiet)
        else:
            run_codec_demo(config, out_dir, quiet=args.quiet)
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
