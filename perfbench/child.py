"""Run one spinaep CLI command in this process and record where its time went.

    python3 child.py RECORD MODE -- CLI-ARGS...

MODE is one of:

- ``plain``: only note the moment the first volume starts, which ends set-up;
- ``trace``: also wrap each public function that ``spinaep.cli`` calls into
  the library, plus the dense eigensolvers and QR of numpy and scipy, in a
  span (name, start, end, parent, ``ru_maxrss`` at both ends) and count the
  work those calls do.

Spans and counts stay in memory; RECORD receives them as one JSON object
when the command ends. Times are ``time.monotonic()``, a clock shared by all
processes, so the parent can set them against its own launch time.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import weakref

# (module, attribute, span name). A span name is "<layer>.<stage>".
LAYER_CALLS = (
    ("spinaep.config", "parse_config", "config.parse"),
    ("spinaep.config", "build_interaction", "config.parse"),
    ("spinaep.interaction", "check_perturbation_bound", "interaction.model_checks"),
    ("spinaep.interaction", "find_periodic_ground_states", "interaction.model_checks"),
    ("spinaep.lattice", "build_hypercube", "lattice.build"),
    ("spinaep.hamiltonian", "assemble_hamiltonian", "hamiltonian.assemble"),
    ("spinaep.gibbs", "gibbs_ensemble", "gibbs.ensemble"),
    ("spinaep.gibbs", "diagonalize", "gibbs.check"),
    ("spinaep.gibbs", "thermo_densities", "gibbs.densities"),
    ("numpy.linalg", "eigh", "gibbs.eigh"),
    ("numpy.linalg", "eigvalsh", "gibbs.eigh"),
    ("scipy.linalg", "eigh", "gibbs.eigh"),
    ("scipy.linalg", "eigvalsh", "gibbs.eigh"),
    ("spinaep.typicality", "typical_subspace", "typicality.windows"),
    ("spinaep.typicality", "best_rate_mass", "typicality.windows"),
    ("spinaep.typicality", "lln_residual", "typicality.windows"),
    ("spinaep.codec", "make_decomposition", "codec.decomposition"),
    ("numpy.linalg", "qr", "codec.qr"),
    ("scipy.linalg", "qr", "codec.qr"),
    ("spinaep.codec", "typical_projector", "codec.projector"),
    ("spinaep.codec", "fidelity", "codec.fidelity"),
    ("spinaep.cli", "run_sweep", "cli.emit"),
    ("spinaep.cli", "run_spectrum", "cli.emit"),
)

# The first call into any of these starts the first volume.
VOLUME_STAGES = frozenset({"lattice.build", "hamiltonian.assemble", "gibbs.ensemble", "gibbs.check"})

# Dense Hermitian eigensolve cost model (Golub and Van Loan): 4/3 n^3 flops
# for the values, 9 n^3 with all n vectors, linear in the vectors computed;
# a complex flop counts as four real ones.
EIGH_VALUES_FLOPS = 4.0 / 3.0
EIGH_VECTORS_FLOPS = 9.0 - EIGH_VALUES_FLOPS


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Recorder:
    """Set-up mark, spans and work counts of one CLI process."""

    def __init__(self, mode: str) -> None:
        self.mode = mode
        self.setup_mark: float | None = None
        self.spans: list[list] = []  # [name, start, end, parent, rss_start_kib, rss_end_kib]
        self.stack: list[int] = []
        self.counters = {
            "hamiltonian.calls": 0,
            "hamiltonian.h_bytes": 0,
            "gibbs.eigh_flops": 0.0,
            "gibbs.vectors_computed": 0,
            "gibbs.vectors_used": 0,
            "codec.decomposition_bytes": 0,
            "codec.fidelity_calls": 0,
            "codec.projector_rank": 0,
            "codec.projector_dim": 0,
            "cli.bytes_written": 0,
        }
        self.missing: list[str] = []
        self._spectrum = None  # weak reference to the spectrum the used-vector set belongs to
        self._used: set[int] = set()

    def install(self) -> None:
        """Replace each target function, wherever spinaep holds a reference to it."""
        for module_name, attr, span in LAYER_CALLS:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None) if module is not None else None
            if original is None:
                # numpy and scipy entries cover alternative solvers; spinaep ones must exist
                if module_name.startswith("spinaep"):
                    self.missing.append(f"{module_name}.{attr}")
                continue
            if self.mode == "trace":
                wrapper = self._traced(original, span)
            elif span in VOLUME_STAGES:
                wrapper = self._marked(original)
            else:
                continue
            holders = [module] + [
                m for name, m in list(sys.modules.items())
                if m is not None and (name == "spinaep" or name.startswith("spinaep."))
            ]
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, name, wrapper)

    def _mark(self) -> None:
        if self.setup_mark is None:
            self.setup_mark = time.monotonic()

    def _marked(self, original):
        def wrapper(*args, **kwargs):
            self._mark()
            return original(*args, **kwargs)

        return wrapper

    def _traced(self, original, span: str):
        starts_volume = span in VOLUME_STAGES

        def wrapper(*args, **kwargs):
            if starts_volume:
                self._mark()
            index = len(self.spans)
            record = [span, time.monotonic(), None, self.stack[-1] if self.stack else None,
                      _maxrss_kib(), None]
            self.spans.append(record)
            self.stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                self.stack.pop()
                record[2] = time.monotonic()
                record[5] = _maxrss_kib()
            self._count(span, args, kwargs, result)
            return result

        return wrapper

    def _count(self, span: str, args, kwargs, result) -> None:
        c = self.counters
        if span == "hamiltonian.assemble":
            c["hamiltonian.calls"] += 1
            c["hamiltonian.h_bytes"] += int(result.nbytes)
        elif span == "gibbs.eigh":
            matrix = args[0] if args else next(iter(kwargs.values()))
            n = int(matrix.shape[0])
            vectors = int(result[1].shape[1]) if isinstance(result, tuple) else 0
            flops = EIGH_VALUES_FLOPS * n**3 + EIGH_VECTORS_FLOPS * n**2 * vectors
            c["gibbs.eigh_flops"] += flops * (4 if matrix.dtype.kind == "c" else 1)
            c["gibbs.vectors_computed"] += vectors
        elif span == "codec.decomposition":
            c["codec.decomposition_bytes"] += int(result.vectors.nbytes)
        elif span == "codec.projector":
            subspace, spectrum = (list(args) + list(kwargs.values()))[:2]
            if self._spectrum is None or self._spectrum() is not spectrum:
                self._flush_used()
                self._spectrum = weakref.ref(spectrum)
            self._used.update(int(j) for j in subspace.indices)
            c["codec.projector_rank"] += int(subspace.dim)
            c["codec.projector_dim"] += int(spectrum.dim)
        elif span == "codec.fidelity":
            c["codec.fidelity_calls"] += 1
        elif span == "cli.emit":
            c["cli.bytes_written"] += sum(path.stat().st_size for path in result)

    def _flush_used(self) -> None:
        self.counters["gibbs.vectors_used"] += len(self._used)
        self._used = set()

    def write(self, path: str, exit_code: int) -> None:
        self._flush_used()
        record = {
            "mode": self.mode,
            "exit_code": exit_code,
            "setup_mark": self.setup_mark,
            "spans": self.spans,
            "counters": self.counters,
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] not in ("plain", "trace") or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    record_path, mode, cli_args = argv[0], argv[1], argv[3:]
    import spinaep.cli

    recorder = Recorder(mode)
    recorder.install()
    code = spinaep.cli.main(cli_args)
    recorder.write(record_path, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
