"""Fixed-length compression of typical eigenstates.

Typical indices map bijectively onto bitstrings of one fixed length, the
smallest that can address the subspace. States outside the window compress
to an explicit flag (``None``), never to a wrong codeword. The projection
fidelity of the scheme is decomposition-independent and equals the typical
mass. A decomposition is held in eigenbasis coordinates, mixed by a seeded
structured random isometry (random phases and unitary FFTs) that is applied,
not stored: one FFT per row sums each eigenstate's captured mass in
O(dim m log m) time and O(m) memory plus one chunk. A window's fidelity sums
its captured masses, with neither a projector nor a product-basis vector.
The tests and ``spinaep check`` pin it against the dense projector route.
:func:`solve_volume`, then :func:`volume_result`, give every number the CLI prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from ._arrays import chunk_rows, readonly
from .config import ExperimentConfig
from .errors import EmptySubspaceError, InvalidCodewordError
from .gibbs import GibbsEnsemble, ThermoDensities, diagonalize, gibbs_ensemble, thermo_densities
from .hamiltonian import hamiltonian_rows
from .interaction import GroundStateConfig, Interaction
from .lattice import Volume
from .typicality import TypicalSubspace, best_rate_mass, dimension_rate, lln_residual, typical_subspace


@dataclass(frozen=True, eq=False)
class Codebook:
    """Bijection between typical eigenstate indices and fixed-length bitstrings.

    Typical indices in ascending order map to big-endian codewords counting
    up from zero.
    """

    length: int
    indices: np.ndarray  # sorted typical eigenstate indices

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", readonly(np.asarray(self.indices, dtype=np.int64)))

    @property
    def dim(self) -> int:
        return int(self.indices.size)

    def lines(self) -> Iterator[str]:
        """Two-column export rows: codeword, eigenstate index."""
        for rank, j in enumerate(self.indices):
            yield f"{rank:0{self.length}b} {int(j)}"


def build_codebook(subspace: TypicalSubspace) -> Codebook:
    """Deterministic codebook for a nonempty typical subspace."""
    if subspace.dim == 0:
        raise EmptySubspaceError("cannot build a codebook for an empty typical subspace")
    length = max(1, (subspace.dim - 1).bit_length())
    return Codebook(length=length, indices=subspace.indices)


def compress(codebook: Codebook, j: int) -> str | None:
    """Codeword of eigenstate ``j``, or ``None`` when the state is atypical."""
    rank = int(np.searchsorted(codebook.indices, j))
    if rank < codebook.dim and codebook.indices[rank] == j:
        return f"{rank:0{codebook.length}b}"
    return None


def decompress(codebook: Codebook, word: str) -> int:
    """Eigenstate index of a codeword; inverse of :func:`compress` on its image."""
    if len(word) != codebook.length or any(c not in "01" for c in word):
        raise InvalidCodewordError(
            f"codeword must be {codebook.length} binary digits, got {word!r}"
        )
    rank = int(word, 2)
    if rank >= codebook.dim:
        raise InvalidCodewordError(
            f"codeword {word!r} has rank {rank}, beyond the {codebook.dim} typical states"
        )
    return int(codebook.indices[rank])


def typical_projector(subspace: TypicalSubspace, vectors: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the span of the typical eigenstates, the columns of ``vectors``."""
    if 1 << subspace.n_sites != vectors.shape[0]:
        raise ValueError("subspace dimension does not match the eigenvectors")
    v = vectors[:, subspace.indices]
    return v @ v.conj().T


def _squared_column_norms(a: np.ndarray) -> np.ndarray:
    """``sum_i |a_ij|^2`` for each column ``j``, with no temporary the size of ``a``."""
    return np.einsum("ij,ij->j", a.real, a.real) + np.einsum("ij,ij->j", a.imag, a.imag)


def _coefficient_rows(sqrt_kappa: np.ndarray, phases: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Row chunks ``(start, rows)`` of ``diag(sqrt_kappa) U^T``, before column normalization.

    Row ``j`` of ``D_1 F D_2 F`` is ``d_1j / sqrt(m) * G[(j + l) mod m]``
    over ``l``, ``G = F d_2``, so a row of ``U^T`` is one FFT of ``d_3 * roll(G, -j)``.
    """
    d1, d2, d3 = phases
    m = d1.size
    g = np.fft.fft(d2, norm="ortho")
    shifted = np.lib.stride_tricks.sliding_window_view(np.concatenate([g, g]), m)
    scale = sqrt_kappa * d1[:sqrt_kappa.size] / np.sqrt(m)
    step = chunk_rows(m * g.itemsize)
    for start in range(0, scale.size, step):
        rows = shifted[start:min(start + step, scale.size)] * d3
        np.fft.fft(rows, axis=1, norm="ortho", out=rows)
        rows *= scale[start:start + len(rows), None]
        yield start, rows


@dataclass(frozen=True, eq=False)
class Decomposition:
    """A convex pure-state decomposition of a density matrix, in its eigenbasis.

    Unit vectors ``phi_i`` with weights ``p_i``, held as the phases and
    ``sqrt(kappa)`` that generate their coordinates ``<psi_j|phi_i>``
    (``coefficients``) and as each eigenstate's captured mass ``sum_i p_i
    |<psi_j|phi_i>|^2``. The vectors need not be orthogonal. No eigenvector is
    held, so a decomposition is the same whichever solver gave the spectrum.
    """

    weights: np.ndarray  # (m,) nonnegative, summing to one
    captured: np.ndarray  # (dim,) nonnegative, summing to one
    phases: np.ndarray  # (3, m) unit-modulus diagonals D_1, D_2, D_3
    sqrt_kappa: np.ndarray  # (dim,) square roots of the eigenstate weights

    def __post_init__(self) -> None:
        w, r, k = (np.asarray(a, dtype=float) for a in (self.weights, self.captured, self.sqrt_kappa))
        d = np.asarray(self.phases, dtype=complex)
        if w.ndim != 1 or d.shape != (3, w.size) or k.ndim != 1 or r.shape != k.shape or k.size > w.size:
            raise ValueError("need weights (m,), phases (3, m), captured and sqrt_kappa (dim,), dim <= m")
        # not-below comparisons so NaN entries count as failures
        for name, values in (("weights", w), ("captured masses", r)):
            if not np.all(values >= 0) or not abs(values.sum() - 1.0) <= 1e-12:
                raise ValueError(f"{name} must be nonnegative and sum to 1 within 1e-12")
        if not np.all((k >= 0) & (k <= 1)) or not np.abs(np.abs(d) - 1.0).max() <= 1e-10:
            raise ValueError("need sqrt_kappa in [0, 1] and phases of unit modulus within 1e-10")
        for name, value in (("weights", w), ("captured", r), ("phases", d), ("sqrt_kappa", k)):
            object.__setattr__(self, name, readonly(value))

    @cached_property
    def coefficients(self) -> np.ndarray:
        """The (dim, m) coordinates ``<psi_j|phi_i>``, columns of unit norm.

        Formed on first access and kept, at O(dim m log m) cost; only the
        tests and the dense cross-checks need them. A zero-weight column
        carries no mass and holds the first eigenvector.
        """
        c = np.empty((self.sqrt_kappa.size, self.weights.size), dtype=complex)
        for start, rows in _coefficient_rows(self.sqrt_kappa, self.phases):
            c[start:start + len(rows)] = rows
        norms = np.sqrt(_squared_column_norms(c))
        c /= np.maximum(norms, 1e-300)
        c[:, norms == 0] = np.eye(c.shape[0], 1)
        c.setflags(write=False)
        return c

    # an alias kept because perfbench/child.py sizes a decomposition by ``vectors.nbytes``
    vectors = property(lambda self: self.coefficients)


def make_decomposition(
    ensemble: GibbsEnsemble, m: int, seed: int | np.random.Generator | None = None
) -> Decomposition:
    """Seeded pure-state decomposition of the ensemble's density matrix.

    The weighted eigenvectors ``sqrt(kappa_j) |psi_j>`` are mixed by the
    isometry ``U = (F D_3 F D_2 F D_1)[:, :dim]``, ``m >= dim``: each ``D``
    is a diagonal of random phases and ``F`` the unitary DFT of length
    ``m``, a randomized Fourier transform after Ailon and Chazelle (STOC
    2006). U has orthonormal columns, so the ``m`` normalized vectors, with
    eigenbasis coefficients the columns of ``C = diag(sqrt(kappa)) U^T``,
    non-orthogonal in general, have weighted projectors that sum to the
    state. U is not Haar-distributed; the fidelity identity holds for any
    isometry. U is applied, not stored: one pass over row chunks of C, one
    FFT per row, sums the column weights ``sum_j |C_ji|^2`` and the captured
    masses ``sum_i |C_ji|^2``, in O(dim m log m) time and O(m) memory plus
    one chunk. Of the ensemble, only the log weights are read.
    """
    dim = ensemble.dim
    if m < dim:
        raise ValueError(f"need m >= {dim} vectors to span the state, got {m}")
    rng = np.random.default_rng(seed)
    phases = np.exp(2j * np.pi * rng.random((3, m)))
    sqrt_kappa = np.exp(0.5 * ensemble.log_weights)
    weights = np.zeros(m)
    captured = np.empty(dim)
    for start, rows in _coefficient_rows(sqrt_kappa, phases):
        mass = np.square(rows.real)
        mass += np.square(rows.imag)
        weights += mass.sum(axis=0)
        captured[start:start + len(rows)] = mass.sum(axis=1)
    total = weights.sum()
    return Decomposition(weights=weights / total, captured=captured / total, phases=phases,
                         sqrt_kappa=sqrt_kappa)


def fidelity(decomposition: Decomposition, subspace: TypicalSubspace) -> float:
    """Success weight of projecting the decomposition onto the typical subspace.

    ``sum_i p_i <phi_i|P|phi_i> = sum_{j typical} sum_i p_i |<psi_j|phi_i>|^2``,
    the window's captured masses summed in O(dim_typ). It equals the typical
    mass for every decomposition. No eigenvector enters, so the value rests
    only on the energies, which :func:`~spinaep.gibbs.diagonalize` holds to
    the trace identities, and on the isometry of :func:`make_decomposition`.
    """
    if 1 << subspace.n_sites != decomposition.captured.size:
        raise ValueError("subspace dimension does not match the decomposition")
    return float(np.sum(decomposition.captured[subspace.indices]))


@dataclass(frozen=True, eq=False)
class Window:
    """One delta's typical window; ``dim_rate`` and ``codebook`` are ``None`` when it is empty."""

    subspace: TypicalSubspace
    dim_rate: float | None
    fidelity: float
    codebook: Codebook | None


@dataclass(frozen=True, eq=False)
class VolumeResult:
    """Solved volume ``n`` of a config, with the best-rate mass of each rate,
    the LLN residual of each ``t`` and the window of each delta, in config order."""

    n: int
    ensemble: GibbsEnsemble
    densities: ThermoDensities
    masses: tuple[float, ...]
    residuals: tuple[float, ...]
    windows: tuple[Window, ...]


def solve_volume(config: ExperimentConfig, interaction: Interaction, boundary: GroundStateConfig,
                 volume: Volume) -> tuple[GibbsEnsemble, ThermoDensities]:
    """The volume's Gibbs ensemble at the config's beta, and its densities."""
    ensemble = gibbs_ensemble(diagonalize(hamiltonian_rows(interaction, volume, boundary)), config.beta)
    return ensemble, thermo_densities(ensemble)


def volume_result(config: ExperimentConfig, n: int, ensemble: GibbsEnsemble,
                  densities: ThermoDensities) -> VolumeResult:
    """Volume ``n``'s result: windows centred on ``config.h_ref``, else on the volume's
    rate, their fidelities from one decomposition seeded by the config seed and ``n``."""
    h_ref = densities.h_bits if config.h_ref is None else config.h_ref
    decomposition = make_decomposition(ensemble, ensemble.dim, seed=np.random.default_rng([config.seed, n]))
    masses = tuple(best_rate_mass(ensemble, rate) for rate in config.rates)
    residuals = tuple(lln_residual(ensemble, densities.g, t) for t in config.ts)
    subspaces = [typical_subspace(ensemble, h_ref, delta) for delta in config.deltas]
    return VolumeResult(n, ensemble, densities, masses, residuals, tuple(
        Window(sub, dimension_rate(sub), fidelity(decomposition, sub), build_codebook(sub) if sub.dim else None)
        for sub in subspaces))
