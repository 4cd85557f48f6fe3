"""Fixed-length compression of typical eigenstates.

Typical indices map bijectively onto bitstrings of one fixed length, the
smallest that can address the subspace. States outside the window compress
to an explicit flag (``None``), never to a wrong codeword. The projection
fidelity of the scheme is decomposition-independent and equals the typical
mass, which the tests pin down against random non-orthogonal decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ._arrays import readonly
from .errors import EmptySubspaceError, InvalidCodewordError
from .gibbs import GibbsEnsemble, Spectrum
from .typicality import TypicalSubspace


@dataclass(frozen=True, eq=False)
class Codebook:
    """Bijection between typical eigenstate indices and fixed-length bitstrings.

    Typical indices in ascending order map to big-endian codewords counting
    up from zero.
    """

    length: int
    indices: np.ndarray  # sorted typical eigenstate indices
    n_sites: int

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
    return Codebook(length=length, indices=subspace.indices, n_sites=subspace.n_sites)


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


def typical_projector(subspace: TypicalSubspace, spectrum: Spectrum) -> np.ndarray:
    """Orthogonal projector onto the span of the typical eigenstates."""
    if subspace.dim == 0:
        return np.zeros((spectrum.dim, spectrum.dim), dtype=complex)
    v = spectrum.vectors[:, subspace.indices]
    return v @ v.conj().T


@dataclass(frozen=True, eq=False)
class Decomposition:
    """A convex pure-state decomposition of a density matrix.

    Vectors are unit-norm columns, not necessarily orthogonal or independent.
    """

    weights: np.ndarray  # (m,) nonnegative, summing to one
    vectors: np.ndarray  # (dim, m) columns of unit norm

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        v = np.asarray(self.vectors)
        if w.ndim != 1 or v.ndim != 2 or v.shape[1] != w.size:
            raise ValueError("weights must be (m,) and vectors (dim, m)")
        # not-below comparisons so NaN entries count as failures
        if not np.all(w >= 0):
            raise ValueError("weights must be nonnegative")
        if not abs(w.sum() - 1.0) <= 1e-12:
            raise ValueError(f"weights sum to {w.sum()!r}, not 1 within 1e-12")
        norms = np.linalg.norm(v, axis=0)
        if not np.abs(norms - 1.0).max() <= 1e-10:
            raise ValueError("decomposition vectors must have unit norm within 1e-10")
        object.__setattr__(self, "weights", readonly(w))
        object.__setattr__(self, "vectors", readonly(v))

    @property
    def size(self) -> int:
        return int(self.weights.size)

    def density_matrix(self) -> np.ndarray:
        return (self.vectors * self.weights) @ self.vectors.conj().T


def make_decomposition(
    ensemble: GibbsEnsemble, m: int, seed: int | np.random.Generator | None = None
) -> Decomposition:
    """Seeded pure-state decomposition of the ensemble's density matrix.

    The weighted eigenvectors ``sqrt(kappa_j) |psi_j>`` are mixed by the Q
    factor of a complex Gaussian ``(m, dim)`` matrix, ``m >= dim``. Q has
    orthonormal columns, so the ``m`` normalized vectors, non-orthogonal in
    general, have weighted projectors that sum to the state. Q is taken from
    ``np.linalg.qr`` without fixing the phases of R's diagonal, so it is a
    random isometry but not Haar-distributed; the fidelity identity holds for
    any isometry.
    """
    dim = ensemble.dim
    if m < dim:
        raise ValueError(f"need m >= {dim} vectors to span the state, got {m}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((m, dim)) + 1j * rng.standard_normal((m, dim)))[0]
    q *= np.exp(0.5 * ensemble.log_weights)
    vectors = ensemble.spectrum.vectors @ q.T
    del q  # free Q before the normalization temporaries below
    weights = np.einsum("ij,ij->j", vectors.conj(), vectors).real
    norms = np.sqrt(weights)
    vectors /= np.maximum(norms, 1e-300)
    # zero-weight directions carry no mass; park them on the first eigenvector
    vectors[:, norms == 0] = ensemble.spectrum.vectors[:, [0]]
    weights = weights / weights.sum()
    weights.setflags(write=False)
    vectors.setflags(write=False)
    return Decomposition(weights=weights, vectors=vectors)


@dataclass(frozen=True)
class CodecRecord:
    """Trace of one decomposition vector through encode, compress, decode."""

    source_index: int
    typical_index: int | None
    codeword: str | None
    decoded_index: int | None

    @property
    def encodable(self) -> bool:
        return self.typical_index is not None


def encode_decode_maps(
    decomposition: Decomposition, subspace: TypicalSubspace, spectrum: Spectrum
) -> list[CodecRecord]:
    """Run every decomposition vector through the compression scheme.

    Encoding picks the typical eigenstate of largest overlap modulus;
    decoding picks the decomposition vector of largest overlap modulus with
    the encoded eigenstate. Ties break to the smallest index. Vectors with
    vanishing typical component are recorded as unencodable.
    """
    codebook = build_codebook(subspace)
    v_typ = spectrum.vectors[:, subspace.indices]
    overlaps = np.abs(v_typ.conj().T @ decomposition.vectors)  # (dim_typ, m)
    records = []
    for i in range(decomposition.size):
        column = overlaps[:, i]
        if float(np.linalg.norm(column)) <= 1e-12:
            records.append(CodecRecord(i, None, None, None))
            continue
        row = int(np.argmax(column))
        j = int(subspace.indices[row])
        decoded = int(np.argmax(overlaps[row, :]))
        records.append(CodecRecord(i, j, compress(codebook, j), decoded))
    return records


def fidelity(decomposition: Decomposition, projector: np.ndarray) -> float:
    """Success weight of projecting the decomposition onto a subspace.

    ``sum_i p_i <phi_i|P|phi_i>``; for the typical projector this equals the
    typical mass independently of the decomposition.
    """
    p = np.asarray(projector)
    if p.shape != (decomposition.vectors.shape[0],) * 2:
        raise ValueError("projector dimension does not match the decomposition")
    quad = np.einsum("ij,ij->j", decomposition.vectors.conj(), p @ decomposition.vectors).real
    return float(np.sum(decomposition.weights * quad))
