"""Fixed-length compression of typical eigenstates.

Typical indices map bijectively onto bitstrings of one fixed length, the
smallest that can address the subspace. States outside the window compress
to an explicit flag (``None``), never to a wrong codeword. The projection
fidelity of the scheme is decomposition-independent and equals the typical
mass. A decomposition is held in eigenbasis coordinates, mixed by a seeded
structured random isometry (random phases and unitary FFTs), so a window's
fidelity reads the window's rows of its coefficients and needs neither a
projector nor a product-basis vector. The tests and ``spinaep check`` pin it
against the dense projector route on small volumes.
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
    """Orthogonal projector onto the span of the typical eigenstates.

    Needs the eigenvectors: pass a spectrum from :func:`~spinaep.gibbs.eigenpairs`.
    """
    vectors = spectrum.require_vectors("typical_projector")
    if subspace.dim == 0:
        return np.zeros((spectrum.dim, spectrum.dim), dtype=complex)
    v = vectors[:, subspace.indices]
    return v @ v.conj().T


def _squared_column_norms(a: np.ndarray) -> np.ndarray:
    """``sum_i |a_ij|^2`` for each column ``j``, with no temporary the size of ``a``."""
    return np.einsum("ij,ij->j", a.real, a.real) + np.einsum("ij,ij->j", a.imag, a.imag)


@dataclass(frozen=True, eq=False)
class Decomposition:
    """A convex pure-state decomposition of a density matrix, in its eigenbasis.

    Column ``i`` of ``coefficients`` holds ``<psi_j|phi_i>``, the coordinates
    of the unit vector ``phi_i`` in the eigenvectors ``psi_j``, the columns of
    ``basis``, or ``None`` when the spectrum was solved for energies only.
    The vectors are not necessarily orthogonal or independent.
    """

    weights: np.ndarray  # (m,) nonnegative, summing to one
    coefficients: np.ndarray  # (dim, m) columns of unit norm
    basis: np.ndarray | None  # (dim, dim) orthonormal eigenvectors as columns

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        c = np.asarray(self.coefficients)
        if w.ndim != 1 or c.ndim != 2 or c.shape[1] != w.size:
            raise ValueError("weights must be (m,) and coefficients (dim, m)")
        if self.basis is not None:
            b = np.asarray(self.basis)
            if b.shape != (c.shape[0],) * 2:
                raise ValueError("basis must be (dim, dim)")
            object.__setattr__(self, "basis", readonly(b))
        # not-below comparisons so NaN entries count as failures
        if not np.all(w >= 0):
            raise ValueError("weights must be nonnegative")
        if not abs(w.sum() - 1.0) <= 1e-12:
            raise ValueError(f"weights sum to {w.sum()!r}, not 1 within 1e-12")
        norms = np.sqrt(_squared_column_norms(c))
        if not np.abs(norms - 1.0).max() <= 1e-10:
            raise ValueError("decomposition coefficients must have unit-norm columns within 1e-10")
        object.__setattr__(self, "weights", readonly(w))
        object.__setattr__(self, "coefficients", readonly(c))

    @property
    def size(self) -> int:
        return int(self.weights.size)

    @property
    def vectors(self) -> np.ndarray:
        """The vectors in the product basis, ``basis @ coefficients`` with unit columns.

        Formed anew on each access at O(dim^2 m) cost; the codec never needs
        them, they serve the dense cross-checks. Without a basis these are
        the held coefficients, the same vectors in eigenbasis coordinates,
        and no product is formed.
        """
        if self.basis is None:
            return self.coefficients
        vectors = self.basis @ self.coefficients
        vectors /= np.linalg.norm(vectors, axis=0)
        return vectors


def make_decomposition(
    ensemble: GibbsEnsemble, m: int, seed: int | np.random.Generator | None = None
) -> Decomposition:
    """Seeded pure-state decomposition of the ensemble's density matrix.

    The weighted eigenvectors ``sqrt(kappa_j) |psi_j>`` are mixed by the
    isometry ``U = (F D_3 F D_2 F D_1)[:, :dim]``, ``m >= dim``: each ``D``
    is a diagonal of random phases and ``F`` the unitary DFT of length
    ``m``, a randomized Fourier transform after Ailon and Chazelle (STOC
    2006). Forming U costs O(m dim log m) FFT work. U has orthonormal
    columns, so the ``m`` normalized vectors, with eigenbasis coefficients
    the columns of ``C = diag(sqrt(kappa)) U^T``, non-orthogonal in general,
    have weighted projectors that sum to the state. U is not
    Haar-distributed; the fidelity identity holds for any isometry.
    """
    dim = ensemble.dim
    if m < dim:
        raise ValueError(f"need m >= {dim} vectors to span the state, got {m}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    # U^T = D_1 F D_2 F D_3 F on its first dim rows: scale columns, then FFT each row
    coefficients = np.eye(dim, m, dtype=complex)
    for _ in range(3):
        coefficients *= np.exp(2j * np.pi * rng.random(m))
        np.fft.fft(coefficients, axis=1, norm="ortho", out=coefficients)
    coefficients *= np.exp(0.5 * ensemble.log_weights)[:, None]
    weights = _squared_column_norms(coefficients)
    norms = np.sqrt(weights)
    coefficients /= np.maximum(norms, 1e-300)
    # zero-weight directions carry no mass; park them on the first eigenvector
    coefficients[:, norms == 0] = np.eye(dim, 1)
    weights = weights / weights.sum()
    weights.setflags(write=False)
    coefficients.setflags(write=False)
    return Decomposition(weights=weights, coefficients=coefficients, basis=ensemble.spectrum.vectors)


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


def encode_decode_maps(decomposition: Decomposition, subspace: TypicalSubspace) -> list[CodecRecord]:
    """Run every decomposition vector through the compression scheme.

    Encoding picks the typical eigenstate of largest overlap modulus;
    decoding picks the decomposition vector of largest overlap modulus with
    the encoded eigenstate. Ties break to the smallest index. Vectors with
    vanishing typical component are recorded as unencodable.
    """
    codebook = build_codebook(subspace)
    overlaps = np.abs(decomposition.coefficients[subspace.indices])  # (dim_typ, m)
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


def fidelity(decomposition: Decomposition, subspace: TypicalSubspace) -> float:
    """Success weight of projecting the decomposition onto the typical subspace.

    ``sum_i p_i <phi_i|P|phi_i> = sum_i p_i sum_{j typical} |<psi_j|phi_i>|^2``,
    read from the window's rows of the coefficients in O(dim_typ m). It
    equals the typical mass for every decomposition. No eigenvector enters:
    the eigenbasis is orthonormal by definition, so the value rests only on
    the energies, which :func:`~spinaep.gibbs.diagonalize` holds to the trace
    identities, and on the isometry of :func:`make_decomposition`.
    """
    if 1 << subspace.n_sites != decomposition.coefficients.shape[0]:
        raise ValueError("subspace dimension does not match the decomposition")
    captured = _squared_column_norms(decomposition.coefficients[subspace.indices])
    return float(np.sum(decomposition.weights * captured))
