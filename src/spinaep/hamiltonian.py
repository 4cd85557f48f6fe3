"""Hamiltonians on a finite volume in the product spin basis, row by row or dense.

Basis layout: a basis index is read as a bitstring over the volume's
lexicographic site enumeration, first site = most significant bit, with
spin +1 mapping to bit 0 and spin -1 to bit 1. Boundary spins outside the
volume are frozen to a periodic reference configuration, which compresses
each boundary-crossing term onto the matrix block selected by the frozen
bits before it is embedded.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ._arrays import chunk_rows
from .interaction import (
    GroundStateConfig,
    Interaction,
    LocalTerm,
    _translates,
    support_config_index,
)
from .lattice import SPIN_UP, Site, Volume


def _bit_patterns(n_total: int, positions: Sequence[int]) -> np.ndarray:
    """Index offsets of all bit assignments over the given MSB-first positions.

    Entry ``v`` places the bits of ``v`` (MSB first) at ``positions`` of an
    ``n_total``-bit index; one position at a time, so no temporary exceeds 2^k entries.
    """
    k = len(positions)
    values = np.arange(1 << k, dtype=np.int64)
    out = np.zeros_like(values)
    for j, p in enumerate(positions):
        out |= ((values >> (k - 1 - j)) & 1) << (n_total - 1 - p)
    return out


def _freeze_term(
    term: LocalTerm, support: tuple[Site, ...], volume: Volume, boundary: GroundStateConfig
) -> tuple[np.ndarray, tuple[Site, ...]]:
    inside = [s in volume for s in support]
    # outside bits from the boundary, inside bits zero, then every inside pattern
    frozen = support_config_index(support, lambda s: SPIN_UP if s in volume else boundary.spin(s))
    in_positions = [pos for pos, flag in enumerate(inside) if flag]
    picks = frozen + _bit_patterns(len(support), in_positions)
    sites_in = tuple(s for s, flag in zip(support, inside) if flag)
    return term.full_matrix()[np.ix_(picks, picks)], sites_in


def instantiate_terms(
    interaction: Interaction,
    volume: Volume,
    boundary: GroundStateConfig,
) -> list[tuple[np.ndarray, tuple[Site, ...]]]:
    """``(block, sites_in)`` for every translate of every term that meets the
    volume, once each, boundary-frozen onto its sites in the volume: the terms
    in the interaction's order, a term listed twice giving its translates
    twice, and each term's translates by ascending offset. No term is wider
    than the largest support diameter, so each translate lies in the volume
    and the envelope of that width around it."""
    if boundary.d != volume.d or interaction.d != volume.d:
        raise ValueError("interaction, volume, and boundary dimensions must agree")
    return [
        _freeze_term(term, support, volume, boundary)
        for term, support in _translates(interaction, volume.sites)
    ]


class HamiltonianRows:
    """Rows of a sum of Hermitian blocks embedded into a volume, without the dense matrix.

    :meth:`rows` returns ``H[index]`` for an integer index array. An entry
    off the diagonal receives each block's entry once, in block order,
    starting from zero. A diagonal entry sums its per-block contributions in
    ascending order, which no reordering of the blocks changes: a reflection
    maps a symmetric model's blocks onto themselves, so ``H[R s, R s] ==
    H[s, s]`` bit for bit however the couplings round. The diagonal of a
    Hermitian block is real. Each block must be finite, exactly Hermitian
    and ``2^k x 2^k`` on ``k`` distinct sites; the first that is not raises
    ``ValueError`` before any table is allocated, and one of a dtype that
    does not cast safely to complex128 raises ``TypeError``, so a long
    double is never rounded. Rows are float64 when
    every generated row is real, else complex: when some block has an
    imaginary part, the rows are scanned once here, up to the first chunk
    with an imaginary entry. The generator's key table holds ``blocks *
    dim`` keys of the narrowest unsigned type that takes ``blocks * width -
    1``, ``width`` being the largest block's order: ``blocks * dim`` bytes
    while ``blocks * width <= 256`` (every chain model of a few terms),
    twice that up to 65536.
    """

    def __init__(self, volume: Volume, blocks: Iterable[tuple[np.ndarray, Sequence[Site]]]) -> None:
        blocks = [(np.asarray(block), [volume.index_of(s) for s in sites]) for block, sites in blocks]
        if not blocks:
            raise ValueError("no blocks: H needs at least one")
        for t, (block, positions) in enumerate(blocks):
            k = len(positions)
            if len(set(positions)) != k:
                raise ValueError(f"block {t} names a site twice")
            if block.shape != (1 << k, 1 << k):
                raise ValueError(f"block {t} on {k} sites must be {1 << k} x {1 << k}, got shape {block.shape}")
            if not np.can_cast(block.dtype, complex):
                raise TypeError(f"block {t} of dtype {block.dtype} does not cast safely to complex128")
            if not np.isfinite(block).all():
                raise ValueError(f"block {t} has a non-finite entry")
            if not np.array_equal(block, block.conj().T):
                raise ValueError(f"block {t} is not exactly Hermitian")
        n, width = volume.n_sites, max(block.shape[0] for block, _ in blocks)
        self.shape = (1 << n, 1 << n)
        self.dtype = np.dtype(complex if any(block.imag.any() for block, _ in blocks) else float)
        # Row i meets block t through the pattern p of its bits on the block's
        # sites, key t * width + p: block row p lands on the columns i +
        # offsets[c] - offsets[p]. A block on fewer sites is padded with zeros
        # at step 0, on the diagonal, which is written last.
        self._keys = np.empty((len(blocks), self.shape[0]), dtype=np.min_scalar_type(len(blocks) * width - 1))
        self._steps = np.zeros((len(blocks) * width, width), dtype=np.intp)
        self._values = np.zeros((len(blocks) * width, width), dtype=self.dtype)
        self._diagonals = np.zeros(len(blocks) * width)
        basis = np.arange(self.shape[0])
        for t, (block, positions) in enumerate(blocks):
            offsets = _bit_patterns(n, positions)
            keys = slice(t * width, t * width + offsets.size)
            key = np.full(basis.size, t * width)  # in intp, then stored narrowed
            for j, p in enumerate(positions):
                key += ((basis >> (n - 1 - p)) & 1) << (len(positions) - 1 - j)
            self._keys[t] = key
            self._steps[keys, :offsets.size] = offsets[None, :] - offsets[:, None]
            self._values[keys, :offsets.size] = block if self.dtype == complex else block.real
            self._diagonals[keys] = block.diagonal().real
        step = chunk_rows(basis.size * self.dtype.itemsize)
        chunks = (basis[start:start + step] for start in range(0, basis.size, step))
        if self.dtype == complex and not any(self.rows(chunk).imag.any() for chunk in chunks):
            self.dtype, self._values = np.dtype(float), np.ascontiguousarray(self._values.real)

    def _fill(self, out: np.ndarray, index: np.ndarray, mirror: np.ndarray | None) -> None:
        """Add the rows ``index`` into the zeroed row-major ``out``, columns permuted by ``mirror``."""
        keys = self._keys[:, index]  # (blocks, rows)
        columns, diagonal = index[:, None] + self._steps[keys], index
        if mirror is not None:
            columns, diagonal = mirror[columns], mirror[index]
        columns += np.arange(0, out.size, out.shape[1])[:, None]
        # one addition per block and entry, the blocks in order
        np.add.at(out.reshape(-1), columns.reshape(-1), self._values[keys].reshape(-1))
        ordered = np.sort(self._diagonals[keys], axis=0)
        out[np.arange(index.size), diagonal] = np.add.accumulate(ordered, axis=0)[-1]

    def rows(self, index, mirror: np.ndarray | None = None) -> np.ndarray:
        """``H[index]``, or ``H[index][:, mirror]`` for a permutation ``mirror`` that is its own inverse.

        ``index`` holds integers in ``[0, dim)``; any other raises ``IndexError`` before the rows are allocated.
        """
        index = np.asarray(index).reshape(-1)
        if index.size and (index.dtype.kind not in "iu" or not 0 <= index.min() <= index.max() < self.shape[0]):
            raise IndexError(f"row indices must be integers in [0, {self.shape[0]})")
        index = index.astype(np.intp, copy=False)
        out = np.zeros((index.size, self.shape[1]), dtype=self.dtype)
        self._fill(out, index, mirror)
        return out

    def dense(self) -> np.ndarray:
        """The whole matrix, row-major, filled in place in row chunks; each entry takes four arrays."""
        dim, width = self.shape[0], self._steps.shape[1]
        h = np.zeros(self.shape, dtype=self.dtype)
        step = chunk_rows(self._keys.shape[0] * width * (24 + self.dtype.itemsize))
        for start in range(0, dim, step):
            self._fill(h[start:start + step], np.arange(start, min(start + step, dim)), None)
        return h


def hamiltonian_rows(
    interaction: Interaction,
    volume: Volume,
    boundary: GroundStateConfig,
) -> HamiltonianRows:
    """Row generator of the boundary-pinned Hamiltonian on the volume, the one path from a model to H."""
    return HamiltonianRows(volume, instantiate_terms(interaction, volume, boundary))


def assemble_hamiltonian(
    interaction: Interaction,
    volume: Volume,
    boundary: GroundStateConfig,
) -> np.ndarray:
    """Boundary-pinned Hamiltonian on the volume as a dense Hermitian matrix, row-major.

    Sums every instantiated term whose support meets the volume; sites that
    stick out into the envelope are frozen to the boundary configuration.

    The result equals its conjugate transpose exactly, by construction, so
    the eigensolvers, which read one triangle, see the whole matrix: each
    :class:`~spinaep.interaction.LocalTerm` stores an exactly Hermitian
    quantum part (checked to ``HERMITICITY_TOL``, then symmetrized), freezing
    keeps a principal sub-block, and the rows add the exact conjugates
    ``op[a, b]`` and ``op[b, a]`` at mirrored positions in the same term
    order, so both triangles round alike, and the diagonal is real. No
    runtime check is made.
    """
    return hamiltonian_rows(interaction, volume, boundary).dense()
