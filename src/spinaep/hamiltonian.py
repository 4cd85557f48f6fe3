"""Dense Hermitian operators on a finite volume in the product spin basis.

Basis layout: a basis index is read as a bitstring over the volume's
lexicographic site enumeration, first site = most significant bit, with
spin +1 mapping to bit 0 and spin -1 to bit 1. Boundary spins outside the
volume are frozen to a periodic reference configuration, which compresses
each boundary-crossing term onto the matrix block selected by the frozen
bits before it is embedded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import SpinAepError
from .interaction import (
    GroundStateConfig,
    Interaction,
    LocalTerm,
    _instantiation_offsets,
    support_config_index,
)
from .lattice import SPIN_UP, Site, Volume, boundary_envelope


def _bit_patterns(n_total: int, positions: Sequence[int]) -> np.ndarray:
    """Index offsets of all bit assignments over the given MSB-first positions.

    Entry ``v`` places the bits of ``v`` (MSB first) at ``positions`` of an
    ``n_total``-bit index.
    """
    k = len(positions)
    bits = (np.arange(1 << k, dtype=np.int64)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    return bits @ np.array([1 << (n_total - 1 - p) for p in positions], dtype=np.int64)


def _scatter_add(target: np.ndarray, op: np.ndarray, sites: Sequence[Site], volume: Volume) -> None:
    """Accumulate ``op`` acting on the given tensor factors into ``target``.

    Entry ``(i, j)`` of ``op`` lands on every pair of basis indices that agree
    outside ``sites``; each entry of ``target`` receives at most one addition.
    """
    n = volume.n_sites
    positions = [volume.index_of(s) for s in sites]
    rest = sorted(set(range(n)) - set(positions))
    index = _bit_patterns(n, positions)[:, None] + _bit_patterns(n, rest)
    target[index[:, None, :], index[None, :, :]] += op[:, :, None]


@dataclass(frozen=True, eq=False)
class InstantiatedTerm:
    """One translated term, compressed onto the volume by boundary freezing."""

    support: tuple[Site, ...]        # full translated support, sorted
    sites_in: tuple[Site, ...]       # support sites inside the volume
    matrix: np.ndarray               # dense block on sites_in


def _freeze_term(
    term: LocalTerm, support: tuple[Site, ...], volume: Volume, boundary: GroundStateConfig
) -> InstantiatedTerm:
    inside = [s in volume for s in support]
    sites_in = tuple(s for s, flag in zip(support, inside) if flag)
    full = term.full_matrix()
    if all(inside):
        return InstantiatedTerm(support, sites_in, full)
    # outside bits from the boundary, inside bits zero, then every inside pattern
    frozen = support_config_index(
        support, lambda s: SPIN_UP if s in volume else boundary.spin(s)
    )
    in_positions = [pos for pos, flag in enumerate(inside) if flag]
    picks = frozen + _bit_patterns(len(support), in_positions)
    block = full[np.ix_(picks, picks)]
    return InstantiatedTerm(support, sites_in, block)


def instantiate_terms(
    interaction: Interaction,
    volume: Volume,
    boundary: GroundStateConfig,
) -> list[InstantiatedTerm]:
    """Every translated term meeting the volume, boundary-frozen and ordered
    deterministically (orbit representative first, then base offset)."""
    if boundary.d != volume.d or interaction.d != volume.d:
        raise ValueError("interaction, volume, and boundary dimensions must agree")
    envelope = boundary_envelope(volume, interaction.R)
    out: list[InstantiatedTerm] = []
    for term, offsets in _instantiation_offsets(interaction, volume.sites).items():
        for off in offsets:
            support = tuple(
                tuple(c + o for c, o in zip(site, off)) for site in term.support
            )
            if not any(s in volume for s in support):
                continue
            if any(s not in volume and s not in envelope for s in support):
                raise SpinAepError(
                    f"term support {support!r} extends beyond the volume and its "
                    f"range-{interaction.R} envelope; inconsistent interaction range"
                )
            out.append(_freeze_term(term, support, volume, boundary))
    return out


def _sum_terms(volume: Volume, blocks: Iterable[tuple[np.ndarray, Sequence[Site]]]) -> np.ndarray:
    """Sum of the blocks embedded into the volume, in the given order.

    The sum is accumulated in float64 when no block has an imaginary part.
    Otherwise it is complex, and still returned real when no imaginary part
    survives the sum.
    """
    blocks = list(blocks)
    real = not any(block.imag.any() for block, _ in blocks)
    dim = 1 << volume.n_sites
    h = np.zeros((dim, dim), dtype=float if real else complex)
    for block, sites in blocks:
        _scatter_add(h, block.real if real else block, sites, volume)
    if real or h.imag.any():
        return h
    return np.ascontiguousarray(h.real)


def assemble_hamiltonian(
    interaction: Interaction,
    volume: Volume,
    boundary: GroundStateConfig,
) -> np.ndarray:
    """Boundary-pinned Hamiltonian on the volume as a dense Hermitian matrix.

    Sums every instantiated term whose support meets the volume; sites that
    stick out into the envelope are frozen to the boundary configuration.

    The result equals its conjugate transpose exactly, by construction, so
    the eigensolvers, which read one triangle, see the whole matrix: each
    :class:`~spinaep.interaction.LocalTerm` stores an exactly Hermitian
    quantum part (checked to ``HERMITICITY_TOL``, then symmetrized), freezing
    keeps a principal sub-block, and the scatter adds the exact conjugates
    ``op[a, b]`` and ``op[b, a]`` at mirrored positions in the same term
    order, so both triangles round alike. No runtime check is made.
    """
    terms = instantiate_terms(interaction, volume, boundary)
    return _sum_terms(volume, ((inst.matrix, inst.sites_in) for inst in terms))

