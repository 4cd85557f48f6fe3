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
from .lattice import SPIN_UP, Configuration, Site, Volume, bit_to_spin, boundary_envelope

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


def config_to_index(volume: Volume, config: Configuration) -> int:
    """Basis index of a configuration covering the volume."""
    return support_config_index(volume.sites, config.spin)


def index_to_config(volume: Volume, index: int) -> Configuration:
    """Configuration on the volume encoded by a basis index."""
    n = volume.n_sites
    if not 0 <= index < (1 << n):
        raise ValueError(f"index {index} outside [0, 2^{n})")
    values = {
        site: bit_to_spin((index >> (n - 1 - pos)) & 1)
        for pos, site in enumerate(volume.sites)
    }
    return Configuration(values)


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


def embed_local(op: np.ndarray, sites: Sequence[Site], volume: Volume) -> np.ndarray:
    """Embed an operator on a sorted subset of sites into the full volume.

    Acts as ``op`` on the designated tensor factors and as the identity on
    the rest, respecting the MSB-first bit layout of the volume.
    """
    sites = tuple(tuple(s) for s in sites)
    if sites != tuple(sorted(set(sites))):
        raise ValueError("sites must be distinct and lexicographically sorted")
    for s in sites:
        if s not in volume:
            raise ValueError(f"site {s!r} is not in the volume")
    op = np.asarray(op)
    dim = 1 << len(sites)
    if op.shape != (dim, dim):
        raise ValueError(f"operator must have shape ({dim}, {dim}), got {op.shape}")
    dtype = complex if np.iscomplexobj(op) else float
    out = np.zeros((1 << volume.n_sites, 1 << volume.n_sites), dtype=dtype)
    _scatter_add(out, op, sites, volume)
    return out


@dataclass(frozen=True, eq=False)
class InstantiatedTerm:
    """One translated term, compressed onto the volume by boundary freezing."""

    support: tuple[Site, ...]        # full translated support, sorted
    sites_in: tuple[Site, ...]       # support sites inside the volume
    matrix: np.ndarray  # dense block on sites_in
    full_size: int = 0               # |support| before freezing
    crosses_boundary: bool = False


def _freeze_term(
    term: LocalTerm, support: tuple[Site, ...], volume: Volume, boundary: GroundStateConfig
) -> InstantiatedTerm:
    inside = [s in volume for s in support]
    sites_in = tuple(s for s, flag in zip(support, inside) if flag)
    full = term.full_matrix()
    if all(inside):
        return InstantiatedTerm(support, sites_in, full, len(support), False)
    # outside bits from the boundary, inside bits zero, then every inside pattern
    frozen = support_config_index(
        support, lambda s: SPIN_UP if s in volume else boundary.spin(s)
    )
    in_positions = [pos for pos, flag in enumerate(inside) if flag]
    picks = frozen + _bit_patterns(len(support), in_positions)
    block = full[np.ix_(picks, picks)]
    return InstantiatedTerm(support, sites_in, block, len(support), True)


def instantiate_terms(
    interaction: Interaction,
    volume: Volume,
    boundary: GroundStateConfig,
    *,
    interior_only: bool = False,
) -> list[InstantiatedTerm]:
    """Every translated term meeting the volume, boundary-frozen and ordered
    deterministically (orbit representative first, then base offset)."""
    if boundary.d != volume.d or interaction.d != volume.d:
        raise ValueError("interaction, volume, and boundary dimensions must agree")
    envelope = boundary_envelope(volume, interaction.R)
    allowed = set(volume.sites) | envelope
    out: list[InstantiatedTerm] = []
    for term, offsets in _instantiation_offsets(interaction, volume.sites).items():
        for off in offsets:
            support = tuple(
                tuple(c + o for c, o in zip(site, off)) for site in term.support
            )
            touched = [s for s in support if s in volume]
            if not touched:
                continue
            if interior_only and len(touched) != len(support):
                continue
            outside = [s for s in support if s not in volume]
            if any(s not in allowed for s in outside):
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
    *,
    interior_only: bool = False,
) -> np.ndarray:
    """Boundary-pinned Hamiltonian on the volume as a dense Hermitian matrix.

    Sums every instantiated term whose support meets the volume; sites that
    stick out into the envelope are frozen to the boundary configuration.
    With ``interior_only`` set, terms crossing the boundary are dropped
    instead of frozen.

    The result equals its conjugate transpose exactly, by construction, so
    the eigensolvers, which read one triangle, see the whole matrix: each
    :class:`~spinaep.interaction.LocalTerm` stores an exactly Hermitian
    quantum part (checked to ``HERMITICITY_TOL``, then symmetrized), freezing
    keeps a principal sub-block, and the scatter adds the exact conjugates
    ``op[a, b]`` and ``op[b, a]`` at mirrored positions in the same term
    order, so both triangles round alike. No runtime check is made.
    """
    terms = instantiate_terms(interaction, volume, boundary, interior_only=interior_only)
    return _sum_terms(volume, ((inst.matrix, inst.sites_in) for inst in terms))


def theta_observable(
    interaction: Interaction,
    volume: Volume,
    boundary: GroundStateConfig,
    site: Site,
) -> np.ndarray:
    """Per-site energy share: terms containing the site, each weighted by the
    reciprocal of its untruncated support size, boundary-frozen as usual."""
    site = tuple(site)
    if site not in volume:
        raise ValueError(f"site {site!r} is not in the volume")
    return _sum_terms(volume, (
        (inst.matrix / inst.full_size, inst.sites_in)
        for inst in instantiate_terms(interaction, volume, boundary)
        if site in inst.support
    ))
