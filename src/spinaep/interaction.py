"""Translation-invariant finite-range interactions split into a diagonal
classical part and a small Hermitian quantum perturbation.

A model is described by one representative term per translation orbit; the
terms are instantiated at every base site when a Hamiltonian is assembled.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ._arrays import readonly
from .errors import CapabilityError
from .lattice import Site, Volume, _check_site, _is_int, connected_span_size, spin_to_bit

MAX_SUPPORT_SITES = 6
HERMITICITY_TOL = 1e-12
MAX_CELL_SITES = 16
GROUND_STATE_TIE_TOL = 1e-12


def support_config_index(support: Sequence[Site], spin_at: Callable[[Site], int]) -> int:
    """Basis index of a spin assignment on a sorted support (first site = MSB)."""
    idx = 0
    for site in support:
        idx = (idx << 1) | spin_to_bit(spin_at(site))
    return idx


def canonical_support(support: Iterable[Sequence[int]]) -> tuple[Site, ...]:
    """A support's sites as a tuple of site tuples, in the order given.

    Raises ``ValueError`` for an empty support, a coordinate that is not an
    int (a float, a str or a bool), sites of different dimensions, sites not
    distinct and in ascending lexicographic order, or more than
    ``MAX_SUPPORT_SITES`` sites.
    """
    sites = tuple(_check_site(s) for s in support)
    if not sites:
        raise ValueError("a term needs a nonempty support")
    if any(len(s) != len(sites[0]) for s in sites):
        raise ValueError("support sites have inconsistent dimensions")
    if any(a >= b for a, b in zip(sites, sites[1:])):
        raise ValueError("sites must be distinct and in ascending lexicographic order")
    if len(sites) > MAX_SUPPORT_SITES:
        raise ValueError(f"support has {len(sites)} sites, beyond the cap of {MAX_SUPPORT_SITES}")
    return sites


@dataclass(frozen=True, eq=False)
class LocalTerm:
    """One local interaction term on a set of site offsets.

    The support lists distinct sites in ascending lexicographic order, as
    :func:`canonical_support` checks, and both matrices are read in that site
    order (first site = most significant bit).
    ``classical_part`` holds the diagonal entries of the classical piece in
    the configuration basis of the support (energy units); ``quantum_part``
    is the Hermitian perturbation on the same factor ordering; every entry of
    both is finite. A quantum part within ``HERMITICITY_TOL`` of Hermitian is
    stored as its Hermitian part, so that it equals its conjugate transpose
    exactly.
    """

    support: tuple[Site, ...]
    classical_part: np.ndarray
    quantum_part: np.ndarray

    def __post_init__(self) -> None:
        support = canonical_support(self.support)
        dim = 2 ** len(support)
        classical = np.asarray(self.classical_part, dtype=float)
        if classical.shape != (dim,):
            raise ValueError(f"classical_part must have shape ({dim},), got {classical.shape}")
        quantum = np.asarray(self.quantum_part, dtype=complex)
        if quantum.shape != (dim, dim):
            raise ValueError(f"quantum_part must have shape ({dim}, {dim}), got {quantum.shape}")
        for name, part in (("classical_part", classical), ("quantum_part", quantum)):
            if not np.isfinite(part).all():
                raise ValueError(f"{name} has a non-finite entry")
        scale = max(1.0, float(np.linalg.norm(quantum)))
        if np.abs(quantum - quantum.conj().T).max() > HERMITICITY_TOL * scale:
            raise ValueError("quantum_part is not Hermitian within tolerance")
        if not np.array_equal(quantum, quantum.conj().T):
            quantum = (quantum + quantum.conj().T) / 2
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "classical_part", readonly(classical))
        object.__setattr__(self, "quantum_part", readonly(quantum))

    @property
    def d(self) -> int:
        return len(self.support[0])

    def full_matrix(self) -> np.ndarray:
        """Dense classical-plus-quantum matrix on the support."""
        return np.diag(self.classical_part).astype(complex) + self.quantum_part


@dataclass(frozen=True)
class Interaction:
    """A finite-range interaction: orbit representatives plus global parameters.

    ``lam`` is the perturbation parameter in [0, 1) and ``c``, finite and
    >= 0, the norm constant used when checking that quantum parts are
    genuinely small.
    """

    terms: tuple[LocalTerm, ...]
    lam: float
    c: float = 1.0

    def __post_init__(self) -> None:
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("an interaction needs at least one term")
        d = terms[0].d
        if any(t.d != d for t in terms):
            raise ValueError("terms have inconsistent dimensions")
        if not 0.0 <= self.lam < 1.0:
            raise ValueError(f"lam must lie in [0, 1), got {self.lam}")
        if not (self.c >= 0 and np.isfinite(self.c)):
            raise ValueError(f"c must be finite and >= 0, got {self.c}")
        object.__setattr__(self, "terms", terms)

    @property
    def d(self) -> int:
        return self.terms[0].d


def preset_tfim(J: float, h_field: float, lam: float, *, c: float = 1.0) -> Interaction:
    """Transverse-field Ising chain: -J z z on bonds, -h_field z and -lam x on sites."""
    bond = LocalTerm(
        support=((0,), (1,)),
        classical_part=np.array([-J, J, J, -J]),
        quantum_part=np.zeros((4, 4)),
    )
    onsite = LocalTerm(
        support=((0,),),
        classical_part=np.array([-h_field, h_field]),
        quantum_part=np.array([[0.0, -lam], [-lam, 0.0]]),
    )
    return Interaction(terms=(bond, onsite), lam=lam, c=c)


@dataclass(frozen=True)
class PerturbationReport:
    """A term's quantum-part spectral norm against the smallness bound."""

    term_index: int
    spectral_norm: float
    bound: float
    satisfied: bool


def check_perturbation_bound(interaction: Interaction) -> list[PerturbationReport]:
    """Check ``|Q| <= c * lam**s`` for every term, s being the connected span size.

    The spectral norm of the exactly Hermitian quantum part ``q``, its
    largest |eigenvalue|, is compared against the bound. It is taken from
    ``numpy.linalg.eigvalsh`` of ``q.real``, or, when ``q`` has an imaginary
    part, of the real symmetric ``[[Re q, -Im q], [Im q, Re q]]``, which
    holds each eigenvalue of ``q`` twice: either way LAPACK ``dsyevd``,
    which every solve loads, runs, and no SVD. The result is advisory.
    In d = 1 the span is the interval a support covers; only a support in
    d >= 2 whose bounding box exceeds ``MAX_SPAN_SEARCH_SITES`` raises
    :class:`CapabilityError`.
    """
    reports = []
    for i, term in enumerate(interaction.terms):
        q = term.quantum_part
        form = np.block([[q.real, -q.imag], [q.imag, q.real]]) if q.imag.any() else q.real
        spectral = float(np.abs(np.linalg.eigvalsh(form)).max())
        s = connected_span_size(term.support)
        bound = interaction.c * interaction.lam**s
        ok = spectral <= bound * (1.0 + 1e-9) + 1e-12
        reports.append(PerturbationReport(i, spectral, bound, ok))
    return reports


def _translates(interaction: Interaction, anchors: Collection[Site]) -> Iterator[tuple[LocalTerm, tuple[Site, ...]]]:
    """``(term, support)`` for every translate of every term that covers an
    anchor site, once each: the terms in order, each term's translates by
    ascending offset."""
    for term in interaction.terms:
        offsets = {
            tuple(a - s for a, s in zip(anchor, site))
            for anchor in anchors
            for site in term.support
        }
        for off in sorted(offsets):
            yield term, tuple(tuple(c + o for c, o in zip(site, off)) for site in term.support)


def classical_energy(interaction: Interaction, volume: Volume, spin_at: Callable[[Site], int]) -> float:
    """Classical energy of the spins ``spin_at`` gives, summed over every
    translate of every term that meets the volume, in the order of
    :func:`~spinaep.hamiltonian.instantiate_terms`: the boundary-pinned
    Hamiltonian's diagonal at zero quantum part.

    ``spin_at``, such as :meth:`GroundStateConfig.pinned` gives, must return
    +1 or -1 at each site of those supports, inside the volume and within
    the largest support diameter of it; any other value raises ``ValueError``.
    """
    if interaction.d != volume.d:
        raise ValueError("interaction and volume dimensions must agree")
    total = 0.0
    for term, support in _translates(interaction, volume.sites):
        total += float(term.classical_part[support_config_index(support, spin_at)])
    return total


@dataclass(frozen=True)
class GroundStateConfig:
    """A periodic infinite-volume configuration given by values on a period cell:
    ``cell_values`` holds one spin per cell site, the sites in lexicographic
    (row-major) order."""

    periods: tuple[int, ...]
    cell_values: tuple[int, ...]

    def __post_init__(self) -> None:
        # ints as lattice._check_site takes them, in periods and values: a
        # float or a bool equal to one is refused, not truncated or kept
        periods = tuple(self.periods)
        if not periods or not all(_is_int(p) and p >= 1 for p in periods):
            raise ValueError(f"periods must be positive ints, got {periods!r}")
        if not isinstance(self.cell_values, tuple):
            raise ValueError(f"cell_values must be a tuple of spins, got a {type(self.cell_values).__name__}")
        if len(self.cell_values) != math.prod(periods):
            raise ValueError(f"cell_values must hold one spin per cell site ({math.prod(periods)}), "
                             f"got {len(self.cell_values)}")
        bad = [v for v in self.cell_values if not (_is_int(v) and v in (1, -1))]
        if bad:
            raise ValueError(f"cell values must be the int +1 or -1, got {bad[0]!r}")
        object.__setattr__(self, "periods", periods)

    @classmethod
    def uniform(cls, d: int, spin: int) -> "GroundStateConfig":
        return cls(periods=(1,) * d, cell_values=(spin,))

    @property
    def d(self) -> int:
        return len(self.periods)

    def spin(self, site: Site) -> int:
        """The spin at ``site``, a tuple of d ints as :func:`~spinaep.lattice._check_site` takes them."""
        site = _check_site(site)
        if len(site) != self.d:
            raise ValueError(f"site {site!r} has dimension {len(site)}, the state has dimension {self.d}")
        return self.cell_values[np.ravel_multi_index(site, self.periods, mode="wrap")]

    def pinned(self, volume: Volume, inside: Mapping[Site, int]) -> Callable[[Site], int]:
        """A spin function of the site: ``inside`` on the volume, this configuration outside it."""
        return lambda site: inside[site] if site in volume else self.spin(site)

    def minimal_form(self) -> "GroundStateConfig":
        """The same configuration on its smallest period cell: each axis's
        period becomes its smallest divisor ``q`` such that shifting the cell
        by ``q`` along the axis leaves it unchanged."""
        cell = np.array(self.cell_values, dtype=np.int8).reshape(self.periods)
        for axis, p in enumerate(self.periods):
            q = next(q for q in range(1, p + 1) if p % q == 0 and (np.roll(cell, q, axis) == cell).all())
            cell = cell.take(range(q), axis)
        return GroundStateConfig(cell.shape, tuple(cell.ravel().tolist()))


def _cell_densities(interaction: Interaction, periods: tuple[int, ...], spins: np.ndarray) -> np.ndarray:
    """Classical energy per site of the periodic configuration each row of
    ``spins`` gives on the period cell, its sites in row-major order: the
    terms in order, each at every cell site, added from zero."""
    bits = spins < 0
    cell = list(itertools.product(*(range(p) for p in periods)))
    total = np.zeros(len(spins))
    for term in interaction.terms:
        weights = 1 << np.arange(len(term.support) - 1, -1, -1)  # first site = MSB
        for base in cell:
            columns = [np.ravel_multi_index([(c + b) % p for c, b, p in zip(site, base, periods)], periods)
                       for site in term.support]
            total += term.classical_part[bits[:, columns] @ weights]
    return total / len(cell)


def find_periodic_ground_states(interaction: Interaction, max_periods: tuple[int, ...]) -> list[GroundStateConfig]:
    """All periodic configurations of period <= max_periods[a] along each axis a
    minimizing the classical energy density, by exhaustive search over one period cell.

    Bounds whose cell exceeds ``MAX_CELL_SITES`` sites raise :class:`CapabilityError`.
    Configurations tied with the minimum within ``GROUND_STATE_TIE_TOL`` are
    all returned, reduced to their minimal periods and sorted deterministically.
    """
    d = interaction.d
    if not (isinstance(max_periods, tuple) and len(max_periods) == d
            and all(_is_int(p) and p >= 1 for p in max_periods)):
        raise ValueError(f"max_periods must be a tuple of one int >= 1 per axis ({d}), got {max_periods!r}")
    if math.prod(max_periods) > MAX_CELL_SITES:
        raise CapabilityError(f"period cell has {math.prod(max_periods)} sites, beyond the bound of {MAX_CELL_SITES}")

    # periods not dividing each other give distinct patterns, so every period
    # tuple up to the bounds is scanned; a cell that a shift by a proper divisor
    # of a period leaves unchanged is skipped, as it is scanned at that divisor
    scanned = []
    for periods in itertools.product(*(range(1, p + 1) for p in max_periods)):
        n_cell = math.prod(periods)
        # row i spells i in big-endian bits, built in int8: a set bit is a -1 spin, first cell site = MSB
        words = np.arange(2 ** n_cell, dtype=">u4").view(np.uint8).reshape(-1, 4)
        spins = 1 - 2 * np.unpackbits(words, axis=1)[:, 32 - n_cell:].view(np.int8)
        keep = np.ones(len(spins), dtype=bool)
        for axis, q in ((a, q) for a, p in enumerate(periods, 1) for q in range(1, p) if p % q == 0):
            keep &= (np.roll(spins.reshape(-1, *periods), q, axis).reshape(spins.shape) != spins).any(axis=1)
        spins = spins[keep]
        scanned.append((periods, spins, _cell_densities(interaction, periods, spins)))
    best = min(densities.min() for *_, densities in scanned)
    minimal = [GroundStateConfig(periods, tuple(row.tolist())) for periods, spins, densities in scanned
               for row in spins[densities <= best + GROUND_STATE_TIE_TOL]]
    return sorted(minimal, key=lambda s: (s.periods, s.cell_values))
