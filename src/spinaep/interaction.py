"""Translation-invariant finite-range interactions split into a diagonal
classical part and a small Hermitian quantum perturbation.

A model is described by one representative term per translation orbit; the
terms are instantiated at every base site when a Hamiltonian is assembled.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ._arrays import readonly
from .errors import CapabilityError
from .lattice import (Site, Volume, _check_site, _is_int, connected_span_size, linf_diameter,
                      spin_to_bit)

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
    def n_sites(self) -> int:
        return len(self.support)

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
    genuinely small. The range :attr:`R` is read off the terms.
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

    @property
    def R(self) -> int:
        """The range: the largest support diameter of a term."""
        return max(linf_diameter(t.support) for t in self.terms)


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
    """Per-term norms of the quantum part against the smallness bound."""

    term_index: int
    spectral_norm: float
    hilbert_schmidt_norm: float
    span_size: int
    bound: float
    satisfied: bool


def check_perturbation_bound(interaction: Interaction) -> list[PerturbationReport]:
    """Check ``|Q| <= c * lam**s`` for every term, s being the connected span size.

    The spectral norm is compared against the bound; the Hilbert-Schmidt norm
    is reported alongside. The result is advisory; a support whose bounding
    box exceeds ``MAX_SPAN_SEARCH_SITES`` raises :class:`CapabilityError`.
    """
    reports = []
    for i, term in enumerate(interaction.terms):
        spectral = float(np.linalg.norm(term.quantum_part, ord=2))
        hs = float(np.linalg.norm(term.quantum_part))
        s = connected_span_size(term.support)
        bound = interaction.c * interaction.lam**s
        ok = spectral <= bound * (1.0 + 1e-9) + 1e-12
        reports.append(PerturbationReport(i, spectral, hs, s, bound, ok))
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
    the range R of it; any other value raises ``ValueError``.
    """
    if interaction.d != volume.d:
        raise ValueError("interaction and volume dimensions must agree")
    total = 0.0
    for term, support in _translates(interaction, volume.sites):
        total += float(term.classical_part[support_config_index(support, spin_at)])
    return total


@dataclass(frozen=True)
class GroundStateConfig:
    """A periodic infinite-volume configuration given by values on a period cell."""

    periods: tuple[int, ...]
    cell_values: Mapping[Site, int]

    def __post_init__(self) -> None:
        # ints as lattice._check_site takes them, in periods, site keys and
        # values: a float or a bool equal to one is refused, not truncated or kept
        periods = tuple(self.periods)
        if not periods or not all(_is_int(p) and p >= 1 for p in periods):
            raise ValueError(f"periods must be positive ints, got {periods!r}")
        expected = set(itertools.product(*(range(p) for p in periods)))
        cleaned = {_check_site(s): v for s, v in self.cell_values.items()}
        if set(cleaned) != expected:
            raise ValueError("cell_values must cover exactly the period cell")
        bad = [v for v in cleaned.values() if not (_is_int(v) and v in (1, -1))]
        if bad:
            raise ValueError(f"cell values must be the int +1 or -1, got {bad[0]!r}")
        object.__setattr__(self, "periods", periods)
        object.__setattr__(self, "cell_values", dict(sorted(cleaned.items())))

    @classmethod
    def uniform(cls, d: int, spin: int) -> "GroundStateConfig":
        return cls(periods=(1,) * d, cell_values={(0,) * d: spin})

    @property
    def d(self) -> int:
        return len(self.periods)

    def __hash__(self) -> int:
        # cell_values is stored sorted, so equal cells list their items alike
        return hash((self.periods, tuple(self.cell_values.items())))

    def spin(self, site: Site) -> int:
        if len(site) != self.d:
            raise ValueError(f"site {site!r} has dimension {len(site)}, the state has dimension {self.d}")
        return self._cell_spin(site)

    def _cell_spin(self, site: Site) -> int:  # spin, the site's dimension unchecked
        return self.cell_values[tuple(c % p for c, p in zip(site, self.periods))]

    def pinned(self, volume: Volume, inside: Mapping[Site, int]) -> Callable[[Site], int]:
        """A spin function of the site: ``inside`` on the volume, this configuration outside it."""
        return lambda site: inside[site] if site in volume else self.spin(site)

    def minimal_form(self) -> "GroundStateConfig":
        """The same configuration on its smallest period cell: each axis's
        period becomes its smallest divisor ``q`` such that shifting every
        cell site by ``q`` along the axis leaves its spin unchanged."""
        cell = self.cell_values.items()
        periods = tuple(
            next(q for q in range(1, p + 1) if p % q == 0
                 and all(self._cell_spin(s[:axis] + (s[axis] + q,) + s[axis + 1:]) == v for s, v in cell))
            for axis, p in enumerate(self.periods)
        )
        sites = itertools.product(*(range(p) for p in periods))
        return GroundStateConfig(periods, {s: self._cell_spin(s) for s in sites})


def energy_density(interaction: Interaction, state: GroundStateConfig) -> float:
    """Classical energy per site of the infinite periodic configuration."""
    if interaction.d != state.d:
        raise ValueError(f"interaction of dimension {interaction.d} on a state of dimension {state.d}")
    cell = list(itertools.product(*(range(p) for p in state.periods)))
    total = 0.0
    for term in interaction.terms:
        for base in cell:
            translated = tuple(
                tuple(c + b for c, b in zip(site, base)) for site in term.support
            )
            idx = support_config_index(translated, state._cell_spin)
            total += float(term.classical_part[idx])
    return total / len(cell)


def find_periodic_ground_states(interaction: Interaction, max_period: int) -> list[GroundStateConfig]:
    """All periodic configurations of period <= max_period minimizing the
    classical energy density, by exhaustive search over one period cell.

    Period cells beyond ``MAX_CELL_SITES`` sites raise :class:`CapabilityError`.
    Configurations tied with the minimum within ``GROUND_STATE_TIE_TOL`` are
    all returned, reduced to their minimal periods and sorted deterministically.
    """
    if max_period < 1:
        raise ValueError(f"max_period must be >= 1, got {max_period}")
    d = interaction.d
    if max_period**d > MAX_CELL_SITES:
        raise CapabilityError(
            f"period cell has {max_period**d} sites, beyond the bound of {MAX_CELL_SITES}"
        )

    # periods not dividing each other give distinct patterns, so every period
    # tuple up to the bound is scanned and duplicates are merged afterwards
    candidates: dict[GroundStateConfig, float] = {}
    for periods in itertools.product(*(range(1, max_period + 1) for _ in range(d))):
        cell_sites = list(itertools.product(*(range(p) for p in periods)))
        for assignment in itertools.product((1, -1), repeat=len(cell_sites)):
            state = GroundStateConfig(periods, dict(zip(cell_sites, assignment)))
            candidates.setdefault(state.minimal_form(), energy_density(interaction, state))
    best = min(candidates.values())
    minimal = [s for s, e in candidates.items() if e <= best + GROUND_STATE_TIE_TOL]
    return sorted(minimal, key=lambda s: (s.periods, tuple(s.cell_values.items())))
