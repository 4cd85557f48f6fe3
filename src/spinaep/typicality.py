"""Typical subspaces and concentration diagnostics for Gibbs ensembles.

A state is delta-typical when its log2 weight per site sits within delta of
a reference entropy rate ``h_ref``, which the caller passes: the CLI passes
the volume's own entropy rate unless the config fixes one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._arrays import readonly
from .gibbs import LOG2E, GibbsEnsemble, characteristic_function


@dataclass(frozen=True, eq=False)
class TypicalSubspace:
    """Indices of eigenstates inside a two-sided log-weight window.

    The window is inclusive at both ends: states with log2 weight exactly on
    an edge count as typical.
    """

    indices: np.ndarray  # sorted eigenstate indices
    h_ref: float         # reference rate, bits per site
    delta: float         # half-width, bits per site
    mass: float          # total weight captured
    n_sites: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", readonly(np.asarray(self.indices, dtype=np.int64)))

    @property
    def dim(self) -> int:
        return int(self.indices.size)


def typical_subspace(ensemble: GibbsEnsemble, h_ref: float, delta: float) -> TypicalSubspace:
    """States whose log2 weight lies in ``[-n(h_ref+delta), -n(h_ref-delta)]``."""
    if not delta > 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    n = ensemble.n_sites
    log2_weights = ensemble.log_weights * LOG2E
    lo = -n * (h_ref + delta)
    hi = -n * (h_ref - delta)
    mask = (log2_weights >= lo) & (log2_weights <= hi)
    indices = np.nonzero(mask)[0]
    mass = float(ensemble.weights[mask].sum()) if indices.size else 0.0
    return TypicalSubspace(
        indices=indices, h_ref=h_ref, delta=delta, mass=min(mass, 1.0), n_sites=n
    )


def dimension_rate(subspace: TypicalSubspace) -> float | None:
    """Bits per site needed to index the subspace; ``None`` when it is empty."""
    if subspace.dim == 0:
        return None
    return float(np.log2(subspace.dim)) / subspace.n_sites


def best_rate_mass(ensemble: GibbsEnsemble, rate: float) -> float:
    """Largest weight any ``2^[n * rate]`` eigenstates can capture.

    Equals the sum of that many largest weights; the exponent takes the
    integer part of ``n * rate`` and is capped at ``n``, so any rate of at
    least 1 captures every state. The log weights are already descending,
    because the energies are ascending and ``beta > 0``.
    """
    if rate < 0:
        raise ValueError(f"rate must be >= 0, got {rate}")
    count = 1 << min(int(ensemble.n_sites * rate), ensemble.n_sites)
    return float(min(np.exp(ensemble.log_weights[:count]).sum(), 1.0))


def lln_residual(ensemble: GibbsEnsemble, g: float, t: float) -> float:
    """Distance between the rescaled phase average and the pure energy phase.

    Compares the characteristic function at ``t / n`` with ``exp(i t g)``,
    ``g`` being the ensemble's energy per site (``thermo_densities(...).g``);
    zero at ``t = 0``, and it shrinks with volume when energy fluctuations
    stay extensive.
    """
    phi = characteristic_function(ensemble, t / ensemble.n_sites)
    return float(abs(phi - np.exp(1j * t * g)))
