"""Finite-volume Gibbs states of interacting spin-1/2 lattices, their entropy
rates, typical subspaces, and a fixed-length typical-state codec."""

from .codec import (
    Codebook,
    Decomposition,
    build_codebook,
    compress,
    decompress,
    fidelity,
    make_decomposition,
    typical_projector,
)
from .config import ExperimentConfig, build_boundary, build_interaction, parse_config
from .errors import (
    CapabilityError,
    ConfigError,
    EmptySubspaceError,
    InvalidCodewordError,
    NumericError,
    QubitCapError,
    SpinAepError,
)
from .gibbs import (
    LOG2E,
    GibbsEnsemble,
    Spectrum,
    ThermoDensities,
    characteristic_function,
    diagonalize,
    entropy_bits,
    gibbs_ensemble,
    thermo_densities,
)
from .hamiltonian import HamiltonianRows, assemble_hamiltonian, hamiltonian_rows, instantiate_terms
from .interaction import (
    GroundStateConfig,
    Interaction,
    LocalTerm,
    check_perturbation_bound,
    classical_energy,
    find_periodic_ground_states,
    preset_tfim,
)
from .lattice import (
    DEFAULT_QUBIT_CAP,
    Site,
    Volume,
    build_box,
    build_hypercube,
    chain,
    connected_span_size,
)
from .typicality import (
    TypicalSubspace,
    best_rate_mass,
    dimension_rate,
    lln_residual,
    typical_subspace,
)

__version__ = "0.1.0"
