"""Finite-volume Gibbs states of interacting spin-1/2 lattices, their entropy
rates, typical subspaces, and a fixed-length typical-state codec."""

from .codec import (
    Codebook,
    CodecRecord,
    Decomposition,
    build_codebook,
    compress,
    decompress,
    encode_decode_maps,
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
    eigenpairs,
    eigenvalue_via_energy,
    entropy_bits,
    expectation,
    gibbs_ensemble,
    thermo_densities,
)
from .hamiltonian import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    assemble_hamiltonian,
    config_to_index,
    embed_local,
    index_to_config,
    instantiate_terms,
    theta_observable,
)
from .interaction import (
    GroundStateConfig,
    Interaction,
    LocalTerm,
    check_perturbation_bound,
    classical_energy,
    energy_density,
    find_periodic_ground_states,
    preset_tfim,
)
from .lattice import (
    DEFAULT_QUBIT_CAP,
    Configuration,
    Site,
    Volume,
    boundary_envelope,
    build_box,
    build_hypercube,
    chain,
    connected_span_size,
    linf_diameter,
    translate,
)
from .typicality import (
    AepRow,
    TypicalSubspace,
    aep_row,
    best_rate_mass,
    build_aep_report,
    dimension_rate,
    lln_residual,
    typical_mass_curve,
    typical_subspace,
)

__version__ = "0.1.0"
