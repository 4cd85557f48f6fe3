import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spinaep as sa
from spinaep import checks
from spinaep.errors import EmptySubspaceError, InvalidCodewordError

from conftest import chain_ensemble, chain_hamiltonian, dense_ensemble, generic_models, traced_peak
from oracles import (
    product_basis_decomposition, product_vectors, projector_fidelity, qr_isometry, three_fft_decomposition,
)

# The sweep-dm11 benchmark chain: complex Hermitian H, Neel cell boundary.
COMPLEX_MODEL = Path(__file__).resolve().parent / "golden" / "dm.cfg"


def subspace_of(ens, delta):
    return sa.typical_subspace(ens, sa.entropy_bits(ens) / ens.n_sites, delta)


@pytest.fixture(scope="module")
def warm_solution():
    # beta low enough that the window holds a few dozen states
    return dense_ensemble(chain_hamiltonian(6, 1.0, 0.5, 0.2), beta=0.3)


@pytest.fixture(scope="module")
def warm_ensemble(warm_solution):
    return warm_solution[0]


@pytest.fixture(scope="module")
def warm_vectors(warm_solution):
    return warm_solution[1]


class TestCodebook:
    def test_single_state(self, exhibit_ensembles):
        ens = exhibit_ensembles[4]
        sub = subspace_of(ens, 0.15)
        assert sub.dim == 1
        book = sa.build_codebook(sub)
        assert book.length == 1
        assert sa.compress(book, int(sub.indices[0])) == "0"

    def test_full_space_under_zero_hamiltonian(self):
        ens = sa.gibbs_ensemble(sa.Spectrum(np.zeros(16)), beta=1.0)
        sub = sa.typical_subspace(ens, 1.0, 0.3)
        book = sa.build_codebook(sub)
        assert book.length == 4
        for j in range(16):
            assert sa.compress(book, j) == format(j, "04b")

    def test_five_states_need_three_bits(self):
        sub = sa.TypicalSubspace(
            indices=np.arange(5), h_ref=1.0, delta=0.1, mass=0.5, n_sites=4
        )
        book = sa.build_codebook(sub)
        assert book.length == 3
        assert [sa.compress(book, j) for j in range(5)] == ["000", "001", "010", "011", "100"]

    def test_empty_subspace_rejected(self):
        sub = sa.TypicalSubspace(
            indices=np.array([], dtype=int), h_ref=1.0, delta=0.1, mass=0.0, n_sites=4
        )
        with pytest.raises(EmptySubspaceError):
            sa.build_codebook(sub)

    def test_export_lines(self):
        sub = sa.TypicalSubspace(
            indices=np.array([3, 9]), h_ref=1.0, delta=0.1, mass=0.5, n_sites=4
        )
        assert list(sa.build_codebook(sub).lines()) == ["0 3", "1 9"]


class TestRoundTrip:
    def test_round_trip_all_typical(self, warm_ensemble):
        sub = subspace_of(warm_ensemble, 0.3)
        assert sub.dim > 1
        book = sa.build_codebook(sub)
        for j in sub.indices:
            word = sa.compress(book, int(j))
            assert word is not None
            assert sa.decompress(book, word) == int(j)

    def test_atypical_gets_flag_not_codeword(self, warm_ensemble):
        sub = subspace_of(warm_ensemble, 0.3)
        book = sa.build_codebook(sub)
        atypical = sorted(set(range(warm_ensemble.dim)) - set(int(j) for j in sub.indices))
        assert atypical
        for j in atypical[:5]:
            assert sa.compress(book, j) is None

    def test_full_space_round_trip(self):
        ens = sa.gibbs_ensemble(sa.Spectrum(np.zeros(32)), beta=1.0)
        sub = sa.typical_subspace(ens, 1.0, 0.2)
        book = sa.build_codebook(sub)
        for j in range(32):
            assert sa.decompress(book, sa.compress(book, j)) == j

    def test_all_zeros_codeword_is_smallest_typical_index(self, warm_ensemble):
        sub = subspace_of(warm_ensemble, 0.3)
        book = sa.build_codebook(sub)
        assert sa.decompress(book, "0" * book.length) == int(sub.indices[0])

    def test_invalid_codeword_above_dim(self):
        sub = sa.TypicalSubspace(
            indices=np.arange(5), h_ref=1.0, delta=0.1, mass=0.5, n_sites=4
        )
        book = sa.build_codebook(sub)
        with pytest.raises(InvalidCodewordError):
            sa.decompress(book, "101")

    def test_wrong_length_rejected(self):
        sub = sa.TypicalSubspace(
            indices=np.arange(5), h_ref=1.0, delta=0.1, mass=0.5, n_sites=4
        )
        book = sa.build_codebook(sub)
        with pytest.raises(InvalidCodewordError):
            sa.decompress(book, "10")
        with pytest.raises(InvalidCodewordError):
            sa.decompress(book, "1x0")


class TestTypicalProjector:
    def test_full_subspace_gives_identity(self):
        ens, v = dense_ensemble(np.zeros((8, 8)), beta=1.0)
        sub = sa.typical_subspace(ens, 1.0, 0.2)
        np.testing.assert_allclose(sa.typical_projector(sub, v), np.eye(8), atol=1e-12)

    def test_empty_subspace_gives_zero(self, warm_ensemble, warm_vectors):
        sub = sa.TypicalSubspace(
            indices=np.array([], dtype=int), h_ref=1.0, delta=0.1, mass=0.0,
            n_sites=warm_ensemble.n_sites,
        )
        proj = sa.typical_projector(sub, warm_vectors)
        assert not proj.any()

    def test_subspace_of_another_volume_rejected(self):
        three_sites = sa.TypicalSubspace(indices=np.array([0]), h_ref=1.0, delta=0.1, mass=0.5, n_sites=3)
        with pytest.raises(ValueError, match="does not match the eigenvectors"):
            sa.typical_projector(three_sites, np.eye(16))

    def test_idempotent_hermitian_with_trace_dim(self, warm_ensemble, warm_vectors):
        sub = subspace_of(warm_ensemble, 0.3)
        proj = sa.typical_projector(sub, warm_vectors)
        assert np.abs(proj @ proj - proj).max() <= 1e-9
        assert np.abs(proj - proj.conj().T).max() <= 1e-12
        assert np.trace(proj).real == pytest.approx(sub.dim, abs=1e-8)


def complex_ensemble(n_sites: int) -> tuple[sa.GibbsEnsemble, np.ndarray]:
    config = sa.parse_config(COMPLEX_MODEL.read_text(encoding="utf-8"))
    h = sa.assemble_hamiltonian(
        sa.build_interaction(config), sa.chain(n_sites), sa.build_boundary(config)
    )
    return dense_ensemble(h, config.beta)


def decomposition_fields(**changes):
    """Constructor fields of a valid two-state decomposition, with ``changes`` applied."""
    fields = {"weights": np.array([0.5, 0.5]), "captured": np.array([0.25, 0.75]),
              "phases": np.ones((3, 2), dtype=complex), "sqrt_kappa": np.sqrt([0.25, 0.75])}
    return {**fields, **changes}


class TestDecomposition:
    def test_product_vectors_reconstruct_density_matrix(self, warm_ensemble, warm_vectors):
        v = warm_vectors
        rho = (v * np.exp(warm_ensemble.log_weights)) @ v.conj().T
        for seed in (0, 1, 2):
            decomp = sa.make_decomposition(warm_ensemble, warm_ensemble.dim + 16, seed=seed)
            vectors = product_vectors(v, decomp.coefficients)
            assert np.abs((vectors * decomp.weights) @ vectors.conj().T - rho).max() <= 1e-8

    @pytest.mark.parametrize("extra", [0, 16])
    def test_isometry_has_orthonormal_columns(self, extra):
        # uniform kappa = 1/dim, so U^T = sqrt(dim) * coefficients * sqrt(weights)
        ens = sa.gibbs_ensemble(sa.Spectrum(np.zeros(32)), beta=1.0)
        decomp = sa.make_decomposition(ens, ens.dim + extra, seed=4)
        u = (np.sqrt(ens.dim) * decomp.coefficients * np.sqrt(decomp.weights)).T
        assert u.shape == (ens.dim + extra, ens.dim)
        assert np.abs(u.conj().T @ u - np.eye(ens.dim)).max() <= 1e-12

    def test_coefficients_are_eigenbasis_overlaps(self, warm_ensemble, warm_vectors):
        decomp = sa.make_decomposition(warm_ensemble, warm_ensemble.dim + 16, seed=8)
        v = warm_vectors
        overlaps = v.conj().T @ product_vectors(v, decomp.coefficients)
        assert np.abs(overlaps - decomp.coefficients).max() <= 1e-12

    def test_same_whichever_solver_gave_the_spectrum(self, warm_ensemble):
        # the eigenpair route's spectrum, and the same energies as a caller passes them
        energies = warm_ensemble.spectrum.energies
        decomps = [
            sa.make_decomposition(sa.gibbs_ensemble(spectrum, warm_ensemble.beta), warm_ensemble.dim, seed=8)
            for spectrum in (warm_ensemble.spectrum, sa.Spectrum(energies.copy()))
        ]
        for field in ("weights", "captured", "phases", "sqrt_kappa", "coefficients"):
            assert getattr(decomps[0], field).tobytes() == getattr(decomps[1], field).tobytes()
        for decomp in decomps:
            assert not hasattr(decomp, "basis")
            assert decomp.vectors is decomp.coefficients

    def test_weights_sum_to_one(self, warm_ensemble):
        decomp = sa.make_decomposition(warm_ensemble, warm_ensemble.dim, seed=5)
        assert abs(decomp.weights.sum() - 1.0) <= 1e-12

    def test_nan_weight_rejected(self):
        sa.Decomposition(**decomposition_fields())
        for field in ("weights", "captured"):
            with pytest.raises(ValueError):
                sa.Decomposition(**decomposition_fields(**{field: np.array([0.5, np.nan])}))
            with pytest.raises(ValueError):
                sa.Decomposition(**decomposition_fields(**{field: np.array([1.5, -0.5])}))
            with pytest.raises(ValueError):
                sa.Decomposition(**decomposition_fields(**{field: np.array([0.5, 0.5 + 1e-11])}))

    @pytest.mark.parametrize("changes", [
        {"weights": np.array([[0.5, 0.5]])},
        {"phases": np.ones((2, 2), dtype=complex)},
        {"sqrt_kappa": np.sqrt([[0.25, 0.75]])},
        {"captured": np.array([0.25, 0.25, 0.5])},
        {"captured": np.array([0.25, 0.25, 0.5]), "sqrt_kappa": np.sqrt([0.25, 0.25, 0.5])},
    ], ids=["weights-matrix", "two-phase-rows", "sqrt-kappa-matrix", "captured-longer", "more-states-than-vectors"])
    def test_bad_shapes_rejected(self, changes):
        message = "need weights (m,), phases (3, m), captured and sqrt_kappa (dim,), dim <= m"
        with pytest.raises(ValueError, match=re.escape(message)):
            sa.Decomposition(**decomposition_fields(**changes))

    def test_nan_vector_rejected(self):
        # a vector's coordinates come from the phases and sqrt(kappa)
        phases = np.ones((3, 2), dtype=complex)
        phases[2, 1] = np.nan
        with pytest.raises(ValueError):
            sa.Decomposition(**decomposition_fields(phases=phases))
        with pytest.raises(ValueError):
            sa.Decomposition(**decomposition_fields(phases=2 * np.ones((3, 2), dtype=complex)))
        with pytest.raises(ValueError):
            sa.Decomposition(**decomposition_fields(sqrt_kappa=np.array([0.5, np.nan])))

    def test_too_few_vectors_rejected(self, warm_ensemble):
        with pytest.raises(ValueError):
            sa.make_decomposition(warm_ensemble, warm_ensemble.dim - 1, seed=0)

    def test_reproducible_for_fixed_seed(self, warm_ensemble):
        a = sa.make_decomposition(warm_ensemble, warm_ensemble.dim, seed=9)
        b = sa.make_decomposition(warm_ensemble, warm_ensemble.dim, seed=9)
        np.testing.assert_array_equal(a.coefficients, b.coefficients)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_seed_changes_the_isometry(self, warm_ensemble):
        a = sa.make_decomposition(warm_ensemble, warm_ensemble.dim, seed=9)
        b = sa.make_decomposition(warm_ensemble, warm_ensemble.dim, seed=10)
        assert np.abs(a.coefficients - b.coefficients).max() > 0.1


def window(ens, indices):
    return sa.TypicalSubspace(
        indices=np.asarray(indices, dtype=int), h_ref=1.0, delta=0.1, mass=0.0, n_sites=ens.n_sites
    )


class TestFidelity:
    def test_identity_projector(self, warm_ensemble):
        decomp = sa.make_decomposition(warm_ensemble, warm_ensemble.dim, seed=2)
        full = window(warm_ensemble, np.arange(warm_ensemble.dim))
        assert sa.fidelity(decomp, full) == pytest.approx(1.0, abs=1e-12)

    def test_zero_projector(self, warm_ensemble):
        decomp = sa.make_decomposition(warm_ensemble, warm_ensemble.dim, seed=2)
        assert sa.fidelity(decomp, window(warm_ensemble, [])) == 0.0

    def test_equals_typical_mass_across_decompositions(self):
        ens = chain_ensemble(8, 1.0, 0.5, 0.2, beta=2.0)
        sub = subspace_of(ens, 0.15)
        values = []
        for seed in (101, 202, 303):
            decomp = sa.make_decomposition(ens, ens.dim, seed=seed)
            values.append(sa.fidelity(decomp, sub))
        for value in values:
            assert value == pytest.approx(sub.mass, abs=1e-10)
        assert max(values) - min(values) <= 1e-10

    def test_dimension_mismatch_rejected(self, warm_ensemble):
        decomp = sa.make_decomposition(warm_ensemble, warm_ensemble.dim, seed=2)
        small = sa.TypicalSubspace(indices=np.arange(4), h_ref=1.0, delta=0.1, mass=0.5, n_sites=2)
        with pytest.raises(ValueError):
            sa.fidelity(decomp, small)


class TestGenericChains:
    """The numeric contracts on random generic d = 1 and d = 2 models, through
    the CLI's path: the row generator, the values-only solve, the streamed
    decomposition and the codebook."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(generic_models(), st.floats(0.1, 3.0), st.integers(0, 2**32 - 1))
    def test_weights_identity_and_fidelity(self, model, beta, seed):
        interaction, volume, boundary = model
        rows = sa.hamiltonian_rows(interaction, volume, boundary)
        h = sa.assemble_hamiltonian(interaction, volume, boundary)
        dense = checks._eigenpairs(h)[0].energies
        energies = sa.diagonalize(rows).energies
        assert np.abs(energies - dense).max() <= 1e-12 * np.abs(dense).max()
        ens = sa.gibbs_ensemble(sa.diagonalize(rows), beta)
        densities = sa.thermo_densities(ens)
        assert abs(ens.weights.sum() - 1.0) <= 1e-12
        assert densities.identity_residual <= 1e-10
        decomp = sa.make_decomposition(ens, ens.dim, seed=seed)
        for delta in (0.1, 0.5):
            sub = sa.typical_subspace(ens, densities.h_bits, delta)
            assert abs(sa.fidelity(decomp, sub) - sub.mass) <= 1e-10
            if sub.dim:
                book = sa.build_codebook(sub)
                typical = set(sub.indices.tolist())
                for j in range(ens.dim):
                    word = sa.compress(book, j)
                    if j in typical:
                        assert sa.decompress(book, word) == j
                    else:
                        assert word is None

@pytest.fixture(scope="module", params=["tfim", "complex"])
def small_ensemble(request):
    """A six-site TFIM chain and a five-site complex chain with wide windows, each with its eigenvectors."""
    if request.param == "tfim":
        return dense_ensemble(chain_hamiltonian(6, 1.0, 0.5, 0.2), beta=0.5)
    ens, vectors = complex_ensemble(5)
    assert np.iscomplexobj(vectors)
    return ens, vectors


class TestDenseRoute:
    """The coefficient fidelity against the product-basis projector route."""

    @pytest.mark.parametrize("extra", [0, 16])
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_coefficient_fidelity_equals_projector_fidelity(self, small_ensemble, seed, extra):
        ens, v = small_ensemble
        sub = subspace_of(ens, 0.3)
        assert 1 < sub.dim < ens.dim
        projector = sa.typical_projector(sub, v)
        decomp = sa.make_decomposition(ens, ens.dim + extra, seed=seed)
        value = sa.fidelity(decomp, sub)
        vectors = product_vectors(v, decomp.coefficients)
        same = projector_fidelity(decomp.weights, vectors, projector)
        isometry = qr_isometry(np.random.default_rng(seed), ens.dim + extra, ens.dim)
        gaussian = projector_fidelity(
            *product_basis_decomposition(v, ens.weights, isometry), projector
        )
        assert abs(value - same) <= 1e-12
        assert abs(value - gaussian) <= 1e-12
        assert abs(value - sub.mass) <= 1e-12


class TestStreamedRows:
    """The one-FFT row pass against the dense three-FFT reference."""

    @pytest.mark.parametrize("extra", [0, 16])
    def test_matches_three_fft_reference(self, small_ensemble, extra):
        ens, _ = small_ensemble
        sub = subspace_of(ens, 0.3)
        assert 1 < sub.dim < ens.dim
        decomp = sa.make_decomposition(ens, ens.dim + extra, seed=5)
        weights, coefficients = three_fft_decomposition(ens.log_weights, ens.dim + extra, seed=5)
        assert np.abs(decomp.coefficients - coefficients).max() <= 1e-14
        assert np.abs(decomp.weights / weights - 1.0).max() <= 1e-14
        rows = coefficients[sub.indices]
        old = float(np.sum(weights * np.einsum("ij,ij->j", rows.conj(), rows).real))
        assert abs(sa.fidelity(decomp, sub) - old) <= 1e-14

    def test_fidelity_forms_no_dense_matrix(self):
        # the (1024, 1024) complex coefficients alone would take 16 MiB
        ens = chain_ensemble(10, 1.0, 0.5, 0.2, beta=2.0)
        sub = subspace_of(ens, 0.15)

        def decompose_and_measure():
            decomp = sa.make_decomposition(ens, ens.dim, seed=7)
            return decomp, sa.fidelity(decomp, sub)

        (decomp, value), peak = traced_peak(decompose_and_measure)
        assert peak < 2 << 20
        assert "coefficients" not in vars(decomp)
        assert abs(value - sub.mass) <= 1e-10


class TestProjectorRankBound:
    def test_any_projector_rank_bounded_by_captured_weight(self, warm_ensemble, warm_vectors):
        """rank >= (F - atypical mass) * 2^{n (h_ref - delta)} for any projector."""
        ens, v = warm_ensemble, warm_vectors
        sub = subspace_of(ens, 0.3)
        rho = (v * np.exp(ens.log_weights)) @ v.conj().T
        floor_scale = 2.0 ** (ens.n_sites * (sub.h_ref - sub.delta))
        rng = np.random.default_rng(17)
        candidates = []
        for k in (1, 4, 16, 40, ens.dim):
            candidates.append(v[:, np.argsort(ens.log_weights)[::-1][:k]])
        gauss = rng.standard_normal((ens.dim, 12)) + 1j * rng.standard_normal((ens.dim, 12))
        candidates.append(np.linalg.qr(gauss)[0])
        for basis in candidates:
            projector = basis @ basis.conj().T
            rank = basis.shape[1]
            captured = float(np.trace(rho @ projector).real)
            assert rank >= (captured - (1.0 - sub.mass)) * floor_scale - 1e-9


class TestLengthBounds:
    def test_against_floor_plus_one(self, warm_ensemble):
        for delta in (0.2, 0.3, 0.5):
            sub = subspace_of(warm_ensemble, delta)
            if sub.dim == 0:
                continue
            book = sa.build_codebook(sub)
            assert book.length <= int(np.floor(np.log2(sub.dim))) + 1

    def test_window_length_bound(self, warm_ensemble):
        n = warm_ensemble.n_sites
        for delta in (0.2, 0.3, 0.5):
            sub = subspace_of(warm_ensemble, delta)
            if sub.dim == 0:
                continue
            book = sa.build_codebook(sub)
            assert book.length <= np.ceil(n * (sub.h_ref + delta)) + 1
            assert book.length <= n * (sub.h_ref + delta) + 2
