import dataclasses
import inspect
import re

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import logsumexp as scipy_logsumexp

import spinaep as sa
from spinaep import checks
from spinaep.errors import NumericError
from spinaep.gibbs import logsumexp

from conftest import GRID_POINTS, as_rows, chain_ensemble, chain_hamiltonian, chain_rows, dense_ensemble
from oracles import eigenvalue_via_energy, thermal_expectation


def random_hermitian(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


class TestDiagonalize:
    def test_diagonal_matrix(self):
        spec = sa.diagonalize(as_rows(np.diag([-2.0, 2.0])))
        np.testing.assert_allclose(spec.energies, [-2.0, 2.0])

    def test_two_by_two_closed_form(self):
        spec = sa.diagonalize(as_rows(np.array([[-2.0, -0.3], [-0.3, 2.0]])))
        root = np.sqrt(4.09)
        np.testing.assert_allclose(spec.energies, [-root, root], atol=1e-14)

    def test_reconstruction_random_six_qubit(self):
        h = random_hermitian(64, seed=42)
        spec, vectors = checks._eigenpairs(h)
        rebuilt = (vectors * spec.energies) @ vectors.conj().T
        assert np.abs(rebuilt - h).max() <= 1e-9

    def test_energies_ascending(self):
        spec = sa.diagonalize(as_rows(random_hermitian(32, seed=1)))
        assert np.all(np.diff(spec.energies) >= 0)

    @pytest.mark.parametrize("h", [np.diag([-2.0, 2.0]), [[0.0, 1.0], [1.0, 0.0]], sa.Spectrum(np.zeros(2))],
                             ids=["array", "list", "spectrum"])
    def test_anything_but_a_row_generator_is_refused(self, h):
        with pytest.raises(TypeError, match=r"^diagonalize takes the HamiltonianRows of hamiltonian_rows, "
                                            r"got \w+; the energies of a dense H are numpy\.linalg\.eigvalsh\(h\)$"):
            sa.diagonalize(h)


class TestEigenpairGuards:
    """The residual and Gram checks of ``spinaep check``'s eigenpair route,
    each made to fail by one perturbed eigenvector from ``eigh``."""

    @staticmethod
    def perturb(monkeypatch, change):
        eigh = np.linalg.eigh

        def perturbed(h):
            energies, vectors = eigh(h)
            return energies, change(vectors.copy())

        monkeypatch.setattr(checks.np.linalg, "eigh", perturbed)

    def test_rotated_vector_fails_the_residual(self, monkeypatch):
        # turning v0 towards v1 by 1e-6 keeps the columns orthonormal but
        # leaves a residual of about 1e-6 (E1 - E0), far above 1e-9 |H|
        def rotate(v):
            c, s = np.cos(1e-6), np.sin(1e-6)
            v[:, [0, 1]] = v[:, [0, 1]] @ np.array([[c, -s], [s, c]])
            return v

        h = chain_hamiltonian(4, 1.0, 0.5, 0.2)
        spectrum, vectors = checks._eigenpairs(h)
        rotated = rotate(vectors.copy())
        assert np.diff(spectrum.energies[:2]) > 1e-3
        assert np.abs(rotated.conj().T @ rotated - np.eye(16)).max() <= 1e-12
        self.perturb(monkeypatch, rotate)
        with pytest.raises(NumericError, match=r"^eigenpair residual \S+ exceeds 1e-09 \* \|H\|$"):
            checks._eigenpairs(h)

    def test_scaled_vector_fails_the_gram_check(self, monkeypatch):
        # v0 lengthened by 1e-6: still an eigenvector to within 1e-15 |H|,
        # but its squared norm is off by 2e-6
        def lengthen(v):
            v[:, 0] *= 1 + 1e-6
            return v

        self.perturb(monkeypatch, lengthen)
        with pytest.raises(NumericError, match=r"^eigenvectors deviate from orthonormal by 2\.0\d*e-06$"):
            checks._eigenpairs(chain_hamiltonian(4, 1.0, 0.5, 0.2))


class TestLogSumExp:
    """The numpy log-sum-exp against scipy's, bit for bit."""

    def test_random_arrays(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            a = rng.standard_normal(int(rng.integers(2, 400))) * rng.choice([1e-3, 1.0, 40.0, 1e3])
            assert logsumexp(a) == float(scipy_logsumexp(a))

    def test_ties(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            a = np.round(rng.standard_normal(int(rng.integers(2, 200))), 1)
            a[rng.integers(0, a.size, size=3)] = a.max()
            assert logsumexp(a) == float(scipy_logsumexp(a))
        for a in (np.zeros(7), np.array([-2.0, 1.5, 1.5]), np.full(5, -800.0)):
            assert logsumexp(a) == float(scipy_logsumexp(a))

    def test_single_element(self):
        for value in (0.0, -3.25, 7e5, -1e-300):
            assert logsumexp(np.array([value])) == float(scipy_logsumexp(np.array([value])))

    def test_spectra(self, grid_ensembles):
        for ens in grid_ensembles:
            log_weights = -ens.beta * ens.spectrum.energies
            assert logsumexp(log_weights) == float(scipy_logsumexp(log_weights))


class TestGibbsEnsemble:
    def test_zero_hamiltonian_is_maximally_mixed(self):
        ens = sa.gibbs_ensemble(sa.Spectrum(np.zeros(8)), beta=3.7)
        np.testing.assert_allclose(np.exp(ens.log_weights), np.full(8, 1 / 8), atol=1e-15)

    def test_single_site_closed_form(self):
        beta = 1.3
        ens = sa.gibbs_ensemble(sa.Spectrum(np.array([-2.0, 2.0])), beta)
        expected_up = 1.0 / (1.0 + np.exp(-4 * beta))
        assert np.exp(ens.log_weights[0]) == pytest.approx(expected_up, abs=1e-14)

    def test_matches_matrix_exponential_oracle(self):
        h = chain_hamiltonian(6, 1.0, 0.5, 0.2)
        ens = sa.gibbs_ensemble(sa.diagonalize(chain_rows(6, 1.0, 0.5, 0.2)), 2.0)
        rho = expm(-2.0 * np.asarray(h, dtype=complex))
        rho /= np.trace(rho).real
        oracle = np.sort(np.linalg.eigvalsh(rho))
        np.testing.assert_allclose(np.sort(np.exp(ens.log_weights)), oracle, atol=1e-8)

    def test_weights_normalized(self, grid_ensembles):
        for ens in grid_ensembles:
            assert abs(np.exp(ens.log_weights).sum() - 1.0) <= 1e-12

    def test_beta_must_be_positive(self):
        with pytest.raises(ValueError):
            sa.gibbs_ensemble(sa.Spectrum(np.zeros(2)), 0.0)

    def test_beta_must_be_finite(self):
        with pytest.raises(ValueError, match=re.escape("beta must be finite, got inf")):
            sa.gibbs_ensemble(sa.Spectrum(np.zeros(2)), np.inf)

    def test_unitary_invariance_of_weights(self):
        h = np.asarray(chain_hamiltonian(4, 1.0, 0.5, 0.3), dtype=complex)
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
        rotated = q @ h @ q.conj().T
        rotated = (rotated + rotated.conj().T) / 2  # exactly Hermitian, as a generator's block must be
        a = np.sort(sa.gibbs_ensemble(sa.diagonalize(as_rows(h)), 1.1).log_weights)
        b = np.sort(sa.gibbs_ensemble(sa.diagonalize(as_rows(rotated)), 1.1).log_weights)
        np.testing.assert_allclose(a, b, atol=1e-9)


class TestEigenvalueViaEnergy:
    def test_diagonal_exact(self):
        h = np.diag([-1.0, 0.0, 0.5, 2.0])
        ens, v = dense_ensemble(h, beta=0.9)
        for j in range(4):
            assert eigenvalue_via_energy(ens, v, h, j) == pytest.approx(
                ens.log_weights[j], abs=1e-12
            )

    def test_zero_hamiltonian(self):
        h = np.zeros((16, 16))
        ens, v = dense_ensemble(h, beta=2.0)
        for j in (0, 7, 15):
            assert eigenvalue_via_energy(ens, v, h, j) == pytest.approx(-4 * np.log(2), abs=1e-12)

    def test_consistency_sweep(self):
        for J, field, lam, beta in GRID_POINTS:
            h = chain_hamiltonian(5, J, field, lam)
            ens, v = dense_ensemble(h, beta)
            worst = max(
                abs(eigenvalue_via_energy(ens, v, h, j) - ens.log_weights[j])
                for j in range(ens.dim)
            )
            assert worst <= 1e-9


class TestEntropy:
    def test_maximally_mixed(self):
        ens = sa.gibbs_ensemble(sa.Spectrum(np.zeros(32)), beta=1.0)
        assert sa.entropy_bits(ens) == pytest.approx(5.0, abs=1e-12)

    def test_single_site_binary_entropy(self):
        beta = 0.8
        ens = sa.gibbs_ensemble(sa.Spectrum(np.array([-2.0, 2.0])), beta)
        p = 1.0 / (1.0 + np.exp(-4 * beta))
        expected = -p * np.log2(p) - (1 - p) * np.log2(1 - p)
        assert sa.entropy_bits(ens) == pytest.approx(expected, abs=1e-12)

    def test_classical_chain_matches_enumeration(self):
        from oracles import classical_chain_entropy_bits

        ens = chain_ensemble(8, 1.0, 0.5, 0.0, beta=2.0)
        oracle = classical_chain_entropy_bits(8, 1.0, 0.5, 2.0)
        assert sa.entropy_bits(ens) == pytest.approx(oracle, abs=1e-10)

    def test_bounds(self, grid_ensembles):
        for ens in grid_ensembles:
            s = sa.entropy_bits(ens)
            assert 0.0 <= s <= ens.n_sites + 1e-12

    def test_nonincreasing_in_beta(self):
        entropies = [
            sa.entropy_bits(chain_ensemble(5, 1.0, 0.5, 0.2, beta))
            for beta in (0.5, 1.0, 2.0)
        ]
        assert entropies[0] >= entropies[1] >= entropies[2]


class TestExpectation:
    """Thermal expectations through the eigenpair route's eigenvectors."""

    def test_identity_normalization(self):
        ens, v = dense_ensemble(chain_hamiltonian(4, 1.0, 0.5, 0.2), beta=1.5)
        assert thermal_expectation(ens, v, np.eye(16)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_hamiltonian_energy(self):
        h = np.zeros((8, 8))
        ens, v = dense_ensemble(h, beta=1.0)
        assert thermal_expectation(ens, v, h) == pytest.approx(0.0, abs=1e-14)

    def test_energy_is_log_partition_derivative(self):
        beta, step = 1.5, 1e-5
        h = chain_hamiltonian(6, 1.0, 0.5, 0.2)
        ens, v = dense_ensemble(h, beta)
        up = sa.gibbs_ensemble(ens.spectrum, beta + step).log_partition
        down = sa.gibbs_ensemble(ens.spectrum, beta - step).log_partition
        oracle = -(up - down) / (2 * step)
        mine = thermal_expectation(ens, v, h)
        assert abs(mine - oracle) / abs(oracle) <= 1e-5


class TestCharacteristicFunction:
    def test_tau_zero_is_exactly_one(self, grid_ensembles):
        for ens in grid_ensembles:
            assert sa.characteristic_function(ens, 0.0) == 1.0 + 0.0j

    def test_zero_hamiltonian_constant(self):
        ens = sa.gibbs_ensemble(sa.Spectrum(np.zeros(8)), beta=1.0)
        for tau in (0.0, 0.3, 2.0, -11.0):
            assert sa.characteristic_function(ens, tau) == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_matches_matrix_exponential_oracle(self):
        beta, tau = 2.0, 0.7
        h = chain_hamiltonian(6, 1.0, 0.5, 0.2)
        ens = sa.gibbs_ensemble(sa.diagonalize(chain_rows(6, 1.0, 0.5, 0.2)), beta)
        h = np.asarray(h, dtype=complex)
        rho = expm(-beta * h)
        rho /= np.trace(rho).real
        oracle = np.trace(expm(1j * tau * h) @ rho)
        assert abs(sa.characteristic_function(ens, tau) - oracle) <= 1e-8

    def test_conjugate_symmetry_and_modulus(self):
        ens = chain_ensemble(5, 1.0, 0.5, 0.2, beta=0.7)
        for tau in (0.4, 1.9, 13.0):
            phi = sa.characteristic_function(ens, tau)
            assert phi == pytest.approx(np.conj(sa.characteristic_function(ens, -tau)), abs=1e-12)
            assert abs(phi) <= 1.0 + 1e-12


class TestThermoDensities:
    def test_zero_hamiltonian_closed_forms(self):
        beta = 1.7
        ens = sa.gibbs_ensemble(sa.Spectrum(np.zeros(16)), beta=beta)
        densities = sa.thermo_densities(ens)
        assert densities.f == pytest.approx(-np.log(2) / beta, abs=1e-14)
        assert densities.g == pytest.approx(0.0, abs=1e-14)
        assert densities.h_bits == pytest.approx(1.0, abs=1e-12)

    def test_single_site_closed_forms(self):
        beta = 0.9
        ens = sa.gibbs_ensemble(sa.Spectrum(np.array([-2.0, 2.0])), beta)
        densities = sa.thermo_densities(ens)
        xi = np.exp(2 * beta) + np.exp(-2 * beta)
        p = np.exp(2 * beta) / xi
        assert densities.f == pytest.approx(-np.log(xi) / beta, abs=1e-13)
        assert densities.g == pytest.approx(-2 * p + 2 * (1 - p), abs=1e-13)
        assert densities.h_bits == pytest.approx(
            -p * np.log2(p) - (1 - p) * np.log2(1 - p), abs=1e-12
        )

    def test_identity_residual_ten_sites(self):
        ens = chain_ensemble(10, 1.0, 0.5, 0.2, beta=2.0)
        assert sa.thermo_densities(ens).identity_residual <= 1e-10

    def test_inconsistent_log_partition_is_refused_with_its_residual(self):
        # the weights stay normalized, but f is shifted by -1e-6 / (beta n): a residual of 1e-6 log2(e) / n
        ens = sa.gibbs_ensemble(sa.Spectrum(np.array([-1.0, 0.0, 0.5, 2.0])), 1.3)
        shifted = sa.GibbsEnsemble(ens.beta, ens.spectrum, ens.log_weights, ens.log_partition + 1e-6)
        with pytest.raises(NumericError, match=r"^entropy-rate identity violated: residual 7\.21\de-07$"):
            sa.thermo_densities(shifted)


class TestImmutability:
    def test_ensemble_arrays_are_read_only(self):
        ens, _ = dense_ensemble(chain_hamiltonian(4, 1.0, 0.5, 0.2), beta=1.0)
        for array in (ens.log_weights, ens.weights, ens.spectrum.energies):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[..., 0] = 0.0

    def test_codec_arrays_are_read_only(self):
        ens = chain_ensemble(4, 1.0, 0.5, 0.2, beta=1.0)
        sub = sa.typical_subspace(ens, sa.entropy_bits(ens) / ens.n_sites, 0.5)
        assert sub.dim
        decomp = sa.make_decomposition(ens, ens.dim, seed=3)
        for array in (decomp.weights, decomp.captured, decomp.phases, decomp.sqrt_kappa,
                      decomp.coefficients, sub.indices, sa.build_codebook(sub).indices):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[..., 0] = 0


def frozen_type_case(name: str):
    """A frozen result type and constructor arguments holding fresh writable arrays."""
    return {
        "Spectrum": (sa.Spectrum, {"energies": np.array([0.0, 1.0])}),
        "Decomposition": (sa.Decomposition, {"weights": np.array([0.25, 0.75]),
                                             "captured": np.array([0.5, 0.5]),
                                             "phases": np.ones((3, 2), dtype=complex),
                                             "sqrt_kappa": np.sqrt([0.5, 0.5])}),
        "LocalTerm": (sa.LocalTerm, {"support": ((0,),),
                                     "classical_part": np.array([-1.0, 1.0]),
                                     "quantum_part": np.zeros((2, 2), dtype=complex)}),
    }[name]


class TestOwnership:
    @pytest.mark.parametrize("name", ["Spectrum", "Decomposition", "LocalTerm"])
    def test_writable_input_is_copied(self, name):
        cls, fields = frozen_type_case(name)
        obj = cls(**fields)
        for field, array in fields.items():
            if isinstance(array, np.ndarray):
                assert array.flags.writeable
                assert not getattr(obj, field).flags.writeable
                assert not np.shares_memory(array, getattr(obj, field))

    @pytest.mark.parametrize("name", ["Spectrum", "Decomposition", "LocalTerm"])
    def test_read_only_owned_input_is_kept(self, name):
        cls, fields = frozen_type_case(name)
        for array in fields.values():
            if isinstance(array, np.ndarray):
                array.setflags(write=False)
        obj = cls(**fields)
        for field, array in fields.items():
            if isinstance(array, np.ndarray):
                assert np.shares_memory(array, getattr(obj, field))

    def test_read_only_view_is_copied(self):
        base = np.array([0.0, 1.0, 2.0])
        view = base[:2]
        view.setflags(write=False)
        spec = sa.Spectrum(energies=view)
        assert not np.shares_memory(base, spec.energies)
        assert base.flags.writeable


class TestSpectrumValidation:
    def test_unsorted_energies_rejected(self):
        with pytest.raises(ValueError):
            sa.Spectrum(energies=np.array([1.0, 0.0]))

    def test_nan_energy_rejected(self):
        with pytest.raises(ValueError):
            sa.Spectrum(energies=np.array([0.0, np.nan]))

    def test_matrix_of_energies_rejected(self):
        with pytest.raises(ValueError, match="^energies must be a vector$"):
            sa.Spectrum(energies=np.zeros((2, 2)))

    @pytest.mark.parametrize("energies", [[np.nan], [0.0, np.inf], [-np.inf, 0.0]], ids=["nan", "inf", "-inf"])
    def test_non_finite_energies_rejected(self, energies):
        with pytest.raises(ValueError, match="finite"):
            sa.Spectrum(energies=np.array(energies))

    @pytest.mark.parametrize("source", [
        lambda: np.zeros(4),
        lambda: np.zeros((4, 7)),
        lambda: np.zeros((4, 4)),
        lambda: sa.hamiltonian_rows(sa.preset_tfim(1.0, 0.5, 0.2), sa.chain(2), sa.GroundStateConfig.uniform(1, 1)),
    ], ids=["vector", "wide", "square", "rows"])
    def test_input_that_is_not_a_spectrum_is_refused(self, source):
        with pytest.raises(TypeError, match=r"pass diagonalize\(h\)$"):
            sa.gibbs_ensemble(source(), 1.0)

    @pytest.mark.parametrize("energies", [[], [0.0], [0.0, 1.0, 2.0]], ids=["empty", "one-state", "three-states"])
    def test_spectrum_of_other_than_2_to_the_n_states_is_refused(self, energies):
        spectrum = sa.Spectrum(np.array(energies))
        with pytest.raises(ValueError, match=rf"a spectrum of {len(energies)} states is not one of 2\*\*n states with n >= 1"):
            sa.gibbs_ensemble(spectrum, 1.0)

    def test_parameters_are_the_spectrum_and_beta(self):
        assert list(inspect.signature(sa.gibbs_ensemble).parameters) == ["spectrum", "beta"]
        assert "n_sites" not in {f.name for f in dataclasses.fields(sa.GibbsEnsemble)}
        assert sa.gibbs_ensemble(sa.Spectrum(np.zeros(8)), 1.0).n_sites == 3

    def test_nan_input_rejected(self):
        bad = np.diag([np.nan, 1.0])
        with pytest.raises(ValueError, match="^block 0 has a non-finite entry$"):
            sa.diagonalize(as_rows(bad))
