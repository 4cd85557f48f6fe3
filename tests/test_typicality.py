import numpy as np
import pytest

import spinaep as sa

from conftest import EXHIBIT, chain_ensemble
from oracles import window_filter


def lln_residual(ens, t):
    return sa.lln_residual(ens, sa.thermo_densities(ens).g, t)


class TestTypicalSubspace:
    def test_zero_hamiltonian_full_window(self):
        ens = sa.gibbs_ensemble(sa.Spectrum(np.zeros(32)), beta=1.0)
        sub = sa.typical_subspace(ens, h_ref=1.0, delta=0.2)
        assert sub.dim == 32
        assert sub.mass == pytest.approx(1.0, abs=1e-12)

    def test_wide_window_covers_everything(self):
        ens = chain_ensemble(5, 1.0, 0.5, 0.2, beta=1.0)
        h_ref = sa.entropy_bits(ens) / 5
        log2_min = float((ens.log_weights * sa.LOG2E).min())
        delta = max(h_ref, abs(log2_min) / 5 - h_ref) + 0.1
        sub = sa.typical_subspace(ens, h_ref, delta)
        assert sub.dim == ens.dim
        assert sub.mass == pytest.approx(1.0, abs=1e-12)

    def test_matches_filter_oracle_ten_sites(self):
        ens = chain_ensemble(10, 1.0, 0.5, 0.2, beta=2.0)
        h_ref = sa.entropy_bits(ens) / 10
        sub = sa.typical_subspace(ens, h_ref, 0.1)
        picked, mass = window_filter(ens.log_weights * sa.LOG2E, 10, h_ref, 0.1)
        assert list(sub.indices) == picked
        assert sub.mass == pytest.approx(mass, abs=1e-12)

    def test_delta_must_be_positive(self):
        ens = sa.gibbs_ensemble(sa.Spectrum(np.zeros(4)), beta=1.0)
        with pytest.raises(ValueError):
            sa.typical_subspace(ens, 1.0, 0.0)

    @pytest.mark.parametrize("h_ref", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_h_ref_must_be_finite(self, h_ref):
        ens = sa.gibbs_ensemble(sa.Spectrum(np.zeros(4)), beta=1.0)
        with pytest.raises(ValueError, match="h_ref must be finite"):
            sa.typical_subspace(ens, h_ref, 0.2)

    def test_window_inclusion_monotone(self):
        ens = chain_ensemble(6, 1.0, 0.5, 0.2, beta=0.5)
        h_ref = sa.entropy_bits(ens) / 6
        small = sa.typical_subspace(ens, h_ref, 0.1)
        large = sa.typical_subspace(ens, h_ref, 0.3)
        assert set(small.indices) <= set(large.indices)
        assert small.mass <= large.mass + 1e-15
        assert small.dim <= large.dim


class TestMassCurve:
    def test_free_family_is_constant_one(self):
        family = [sa.gibbs_ensemble(sa.Spectrum(np.zeros(2**n)), beta=2.0) for n in (2, 3, 4)]
        masses = [sa.typical_subspace(e, 1.0, 0.2).mass for e in family]
        np.testing.assert_allclose(masses, 1.0, atol=1e-12)

    def test_masses_match_oracle(self, exhibit_ensembles):
        family = [exhibit_ensembles[n] for n in sorted(exhibit_ensembles)]
        masses = [sa.typical_subspace(e, sa.entropy_bits(e) / e.n_sites, EXHIBIT["delta"]).mass for e in family]
        for ens, mass in zip(family, masses):
            h_ref = sa.entropy_bits(ens) / ens.n_sites
            _, oracle = window_filter(
                ens.log_weights * sa.LOG2E, ens.n_sites, h_ref, EXHIBIT["delta"]
            )
            assert mass == pytest.approx(oracle, abs=1e-12)


class TestDimensionRate:
    def test_zero_hamiltonian_rate_one(self):
        ens = sa.gibbs_ensemble(sa.Spectrum(np.zeros(64)), beta=1.0)
        sub = sa.typical_subspace(ens, 1.0, 0.1)
        assert sa.dimension_rate(sub) == pytest.approx(1.0)

    def test_single_state_rate_zero(self, exhibit_ensembles):
        ens = exhibit_ensembles[4]
        sub = sa.typical_subspace(ens, sa.entropy_bits(ens) / 4, EXHIBIT["delta"])
        assert sub.dim == 1
        assert sa.dimension_rate(sub) == 0.0

    def test_empty_subspace_reported_absent(self):
        ens = chain_ensemble(4, 1.0, 0.5, 0.2, beta=0.5)
        sub = sa.typical_subspace(ens, sa.entropy_bits(ens) / 4, 0.15)
        assert sub.dim == 0
        assert sa.dimension_rate(sub) is None

    def test_sandwich_inequality(self, exhibit_ensembles):
        for n, ens in exhibit_ensembles.items():
            h_ref = sa.entropy_bits(ens) / n
            sub = sa.typical_subspace(ens, h_ref, EXHIBIT["delta"])
            eps = 1.0 - sub.mass
            assert sub.dim <= 2 ** (n * (h_ref + EXHIBIT["delta"]))
            assert sub.dim >= (1.0 - eps) * 2 ** (n * (h_ref - EXHIBIT["delta"]))


class TestBestRateMass:
    def test_full_rate_captures_everything(self):
        ens = chain_ensemble(5, 1.0, 0.5, 0.2, beta=1.0)
        assert sa.best_rate_mass(ens, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_rate_zero_is_largest_weight(self):
        ens = chain_ensemble(5, 1.0, 0.5, 0.2, beta=1.0)
        assert sa.best_rate_mass(ens, 0.0) == pytest.approx(
            float(np.exp(ens.log_weights).max()), abs=1e-14
        )

    def test_monotone_in_rate(self):
        ens = chain_ensemble(6, 1.0, 0.5, 0.2, beta=0.5)
        masses = [sa.best_rate_mass(ens, r) for r in (0.0, 0.2, 0.5, 0.8, 1.0)]
        assert all(a <= b + 1e-15 for a, b in zip(masses, masses[1:]))

    def test_matches_sorted_prefix_oracle(self):
        ens = chain_ensemble(6, 1.0, 0.5, 0.2, beta=0.5)
        rate = 0.5
        count = 2 ** int(6 * rate)
        oracle = float(np.sort(np.exp(ens.log_weights))[::-1][:count].sum())
        assert sa.best_rate_mass(ens, rate) == pytest.approx(oracle, abs=1e-13)

    def test_huge_rate_counts_every_state(self):
        ens = chain_ensemble(5, 1.0, 0.5, 0.2, beta=1.0)
        assert sa.best_rate_mass(ens, 1e300) == sa.best_rate_mass(ens, 1.0)
        assert sa.best_rate_mass(ens, 1e300) == pytest.approx(1.0, abs=1e-12)
        free = sa.gibbs_ensemble(sa.Spectrum(np.zeros(8)), beta=1.0)
        assert sa.best_rate_mass(free, 1e300) == 1.0
        assert sa.best_rate_mass(ens, np.inf) == sa.best_rate_mass(ens, 1.0)

    def test_negative_rate_rejected(self):
        ens = sa.gibbs_ensemble(sa.Spectrum(np.zeros(4)), beta=1.0)
        with pytest.raises(ValueError):
            sa.best_rate_mass(ens, -0.1)

    def test_nan_rate_rejected(self):
        ens = sa.gibbs_ensemble(sa.Spectrum(np.zeros(4)), beta=1.0)
        with pytest.raises(ValueError, match="rate must be >= 0, got nan"):
            sa.best_rate_mass(ens, np.nan)


class TestLlnResidual:
    def test_zero_time_is_exactly_zero(self, exhibit_ensembles):
        for ens in exhibit_ensembles.values():
            assert lln_residual(ens, 0.0) == 0.0

    def test_zero_hamiltonian_is_zero_everywhere(self):
        ens = sa.gibbs_ensemble(sa.Spectrum(np.zeros(16)), beta=1.0)
        for t in (0.0, 0.5, 3.0):
            assert lln_residual(ens, t) <= 1e-14

    def test_time_reflection_symmetry(self):
        ens = chain_ensemble(5, 1.0, 0.5, 0.2, beta=2.0)
        for t in (0.7, 2.5):
            assert lln_residual(ens, t) == pytest.approx(lln_residual(ens, -t), abs=1e-13)

    def test_decreases_along_exhibit(self, exhibit_ensembles):
        residuals = [
            lln_residual(exhibit_ensembles[n], 1.0) for n in sorted(exhibit_ensembles)
        ]
        assert all(a > b for a, b in zip(residuals, residuals[1:]))


class TestWarmTemperatureTrends:
    """Concentration trends at beta=0.5, where the entropy rate is well above
    the window width; the cold exhibit (beta=2) sits below the crossover."""

    def test_mass_grows_from_smallest_to_largest(self, warm_ensembles):
        family = [warm_ensembles[n] for n in sorted(warm_ensembles)]
        masses = [sa.typical_subspace(e, sa.entropy_bits(e) / e.n_sites, 0.15).mass for e in family]
        assert masses[-1] > masses[0]

    def test_subrate_mass_strictly_decreases(self, warm_ensembles):
        masses = []
        for n in sorted(warm_ensembles):
            ens = warm_ensembles[n]
            rate = sa.entropy_bits(ens) / ens.n_sites - 0.2
            assert rate > 0
            masses.append(sa.best_rate_mass(ens, rate))
        assert all(a > b for a, b in zip(masses, masses[1:]))

    def test_lln_residual_strictly_decreases(self, warm_ensembles):
        residuals = [lln_residual(warm_ensembles[n], 1.0) for n in sorted(warm_ensembles)]
        assert all(a > b for a, b in zip(residuals, residuals[1:]))
