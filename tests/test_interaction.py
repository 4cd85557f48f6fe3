import dataclasses
import random
from pathlib import Path

import numpy as np
import pytest

import spinaep as sa
from spinaep.errors import CapabilityError


class TestPresetTfim:
    def test_lambda_zero_is_classical(self):
        model = sa.preset_tfim(1.0, 0.5, 0.0)
        for term in model.terms:
            assert not term.quantum_part.any()

    def test_all_zero_model(self):
        model = sa.preset_tfim(0.0, 0.0, 0.0)
        for term in model.terms:
            assert not term.classical_part.any()
            assert not term.quantum_part.any()

    def test_onsite_quantum_norm_is_lambda(self):
        model = sa.preset_tfim(1.0, 0.0, 0.1)
        reports = sa.check_perturbation_bound(model)
        onsite = [r for r in reports if r.span_size == 1]
        assert len(onsite) == 1
        assert onsite[0].spectral_norm == pytest.approx(0.1, abs=1e-14)
        assert onsite[0].satisfied

    def test_supports_within_range(self):
        model = sa.preset_tfim(1.0, 0.5, 0.2)
        for term in model.terms:
            assert sa.linf_diameter(term.support) <= model.R


class TestPerturbationBound:
    def test_all_pass(self):
        assert all(r.satisfied for r in sa.check_perturbation_bound(sa.preset_tfim(1, 0.5, 0.1)))

    def test_violation_flagged(self):
        term = sa.LocalTerm(
            support=((0,),),
            classical_part=np.zeros(2),
            quantum_part=np.array([[0.0, 0.5], [0.5, 0.0]]),
        )
        model = sa.Interaction(terms=(term,), lam=0.1, c=1.0)
        (report,) = sa.check_perturbation_bound(model)
        assert not report.satisfied
        assert report.bound == pytest.approx(0.1)

    def test_zero_quantum_always_passes(self):
        model = sa.preset_tfim(2.0, 1.0, 0.0)
        assert all(r.satisfied for r in sa.check_perturbation_bound(model))

    def test_reports_both_norms(self):
        model = sa.preset_tfim(1.0, 0.0, 0.3)
        onsite = [r for r in sa.check_perturbation_bound(model) if r.span_size == 1][0]
        assert onsite.hilbert_schmidt_norm == pytest.approx(0.3 * np.sqrt(2))


class TestClassicalEnergy:
    def test_all_up_free_sum(self):
        model = sa.preset_tfim(1.0, 0.0, 0.0)
        config = sa.Configuration({(0,): 1, (1,): 1, (2,): 1})
        assert sa.classical_energy(model, config) == pytest.approx(-2.0)

    def test_flipped_interior_spin(self):
        model = sa.preset_tfim(1.0, 0.0, 0.0)
        config = sa.Configuration({(0,): 1, (1,): -1, (2,): 1})
        assert sa.classical_energy(model, config) == pytest.approx(2.0)

    def test_matches_bond_sum_oracle(self):
        J, h = 1.3, -0.4
        model = sa.preset_tfim(J, h, 0.0)
        rng = random.Random(5)
        for _ in range(10):
            spins = [rng.choice((1, -1)) for _ in range(8)]
            config = sa.Configuration({(i,): s for i, s in enumerate(spins)})
            oracle = -J * sum(spins[i] * spins[i + 1] for i in range(7)) - h * sum(spins)
            assert sa.classical_energy(model, config) == pytest.approx(oracle, abs=1e-12)

    def test_missing_site_with_volume(self):
        model = sa.preset_tfim(1.0, 0.0, 0.0)
        volume = sa.chain(3)
        config = sa.Configuration({s: 1 for s in volume.sites})  # no envelope values
        with pytest.raises(ValueError):
            sa.classical_energy(model, config, volume=volume)

    def test_volume_selection_includes_boundary_bonds(self):
        model = sa.preset_tfim(1.0, 0.0, 0.0)
        volume = sa.chain(3)
        envelope = sa.boundary_envelope(volume, model.R)
        config = sa.Configuration({s: 1 for s in set(volume.sites) | envelope})
        assert sa.classical_energy(model, config, volume=volume) == pytest.approx(-4.0)

    def test_translation_invariance(self):
        model = sa.preset_tfim(0.7, 0.2, 0.0)
        rng = random.Random(9)
        spins = [rng.choice((1, -1)) for _ in range(6)]
        base = sa.Configuration({(i,): s for i, s in enumerate(spins)})
        shifted = sa.Configuration({(i + 11,): s for i, s in enumerate(spins)})
        assert sa.classical_energy(model, base) == pytest.approx(
            sa.classical_energy(model, shifted), abs=1e-12
        )

    def test_translation_invariance_with_volume(self):
        model = sa.preset_tfim(0.7, 0.2, 0.0)
        rng = random.Random(13)
        volume = sa.chain(5)
        shift = 11
        shifted_volume = sa.build_box((shift,), (shift + 4,))
        spins = {s: rng.choice((1, -1)) for s in volume.sites}
        spins.update({s: 1 for s in sa.boundary_envelope(volume, model.R)})
        base = sa.Configuration(spins)
        moved = sa.Configuration({(s[0] + shift,): v for s, v in spins.items()})
        assert sa.classical_energy(model, base, volume=volume) == pytest.approx(
            sa.classical_energy(model, moved, volume=shifted_volume), abs=1e-12
        )

    def test_global_flip_symmetry_without_field(self):
        model = sa.preset_tfim(1.0, 0.0, 0.0)
        rng = random.Random(3)
        spins = [rng.choice((1, -1)) for _ in range(7)]
        config = sa.Configuration({(i,): s for i, s in enumerate(spins)})
        flipped = sa.Configuration({(i,): -s for i, s in enumerate(spins)})
        assert sa.classical_energy(model, config) == pytest.approx(
            sa.classical_energy(model, flipped), abs=1e-12
        )


class TestGroundStates:
    def test_field_selects_all_up(self):
        states = sa.find_periodic_ground_states(sa.preset_tfim(1.0, 0.5, 0.0), 2)
        assert len(states) == 1
        assert states[0].periods == (1,)
        assert states[0].cell_values == {(0,): 1}

    def test_z2_pair_without_field(self):
        states = sa.find_periodic_ground_states(sa.preset_tfim(1.0, 0.0, 0.0), 2)
        assert len(states) == 2
        cells = {tuple(s.cell_values.values()) for s in states}
        assert cells == {(1,), (-1,)}

    def test_antiferromagnet_neel_pair(self):
        states = sa.find_periodic_ground_states(sa.preset_tfim(-1.0, 0.0, 0.0), 2)
        assert len(states) == 2
        assert all(s.periods == (2,) for s in states)
        cells = {tuple(v for _, v in sorted(s.cell_values.items())) for s in states}
        assert cells == {(1, -1), (-1, 1)}

    def test_period_not_dividing_bound_still_found(self):
        # Neel states have period 2, which does not divide a bound of 3
        states = sa.find_periodic_ground_states(sa.preset_tfim(-1.0, 0.0, 0.0), 3)
        assert len(states) == 2
        assert all(s.periods == (2,) for s in states)

    def test_minimizers_tie_and_beat_random(self):
        model = sa.preset_tfim(1.0, 0.0, 0.0)
        states = sa.find_periodic_ground_states(model, 2)
        densities = [sa.energy_density(model, s) for s in states]
        assert max(densities) - min(densities) <= 1e-12
        rng = random.Random(2)
        for _ in range(100):
            period = rng.choice((1, 2, 3))
            cell = {(i,): rng.choice((1, -1)) for i in range(period)}
            candidate = sa.GroundStateConfig(periods=(period,), cell_values=cell)
            assert sa.energy_density(model, candidate) >= densities[0] - 1e-12

    def test_cell_bound(self):
        with pytest.raises(CapabilityError):
            sa.find_periodic_ground_states(sa.preset_tfim(1.0, 0.0, 0.0), 20)

    def test_spin_lookup_is_periodic(self):
        neel = sa.GroundStateConfig(periods=(2,), cell_values={(0,): 1, (1,): -1})
        assert neel.spin((0,)) == 1
        assert neel.spin((5,)) == -1
        assert neel.spin((-1,)) == -1

    def test_minimal_form_reduces_periods(self):
        redundant = sa.GroundStateConfig(periods=(2,), cell_values={(0,): 1, (1,): 1})
        assert redundant.minimal_form().periods == (1,)


class TestLocalTermValidation:
    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            sa.LocalTerm(
                support=((0,),),
                classical_part=np.zeros(2),
                quantum_part=np.array([[0.0, 1.0], [0.0, 0.0]]),
            )

    def test_nearly_hermitian_part_is_stored_exactly_hermitian(self):
        quantum = np.array([[0.0, 0.3 + 0.1j], [0.3 - 0.1j + 1e-14, 0.0]])
        term = sa.LocalTerm(support=((0,),), classical_part=np.zeros(2), quantum_part=quantum)
        assert np.array_equal(term.quantum_part, term.quantum_part.conj().T)
        assert np.abs(term.quantum_part - quantum).max() <= 1e-14

    def test_range_is_the_largest_support_diameter(self):
        def model(*supports):
            return sa.Interaction(terms=tuple(
                sa.LocalTerm(support, np.zeros(2 ** len(support)), np.zeros((2 ** len(support),) * 2))
                for support in supports
            ), lam=0.0)

        golden = Path(__file__).parent / "golden" / "generic2d.cfg"
        assert sa.preset_tfim(1.0, 0.5, 0.2).R == 1
        assert model(((0,),)).R == 0
        assert model(((0,),), ((0,), (2,))).R == 2
        assert sa.build_interaction(sa.parse_config(golden.read_text())).R == 1
        assert "R" not in {f.name for f in dataclasses.fields(sa.Interaction)}

    @pytest.mark.parametrize("support", [((1,), (0,)), ((0,), (0,)), ((0, 1), (0, 0)), ((1, 0), (1, 0))],
                             ids=["reversed", "repeated", "reversed-2d", "repeated-2d"])
    def test_support_out_of_order_rejected(self, support):
        with pytest.raises(ValueError, match="sites must be distinct and in ascending lexicographic order"):
            sa.LocalTerm(support=support, classical_part=np.zeros(4), quantum_part=np.zeros((4, 4)))
