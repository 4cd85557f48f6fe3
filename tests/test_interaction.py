import dataclasses
import random
import re
from pathlib import Path

import numpy as np
import pytest

from hypothesis import example, given, settings

import spinaep as sa
from spinaep.errors import CapabilityError

from conftest import generic_models
from oracles import index_spins

ALL_UP = sa.GroundStateConfig.uniform(1, +1)
NEEL = sa.GroundStateConfig((2,), {(0,): 1, (1,): -1})


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

    def test_norm_constant_must_be_finite_and_nonnegative(self):
        # under c = -1, a zero quantum part was reported beyond the bound -0.04
        for c in (-1.0, -1e-300, np.nan, np.inf):
            with pytest.raises(ValueError, match="c must be finite and >= 0"):
                sa.preset_tfim(1.0, 0.5, 0.2, c=c)
        assert all(r.satisfied for r in sa.check_perturbation_bound(sa.preset_tfim(1.0, 0.5, 0.0, c=0.0)))

    def test_reports_both_norms(self):
        model = sa.preset_tfim(1.0, 0.0, 0.3)
        onsite = [r for r in sa.check_perturbation_bound(model) if r.span_size == 1][0]
        assert onsite.hilbert_schmidt_norm == pytest.approx(0.3 * np.sqrt(2))


class TestClassicalEnergy:
    """The classical energy of a volume's spins, pinned to a boundary configuration outside it."""

    def test_volume_selection_includes_boundary_bonds(self):
        model = sa.preset_tfim(1.0, 0.0, 0.0)
        volume = sa.chain(3)
        spin_at = ALL_UP.pinned(volume, {s: 1 for s in volume.sites})
        assert sa.classical_energy(model, volume, spin_at) == pytest.approx(-4.0)

    def test_flipped_interior_spin(self):
        model = sa.preset_tfim(1.0, 0.0, 0.0)
        volume = sa.chain(3)
        spin_at = ALL_UP.pinned(volume, {(0,): 1, (1,): -1, (2,): 1})
        assert sa.classical_energy(model, volume, spin_at) == pytest.approx(0.0)

    def test_matches_bond_sum_oracle(self):
        J, h = 1.3, -0.4
        model = sa.preset_tfim(J, h, 0.0)
        volume = sa.chain(8)
        rng = random.Random(5)
        for _ in range(10):
            spins = [rng.choice((1, -1)) for _ in range(8)]
            boundary = sa.GroundStateConfig((2,), {(0,): rng.choice((1, -1)), (1,): rng.choice((1, -1))})
            spin_at = boundary.pinned(volume, {(i,): s for i, s in enumerate(spins)})
            oracle = -J * sum(spins[i] * spins[i + 1] for i in range(7)) - h * sum(spins)
            oracle -= J * (boundary.spin((-1,)) * spins[0] + spins[7] * boundary.spin((8,)))
            assert sa.classical_energy(model, volume, spin_at) == pytest.approx(oracle, abs=1e-12)

    def test_translation_invariance(self):
        model = sa.preset_tfim(0.7, 0.2, 0.0)
        rng = random.Random(13)
        volume = sa.chain(5)
        shift = 11
        shifted_volume = sa.build_box((shift,), (shift + 4,))
        spin_at = NEEL.pinned(volume, {s: rng.choice((1, -1)) for s in volume.sites})
        assert sa.classical_energy(model, volume, spin_at) == pytest.approx(
            sa.classical_energy(model, shifted_volume, lambda s: spin_at((s[0] - shift,))), abs=1e-12
        )

    def test_global_flip_symmetry_without_field(self):
        model = sa.preset_tfim(1.0, 0.0, 0.0)
        volume = sa.chain(7)
        rng = random.Random(3)
        spin_at = NEEL.pinned(volume, {s: rng.choice((1, -1)) for s in volume.sites})
        assert sa.classical_energy(model, volume, spin_at) == pytest.approx(
            sa.classical_energy(model, volume, lambda s: -spin_at(s)), abs=1e-12
        )

    @pytest.mark.parametrize("value", [0, 2])
    def test_spin_values_validated(self, value):
        with pytest.raises(ValueError, match="spin must be \\+1 or -1"):
            sa.classical_energy(sa.preset_tfim(1.0, 0.0, 0.0), sa.chain(3), lambda s: value)

    def test_volume_of_another_dimension_refused(self):
        with pytest.raises(ValueError, match="dimensions must agree"):
            sa.classical_energy(sa.preset_tfim(1.0, 0.0, 0.0), sa.build_box((0, 0), (1, 1)), lambda s: 1)

    @settings(max_examples=200, deadline=None)
    @given(generic_models())
    @example((sa.Interaction((sa.LocalTerm(((0,),), np.array([0.5, -1.5]), np.zeros((2, 2))),), lam=0.0),
              sa.chain(3), NEEL))
    def test_equals_the_classical_diagonal_of_h(self, case):
        """With the quantum parts zeroed, the pinned H is diagonal and each entry
        is the classical energy of its basis state, on-site-only models included."""
        model, volume, boundary = case
        model = sa.Interaction(tuple(
            sa.LocalTerm(t.support, t.classical_part, np.zeros_like(t.quantum_part)) for t in model.terms
        ), lam=model.lam)
        diagonal = np.diag(sa.assemble_hamiltonian(model, volume, boundary)).real
        energies = np.array([
            sa.classical_energy(model, volume, boundary.pinned(volume, index_spins(volume.sites, idx)))
            for idx in range(len(diagonal))
        ])
        assert np.abs(energies - diagonal).max() <= 1e-12 * max(1.0, np.abs(diagonal).max())


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

    def test_minimal_form_reduces_each_axis_alone(self):
        # period 2 along axis 0 is needed; along axis 1 the cell repeats every 2 of 4
        cell = {(i, j): (1 if (i + j) % 2 else -1) for i in range(2) for j in range(4)}
        minimal = sa.GroundStateConfig((2, 4), cell).minimal_form()
        assert minimal.periods == (2, 2)
        assert minimal.cell_values == {(0, 0): -1, (0, 1): 1, (1, 0): 1, (1, 1): -1}

    def test_equal_states_hash_alike(self):
        redundant = sa.GroundStateConfig((2,), {(1,): -1, (0,): 1}).minimal_form()
        assert {NEEL, redundant} == {NEEL}
        assert NEEL != sa.GroundStateConfig((2,), {(0,): -1, (1,): 1})

    def test_search_compares_each_state_with_its_duplicates_only(self, monkeypatch):
        """Distinct cells of one period tuple hash apart, so the search's dedupe
        compares states at most once per scanned cell; a hash over the periods
        alone puts the ~4000 period-12 cells in one bucket, ~1e7 comparisons."""
        compared = []
        eq = sa.GroundStateConfig.__eq__
        monkeypatch.setattr(sa.GroundStateConfig, "__eq__", lambda a, b: compared.append(1) or eq(a, b))
        max_period = 12
        sa.find_periodic_ground_states(sa.preset_tfim(1.0, 0.5, 0.0), max_period)
        assert 0 < len(compared) <= sum(2**p for p in range(1, max_period + 1))

    @pytest.mark.parametrize("periods, cell, message", [
        ((2.7,), {(0,): 1, (1,): -1}, "periods must be positive ints, got (2.7,)"),
        ((2.0,), {(0,): 1, (1,): -1}, "periods must be positive ints, got (2.0,)"),
        ((True,), {(0,): 1}, "periods must be positive ints, got (True,)"),
        ((np.int64(1),), {(0,): 1}, "periods must be positive ints"),
        ((0,), {}, "periods must be positive ints, got (0,)"),
        ((1,), {(0,): True}, "cell values must be the int +1 or -1, got True"),
        ((1,), {(0,): 1.0}, "cell values must be the int +1 or -1, got 1.0"),
        ((2,), {(0,): 1, (1,): np.int64(-1)}, "cell values must be the int +1 or -1"),
        ((2,), {(0,): 1, (1,): 0}, "cell values must be the int +1 or -1, got 0"),
        ((2,), {(0.0,): 1, (1,): -1}, "site must be a nonempty tuple of ints, got (0.0,)"),
        ((2,), {(True,): 1, (0,): -1}, "site must be a nonempty tuple of ints, got (True,)"),
        ((2,), {(0, 0): 1, (1,): -1}, "cell_values must cover exactly the period cell"),
    ], ids=["fractional period", "float period", "bool period", "numpy period", "zero period",
            "bool spin", "float spin", "numpy spin", "zero spin", "float key", "bool key",
            "key of another dimension"])
    def test_values_that_only_compare_equal_to_ints_are_refused(self, periods, cell, message):
        # a period of 2.7 was truncated to 2, True or 1.0 stored as a spin, and
        # (0.0,) or (True,) stored as a cell site
        with pytest.raises(ValueError, match=re.escape(message)):
            sa.GroundStateConfig(periods, cell)

    def test_site_of_another_dimension_refused(self):
        with pytest.raises(ValueError, match=re.escape("site (1, 5) has dimension 2, the state has dimension 1")):
            NEEL.spin((1, 5))
        with pytest.raises(ValueError, match="interaction of dimension 1 on a state of dimension 2"):
            sa.energy_density(sa.preset_tfim(1.0, 0.5, 0.0), sa.GroundStateConfig.uniform(2, 1))


class TestLocalTermValidation:
    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            sa.LocalTerm(
                support=((0,),),
                classical_part=np.zeros(2),
                quantum_part=np.array([[0.0, 1.0], [0.0, 0.0]]),
            )

    @pytest.mark.parametrize("part, classical, quantum", [
        ("classical_part", [np.nan, 0.0], np.zeros((2, 2))),
        ("classical_part", [0.0, -np.inf], np.zeros((2, 2))),
        ("quantum_part", np.zeros(2), [[0.0, np.nan], [np.nan, 0.0]]),
        ("quantum_part", np.zeros(2), [[np.inf, 0.0], [0.0, 0.0]]),
        ("quantum_part", np.zeros(2), [[0.0, complex(0.0, np.nan)], [complex(0.0, np.nan), 0.0]]),
    ], ids=["classical-nan", "classical-inf", "quantum-nan", "quantum-inf", "quantum-imaginary-nan"])
    def test_non_finite_entry_rejected(self, part, classical, quantum):
        # once accepted, to fail far away: in the assembly's Hermiticity test or in the eigensolver
        with pytest.raises(ValueError, match=f"{part} has a non-finite entry"):
            sa.LocalTerm(((0,),), np.array(classical), np.array(quantum))

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

    @pytest.mark.parametrize("coordinate", [0.5, 1.0, np.float64(1.0), "1", True, None],
                             ids=["float", "integral-float", "numpy-float", "str", "bool", "none"])
    def test_non_integer_coordinate_rejected(self, coordinate):
        with pytest.raises(ValueError, match="site must be a nonempty tuple of ints"):
            sa.LocalTerm(((0,), (coordinate,)), np.zeros(4), np.zeros((4, 4)))
        with pytest.raises(ValueError, match="site must be a nonempty tuple of ints"):
            sa.build_box((0,), (coordinate,))

    @pytest.mark.parametrize("support", [((1,), (0,)), ((0,), (0,)), ((0, 1), (0, 0)), ((1, 0), (1, 0))],
                             ids=["reversed", "repeated", "reversed-2d", "repeated-2d"])
    def test_support_out_of_order_rejected(self, support):
        with pytest.raises(ValueError, match="sites must be distinct and in ascending lexicographic order"):
            sa.LocalTerm(support=support, classical_part=np.zeros(4), quantum_part=np.zeros((4, 4)))
