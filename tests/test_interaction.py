import math
import random
import re

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

import spinaep as sa
from spinaep.errors import CapabilityError

from conftest import generic_models, traced_peak
from test_parity_sectors import golden_model
from oracles import index_spins, minimal_form, periodic_energy_density, periodic_ground_states

ALL_UP = sa.GroundStateConfig.uniform(1, +1)
NEEL = sa.GroundStateConfig((2,), (1, -1))
# antiferromagnetic along axis 0, ferromagnetic along axis 1: ground states
# are the two stripe cells of periods (2, 1)
STRIPES = sa.Interaction(terms=(
    sa.LocalTerm(((0, 0), (1, 0)), np.array([1.0, -1.0, -1.0, 1.0]), np.zeros((4, 4))),
    sa.LocalTerm(((0, 0), (0, 1)), np.array([-0.5, 0.5, 0.5, -0.5]), np.zeros((4, 4))),
), lam=0.0)


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
        onsite = [r for r in reports if len(model.terms[r.term_index].support) == 1]
        assert len(onsite) == 1
        assert onsite[0].spectral_norm == pytest.approx(0.1, abs=1e-14)
        assert onsite[0].satisfied

    def test_supports_within_range(self):
        # nearest-neighbour bonds and on-site fields: every support spans at most one step per axis
        model = sa.preset_tfim(1.0, 0.5, 0.2)
        spreads = [max(axis) - min(axis) for term in model.terms for axis in zip(*term.support)]
        assert max(spreads) == 1


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
        # the report gives the spectral norm; the term it names gives the Hilbert-Schmidt norm
        model = sa.preset_tfim(1.0, 0.0, 0.3)
        onsite = [r for r in sa.check_perturbation_bound(model)
                  if len(model.terms[r.term_index].support) == 1][0]
        assert onsite.spectral_norm == pytest.approx(0.3, abs=1e-14)
        assert np.linalg.norm(model.terms[onsite.term_index].quantum_part) == pytest.approx(0.3 * np.sqrt(2))


def assert_spectral_norms_match_the_svd(model: sa.Interaction) -> None:
    for report in sa.check_perturbation_bound(model):
        expected = np.linalg.norm(model.terms[report.term_index].quantum_part, 2)
        assert abs(report.spectral_norm - expected) <= 4 * np.finfo(float).eps * max(1.0, expected)


class TestSpectralNorm:
    """The smallness check's norm, from ``eigvalsh``, against the SVD's."""

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(generic_models())
    def test_generic_models(self, case):
        model, _, _ = case
        assert_spectral_norms_match_the_svd(model)

    @pytest.mark.parametrize("model", [sa.preset_tfim(1.0, 0.5, 0.2), golden_model("dm")[0]], ids=["tfim", "dm"])
    def test_bench_models(self, model):
        assert_spectral_norms_match_the_svd(model)

    def test_complex_part_is_solved_in_real_form(self, monkeypatch):
        # a complex quantum part is handed to eigvalsh as its real symmetric form, which doubles each eigenvalue
        solved, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solved.append(a) or eigvalsh(a))
        q = np.array([[0.0, 0.3j], [-0.3j, 0.5]])
        model = sa.Interaction(terms=(sa.LocalTerm(((0,),), np.zeros(2), q),), lam=0.5)
        (report,) = sa.check_perturbation_bound(model)
        assert [a.dtype for a in solved] == [np.float64]
        assert np.array_equal(solved[0], [[0, 0, 0, -0.3], [0, 0.5, 0.3, 0], [0, 0.3, 0, 0], [-0.3, 0, 0, 0.5]])
        assert report.spectral_norm == pytest.approx(np.linalg.norm(q, 2), abs=1e-15)


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
            boundary = sa.GroundStateConfig((2,), (rng.choice((1, -1)), rng.choice((1, -1))))
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


# couplings from a small set, so that distinct configurations tie exactly;
# supports up to range 2, some not starting at the origin
TIE_COUPLINGS = st.sampled_from((-1.0, -0.5, 0.0, 0.5, 1.0))
CLASSICAL_SUPPORTS = {
    1: [((0,),), ((0,), (1,)), ((0,), (2,)), ((-1,), (0,), (1,))],
    2: [((0, 0),), ((0, 0), (1, 0)), ((0, 0), (0, 1)), ((0, 0), (1, 1)), ((0, 0), (0, 1), (1, 0))],
}


@st.composite
def classical_models(draw) -> tuple[sa.Interaction, tuple[int, ...]]:
    """A classical model in d = 1 or d = 2 and a search bound per axis: up to 8 in d = 1, 3 in d = 2."""
    d = draw(st.sampled_from((1, 2)))
    terms = []
    for support in draw(st.lists(st.sampled_from(CLASSICAL_SUPPORTS[d]), min_size=1, max_size=3)):
        k = 1 << len(support)
        classical = np.array(draw(st.lists(TIE_COUPLINGS, min_size=k, max_size=k)))
        terms.append(sa.LocalTerm(support, classical, np.zeros((k, k))))
    bounds = tuple(draw(st.integers(1, 8 if d == 1 else 3)) for _ in range(d))
    return sa.Interaction(terms=tuple(terms), lam=0.0), bounds


@st.composite
def tiled_cells(draw) -> sa.GroundStateConfig:
    """A cell of up to 16 sites in d = 1, or up to 4 x 4 in d = 2, tiled
    along each axis from a random smaller cell, so that most cells reduce."""
    d = draw(st.sampled_from((1, 2)))
    bound = 16 if d == 1 else 4
    base = tuple(draw(st.integers(1, bound)) for _ in range(d))
    copies = tuple(draw(st.integers(1, bound // b)) for b in base)
    values = draw(st.lists(st.sampled_from((1, -1)), min_size=math.prod(base), max_size=math.prod(base)))
    cell = np.tile(np.reshape(values, base), copies)
    return sa.GroundStateConfig(cell.shape, tuple(cell.ravel().tolist()))


class TestGroundStates:
    def test_field_selects_all_up(self):
        states = sa.find_periodic_ground_states(sa.preset_tfim(1.0, 0.5, 0.0), (2,))
        assert len(states) == 1
        assert states[0].periods == (1,)
        assert states[0].cell_values == (1,)

    def test_z2_pair_without_field(self):
        states = sa.find_periodic_ground_states(sa.preset_tfim(1.0, 0.0, 0.0), (2,))
        assert len(states) == 2
        cells = {s.cell_values for s in states}
        assert cells == {(1,), (-1,)}

    def test_antiferromagnet_neel_pair(self):
        states = sa.find_periodic_ground_states(sa.preset_tfim(-1.0, 0.0, 0.0), (2,))
        assert len(states) == 2
        assert all(s.periods == (2,) for s in states)
        cells = {s.cell_values for s in states}
        assert cells == {(1, -1), (-1, 1)}

    def test_period_not_dividing_bound_still_found(self):
        # Neel states have period 2, which does not divide a bound of 3
        states = sa.find_periodic_ground_states(sa.preset_tfim(-1.0, 0.0, 0.0), (3,))
        assert len(states) == 2
        assert all(s.periods == (2,) for s in states)

    def test_minimizers_tie_and_beat_random(self):
        model = sa.preset_tfim(1.0, 0.0, 0.0)
        states = sa.find_periodic_ground_states(model, (2,))
        densities = [periodic_energy_density(model, s) for s in states]
        assert max(densities) - min(densities) <= 1e-12
        rng = random.Random(2)
        for _ in range(100):
            period = rng.choice((1, 2, 3))
            cell = tuple(rng.choice((1, -1)) for _ in range(period))
            candidate = sa.GroundStateConfig(periods=(period,), cell_values=cell)
            assert periodic_energy_density(model, candidate) >= densities[0] - 1e-12

    def test_cell_bound(self):
        with pytest.raises(CapabilityError):
            sa.find_periodic_ground_states(sa.preset_tfim(1.0, 0.0, 0.0), (20,))

    def test_cell_bound_is_the_product_of_the_axis_bounds(self):
        with pytest.raises(CapabilityError, match="period cell has 20 sites"):
            sa.find_periodic_ground_states(STRIPES, (5, 4))
        assert sa.find_periodic_ground_states(STRIPES, (5, 2)) == periodic_ground_states(STRIPES, (5, 2))

    def test_search_holds_its_cells_in_int8(self):
        """The 2**16 cells of the (4, 4) period tuple are 1 MiB of int8
        spins; built through int64 temporaries, 8 MiB each, the search
        peaked at 16.2 MiB."""
        states, peak = traced_peak(lambda: sa.find_periodic_ground_states(STRIPES, (4, 4)))
        assert states == sa.find_periodic_ground_states(STRIPES, (2, 2))
        assert peak <= 6 << 20

    def test_spin_lookup_is_periodic(self):
        neel = sa.GroundStateConfig(periods=(2,), cell_values=(1, -1))
        assert neel.spin((0,)) == 1
        assert neel.spin((5,)) == -1
        assert neel.spin((-1,)) == -1

    def test_minimal_form_reduces_periods(self):
        redundant = sa.GroundStateConfig(periods=(2,), cell_values=(1, 1))
        assert redundant.minimal_form().periods == (1,)

    def test_minimal_form_reduces_each_axis_alone(self):
        # period 2 along axis 0 is needed; along axis 1 the cell repeats every 2 of 4
        cell = tuple(1 if (i + j) % 2 else -1 for i in range(2) for j in range(4))
        minimal = sa.GroundStateConfig((2, 4), cell).minimal_form()
        assert minimal.periods == (2, 2)
        assert minimal.cell_values == (-1, 1, 1, -1)

    @settings(max_examples=200, deadline=None)
    @given(tiled_cells())
    def test_minimal_form_equals_the_per_site_oracle(self, state):
        assert state.minimal_form() == minimal_form(state)

    def test_equal_states_hash_alike(self):
        redundant = sa.GroundStateConfig((4,), (1, -1, 1, -1)).minimal_form()
        assert {NEEL, redundant} == {NEEL}
        assert NEEL != sa.GroundStateConfig((2,), (-1, 1))

    def test_search_builds_only_the_states_it_returns(self, monkeypatch):
        """The search scans cells as array rows, not as ``GroundStateConfig``
        objects: one object per cell and one per minimal form would be ~16k
        at period 12."""
        built = []
        post_init = sa.GroundStateConfig.__post_init__
        monkeypatch.setattr(sa.GroundStateConfig, "__post_init__", lambda s: built.append(1) or post_init(s))
        states = sa.find_periodic_ground_states(sa.preset_tfim(1.0, 0.5, 0.0), (12,))
        assert 0 < len(built) <= len(states)

    @settings(max_examples=100, deadline=None)
    @given(classical_models())
    def test_search_equals_the_per_cell_oracle(self, case):
        model, max_periods = case
        assert sa.find_periodic_ground_states(model, max_periods) == periodic_ground_states(model, max_periods)

    @pytest.mark.parametrize("max_periods", [(True,), (2.0,), (np.int64(2),), (0,), (-1,), 2, [2], (2, 2)],
                             ids=["bool", "float", "numpy", "zero", "negative", "int", "list", "length"])
    def test_max_periods_must_be_a_tuple_of_positive_ints(self, max_periods):
        # True was taken as 1, and 2.0 failed in range() with a TypeError
        message = f"max_periods must be a tuple of one int >= 1 per axis (1), got {max_periods!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            sa.find_periodic_ground_states(sa.preset_tfim(1.0, 0.5, 0.0), max_periods)

    @pytest.mark.parametrize("periods, cell, message", [
        ((2.7,), (1, -1), "periods must be positive ints, got (2.7,)"),
        ((2.0,), (1, -1), "periods must be positive ints, got (2.0,)"),
        ((True,), (1,), "periods must be positive ints, got (True,)"),
        ((np.int64(1),), (1,), "periods must be positive ints"),
        ((0,), (), "periods must be positive ints, got (0,)"),
        ((1,), (True,), "cell values must be the int +1 or -1, got True"),
        ((1,), (1.0,), "cell values must be the int +1 or -1, got 1.0"),
        ((2,), (1, np.int64(-1)), "cell values must be the int +1 or -1"),
        ((2,), (1, 0), "cell values must be the int +1 or -1, got 0"),
        ((2,), {(0.0,): 1, (1,): -1}, "cell_values must be a tuple of spins, got a dict"),
        ((2,), {(True,): 1, (0,): -1}, "cell_values must be a tuple of spins, got a dict"),
        ((2,), {(0, 0): 1, (1,): -1}, "cell_values must be a tuple of spins, got a dict"),
        ((2,), [1, -1], "cell_values must be a tuple of spins, got a list"),
        ((2, 2), (1, -1, 1), "cell_values must hold one spin per cell site (4), got 3"),
        ((2,), (1, -1, 1), "cell_values must hold one spin per cell site (2), got 3"),
    ], ids=["fractional period", "float period", "bool period", "numpy period", "zero period",
            "bool spin", "float spin", "numpy spin", "zero spin", "float key", "bool key",
            "key of another dimension", "list", "too few values", "too many values"])
    def test_values_that_only_compare_equal_to_ints_are_refused(self, periods, cell, message):
        # a period of 2.7 was truncated to 2, and True or 1.0 stored as a spin;
        # a site-keyed mapping or a list is no tuple of spins
        with pytest.raises(ValueError, match=re.escape(message)):
            sa.GroundStateConfig(periods, cell)

    def test_site_of_another_dimension_refused(self):
        with pytest.raises(ValueError, match=re.escape("site (1, 5) has dimension 2, the state has dimension 1")):
            NEEL.spin((1, 5))

    @pytest.mark.parametrize("site", [(True,), (1.0,), (np.int64(1),)], ids=["bool", "float", "numpy int"])
    def test_site_of_non_int_coordinates_refused(self, site):
        # (True,) read cell index 1, and (1.0,) raised numpy's TypeError
        with pytest.raises(ValueError, match=re.escape(f"site must be a nonempty tuple of ints, got {site!r}")):
            NEEL.spin(site)


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
