import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import spinaep as sa
from spinaep.hamiltonian import _scatter_add, _sum_terms
from spinaep.interaction import support_config_index

from oracles import index_spins, kron_chain_tfim, kron_site_op, loop_assemble, SX, SZ

ALL_UP = sa.GroundStateConfig.uniform(1, +1)


class TestSingleSiteClosedForms:
    def test_classical_single_site(self):
        model = sa.preset_tfim(1.0, 0.0, 0.0)
        volume = sa.build_box((0,), (0,))
        h = sa.assemble_hamiltonian(model, volume, ALL_UP)
        np.testing.assert_allclose(h, np.diag([-2.0, 2.0]), atol=1e-14)

    def test_single_site_with_transverse_field(self):
        model = sa.preset_tfim(1.0, 0.0, 0.3)
        volume = sa.build_box((0,), (0,))
        h = sa.assemble_hamiltonian(model, volume, ALL_UP)
        np.testing.assert_allclose(h, np.array([[-2.0, -0.3], [-0.3, 2.0]]), atol=1e-14)


class TestAssemblyOracle:
    def test_matches_kronecker_oracle(self):
        model = sa.preset_tfim(1.0, 0.5, 0.2)
        volume = sa.chain(5)
        h = sa.assemble_hamiltonian(model, volume, ALL_UP)
        oracle = kron_chain_tfim(5, 1.0, 0.5, 0.2)
        assert np.abs(h - oracle).max() <= 1e-12

    def test_matches_kronecker_oracle_all_down(self):
        model = sa.preset_tfim(1.0, 0.5, 0.2)
        volume = sa.chain(4)
        down = sa.GroundStateConfig.uniform(1, -1)
        h = sa.assemble_hamiltonian(model, volume, down)
        oracle = kron_chain_tfim(4, 1.0, 0.5, 0.2, boundary=-1)
        assert np.abs(h - oracle).max() <= 1e-12

    def test_hermitian(self):
        model = sa.preset_tfim(0.8, 0.3, 0.4)
        h = sa.assemble_hamiltonian(model, sa.chain(5), ALL_UP)
        scale = max(1.0, np.abs(h).max())
        assert np.abs(h - h.conj().T).max() <= 1e-12 * scale

    def test_classical_diagonal_matches_configuration_energy(self):
        model = sa.preset_tfim(1.0, 0.5, 0.0)
        volume = sa.chain(4)
        h = sa.assemble_hamiltonian(model, volume, ALL_UP)
        assert np.abs(h - np.diag(np.diag(h))).max() == 0.0
        envelope = ALL_UP.restricted_to(sa.boundary_envelope(volume, model.R))
        for idx in range(16):
            config = sa.Configuration(index_spins(volume.sites, idx)).merge(envelope)
            expected = sa.classical_energy(model, config, volume=volume)
            assert h[idx, idx] == pytest.approx(expected, abs=1e-12)


class TestBasisIndexing:
    def test_round_trip(self):
        volume = sa.build_box((0, 0), (1, 1), max_qubits=4)
        for idx in range(16):
            spins = index_spins(volume.sites, idx)
            assert support_config_index(volume.sites, spins.__getitem__) == idx

    def test_msb_is_first_site(self):
        spins = {(0,): -1, (1,): 1}
        assert support_config_index(sa.chain(2).sites, spins.__getitem__) == 0b10


def embed(op: np.ndarray, sites, volume: sa.Volume) -> np.ndarray:
    """``op`` on the given sites and the identity elsewhere, through the assembly's scatter."""
    out = np.zeros((1 << volume.n_sites,) * 2, dtype=op.dtype)
    _scatter_add(out, op, sites, volume)
    return out


class TestEmbedLocal:
    def test_identity(self):
        volume = sa.chain(3)
        out = embed(np.eye(2), [(1,)], volume)
        np.testing.assert_allclose(out, np.eye(8))

    def test_pauli_z_msb(self):
        volume = sa.chain(2)
        out = embed(SZ, [(0,)], volume)
        np.testing.assert_allclose(out, np.diag([1.0, 1.0, -1.0, -1.0]))

    def test_disjoint_embeddings_commute(self):
        volume = sa.chain(4)
        a = embed(SX, [(0,)], volume)
        b = embed(SZ, [(2,)], volume)
        np.testing.assert_allclose(a @ b, b @ a)

    def test_matches_kron_oracle(self):
        volume = sa.chain(4)
        for site in range(4):
            out = embed(SX, [(site,)], volume)
            np.testing.assert_allclose(out, kron_site_op(SX, site, 4))

    def test_two_site_block(self):
        volume = sa.chain(3)
        zz = np.kron(SZ, SZ)
        out = embed(zz, [(0,), (1,)], volume)
        np.testing.assert_allclose(out, np.kron(zz, np.eye(2)))

    def test_site_outside_volume(self):
        with pytest.raises(ValueError):
            embed(np.eye(2), [(5,)], sa.chain(2))


def ising_2d_model(J: float, h: float, lam: float) -> sa.Interaction:
    bond = lambda sup: sa.LocalTerm(
        support=sup, classical_part=np.array([-J, J, J, -J]), quantum_part=np.zeros((4, 4))
    )
    onsite = sa.LocalTerm(
        support=((0, 0),),
        classical_part=np.array([-h, h]),
        quantum_part=np.array([[0.0, -lam], [-lam, 0.0]]),
    )
    return sa.Interaction(
        terms=(bond(((0, 0), (1, 0))), bond(((0, 0), (0, 1))), onsite), R=1, lam=max(lam, 0.0)
    )


class TestTwoDimensional:
    def test_classical_diagonal_matches_bond_oracle(self):
        J, h = 1.0, 0.3
        model = ising_2d_model(J, h, 0.0)
        volume = sa.build_hypercube(1, 2, max_qubits=9)
        up = sa.GroundStateConfig.uniform(2, +1)
        ham = sa.assemble_hamiltonian(model, volume, up)
        assert np.abs(ham - np.diag(np.diag(ham))).max() == 0.0
        inside = set(volume.sites)
        for idx in range(2**9):
            spins = index_spins(volume.sites, idx)
            energy = 0.0
            for site in volume.sites:
                s = spins[site]
                energy -= h * s
                for axis in (0, 1):
                    for step in (-1, 1):
                        nb = tuple(c + (step if a == axis else 0) for a, c in enumerate(site))
                        if nb in inside:
                            energy -= 0.5 * J * s * spins[nb]  # each bond seen twice
                        else:
                            energy -= J * s  # frozen all-up neighbor
            assert ham[idx, idx] == pytest.approx(energy, abs=1e-12)

    def test_transverse_part_is_single_flip_hops(self):
        model = ising_2d_model(1.0, 0.3, 0.2)
        volume = sa.build_hypercube(1, 2, max_qubits=9)
        up = sa.GroundStateConfig.uniform(2, +1)
        ham = np.asarray(sa.assemble_hamiltonian(model, volume, up))
        off = ham - np.diag(np.diag(ham))
        for idx in (0, 37, 511):
            row = off[idx]
            nonzero = np.nonzero(row)[0]
            assert len(nonzero) == 9
            for j in nonzero:
                assert bin(idx ^ j).count("1") == 1
                assert row[j] == pytest.approx(-0.2)


class TestInstantiation:
    def test_every_crossing_term_stays_in_envelope(self):
        model = sa.preset_tfim(1.0, 0.5, 0.2)
        volume = sa.chain(3)
        envelope = sa.boundary_envelope(volume, model.R)
        allowed = set(volume.sites) | set(envelope)
        for inst in sa.instantiate_terms(model, volume, ALL_UP):
            assert set(inst.support) <= allowed

    def test_equals_loop_reference_exactly(self):
        golden = Path(__file__).parent / "golden"
        chain_model = sa.build_interaction(sa.parse_config((golden / "dm.cfg").read_text()))
        square_model = sa.build_interaction(sa.parse_config((golden / "generic2d.cfg").read_text()))
        cases = (
            (sa.preset_tfim(1.0, 0.5, 0.2), sa.chain(4), ALL_UP),
            (chain_model, sa.chain(5), sa.GroundStateConfig((2,), {(0,): 1, (1,): -1})),
            (square_model, sa.build_box((0, 0), (1, 1)),
             sa.GroundStateConfig((2, 1), {(0, 0): 1, (1, 0): -1})),
        )
        for model, volume, boundary in cases:
            h = sa.assemble_hamiltonian(model, volume, boundary)
            reference = loop_assemble(model, volume, boundary)
            assert np.array_equal(h, reference)
            assert np.iscomplexobj(h) == bool(reference.imag.any())

    def test_frozen_block_is_hermitian(self):
        model = sa.preset_tfim(1.0, 0.5, 0.4)
        for inst in sa.instantiate_terms(model, sa.chain(3), ALL_UP):
            assert np.abs(inst.matrix - inst.matrix.conj().T).max() <= 1e-12


class TestExactHermiticity:
    """The assembled H equals its conjugate transpose bit for bit.

    The values-only eigensolver reads one triangle, so this is what lets the
    CLI skip a runtime Hermiticity check.
    """

    @pytest.mark.parametrize("case", ["tfim", "dm", "generic2d"])
    def test_assembled_h_is_exactly_hermitian(self, case):
        golden = Path(__file__).parent / "golden"
        config = sa.parse_config((golden / f"{case}.cfg").read_text())
        model, boundary = sa.build_interaction(config), sa.build_boundary(config)
        volumes = {
            "tfim": [sa.chain(n) for n in (1, 3, 8)],
            "dm": [sa.chain(n) for n in (1, 4, 8)],
            "generic2d": [sa.build_box((0, 0), (1, 1)), sa.build_box((0, 0), (1, 3)),
                          sa.build_box((0, 0), (2, 1))],
        }[case]
        for volume in volumes:
            assert volume.n_sites <= 8
            h = sa.assemble_hamiltonian(model, volume, boundary)
            assert np.array_equal(h, h.conj().T)


class TestRealAccumulation:
    """A sum whose blocks carry no imaginary part is accumulated in float64."""

    @staticmethod
    def complex_then_real(model, volume, boundary) -> np.ndarray:
        """The sum accumulated in complex, then returned real if no imaginary part survives."""
        h = np.zeros((1 << volume.n_sites,) * 2, dtype=complex)
        for inst in sa.instantiate_terms(model, volume, boundary):
            _scatter_add(h, inst.matrix, inst.sites_in, volume)
        return h if h.imag.any() else np.ascontiguousarray(h.real)

    @pytest.mark.parametrize("case, volume", [
        ("tfim", sa.chain(8)),
        ("dm", sa.chain(7)),
        ("generic2d", sa.build_box((0, 0), (1, 2))),
    ])
    def test_equals_the_complex_sum_bit_for_bit(self, case, volume):
        config = sa.parse_config((Path(__file__).parent / "golden" / f"{case}.cfg").read_text())
        model, boundary = sa.build_interaction(config), sa.build_boundary(config)
        h = sa.assemble_hamiltonian(model, volume, boundary)
        reference = self.complex_then_real(model, volume, boundary)
        assert h.dtype == (np.float64 if case == "tfim" else np.complex128)
        assert h.dtype == reference.dtype and h.flags.c_contiguous
        assert h.tobytes() == reference.tobytes()

    def test_real_sum_allocates_no_complex_matrix(self):
        volume = sa.chain(8)
        tracemalloc.start()
        h = sa.assemble_hamiltonian(sa.preset_tfim(1.0, 0.5, 0.2), volume, ALL_UP)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert h.dtype == np.float64
        assert peak < np.dtype(complex).itemsize * h.size  # 1 MiB at 8 sites

    def test_cancelling_imaginary_parts_give_a_real_sum(self):
        volume = sa.chain(2)
        up = np.array([[0.0, 1j], [-1j, 0.0]])
        h = _sum_terms(volume, [(up, [(0,)]), (-up, [(0,)])])
        assert h.dtype == np.float64
        assert not h.any()
