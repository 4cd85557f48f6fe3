import functools
import itertools
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spinaep as sa
from spinaep.interaction import _translates, support_config_index

from conftest import generic_models, traced_peak
from oracles import (
    bit_reversal, embed_block, index_spins, kron_chain_tfim, kron_site_op, loop_assemble, SX, SZ,
)

GOLDEN = Path(__file__).parent / "golden"

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
        for idx in range(16):
            expected = sa.classical_energy(model, volume, ALL_UP.pinned(volume, index_spins(volume.sites, idx)))
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
    """``op`` on the given sites and the identity elsewhere, through the row generator."""
    return sa.HamiltonianRows(volume, [(op, sites)]).dense()


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

    def test_each_entry_receives_one_addition_per_block(self):
        # a second addition of any entry would double it
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        op = a + a.conj().T
        out = embed(op, [(0,), (2,)], sa.chain(4))
        assert out.tobytes() == embed_block(op, [0, 2], 4).tobytes()


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
        terms=(bond(((0, 0), (1, 0))), bond(((0, 0), (0, 1))), onsite), lam=max(lam, 0.0)
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


def instantiated(model, volume, boundary) -> list[tuple]:
    """``(block, sites_in, support)`` per instantiated term, the full support from ``_translates``.

    Each ``sites_in`` is checked to be the part of its support inside the volume.
    """
    pairs = sa.instantiate_terms(model, volume, boundary)
    supports = [support for _, support in _translates(model, volume.sites)]
    assert len(pairs) == len(supports)
    for (_, sites_in), support in zip(pairs, supports):
        assert sites_in == tuple(s for s in support if s in volume)
    return [(block, sites_in, support) for (block, sites_in), support in zip(pairs, supports)]


class TestInstantiation:
    def test_every_crossing_term_stays_in_envelope(self):
        """Each instantiated support lies in the volume and its range-R envelope,
        on every volume of the golden models; some of them cross the boundary."""
        for case in ("tfim", "dm", "generic2d"):
            config = sa.parse_config((GOLDEN / f"{case}.cfg").read_text())
            model, boundary = sa.build_interaction(config), sa.build_boundary(config)
            # the range: the largest coordinate spread of any term's support
            r = max(max(axis) - min(axis) for term in model.terms for axis in zip(*term.support))
            for n in config.volumes:
                volume = sa.build_hypercube(n, config.d)
                allowed = {tuple(c + o for c, o in zip(site, offset)) for site in volume.sites
                           for offset in itertools.product(range(-r, r + 1), repeat=volume.d)}
                terms = instantiated(model, volume, boundary)
                assert any(len(sites_in) < len(support) for _, sites_in, support in terms), (case, n)
                for _, _, support in terms:
                    assert set(support) <= allowed, (case, n, support)

    def test_equals_loop_reference_exactly(self):
        golden = Path(__file__).parent / "golden"
        chain_model = sa.build_interaction(sa.parse_config((golden / "dm.cfg").read_text()))
        square_model = sa.build_interaction(sa.parse_config((golden / "generic2d.cfg").read_text()))
        cases = (
            (sa.preset_tfim(1.0, 0.5, 0.2), sa.chain(4), ALL_UP),
            (chain_model, sa.chain(5), sa.GroundStateConfig((2,), (1, -1))),
            (square_model, sa.build_box((0, 0), (1, 1)),
             sa.GroundStateConfig((2, 1), (1, -1))),
        )
        for model, volume, boundary in cases:
            h = sa.assemble_hamiltonian(model, volume, boundary)
            reference = loop_assemble(model, volume, boundary)
            assert np.array_equal(h, reference)
            assert np.iscomplexobj(h) == bool(reference.imag.any())

    def test_a_term_listed_twice_counts_twice(self):
        """A term object listed twice adds like two equal distinct terms, in H and in the classical energy."""
        def bond():
            return sa.LocalTerm(((0,), (1,)), np.array([-1.0, 1.0, 1.0, -1.0]), np.zeros((4, 4)))

        once = bond()
        repeated = sa.Interaction((once, once), lam=0.0)
        distinct = sa.Interaction((bond(), bond()), lam=0.0)
        volume = sa.chain(3)
        h = sa.assemble_hamiltonian(repeated, volume, ALL_UP)
        assert h[0, 0] == -8.0  # four bonds meet the volume, each counted twice
        assert h.tobytes() == sa.assemble_hamiltonian(distinct, volume, ALL_UP).tobytes()
        for idx in range(8):
            spin_at = ALL_UP.pinned(volume, index_spins(volume.sites, idx))
            energy = sa.classical_energy(repeated, volume, spin_at)
            assert energy == sa.classical_energy(distinct, volume, spin_at) == h[idx, idx]

    @staticmethod
    def brute_force_supports(model, volume) -> list[tuple]:
        """Every translate meeting the volume, from a box of offsets wide enough to hold them all."""
        reach = 1 + max(abs(c) for term in model.terms for site in term.support for c in site)
        lo = [min(s[i] for s in volume.sites) - reach for i in range(volume.d)]
        hi = [max(s[i] for s in volume.sites) + reach for i in range(volume.d)]
        supports = []
        for term in model.terms:
            for off in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))):
                support = tuple(tuple(c + o for c, o in zip(site, off)) for site in term.support)
                if any(s in volume for s in support):
                    supports.append(support)
        return supports

    @pytest.mark.parametrize("case", ["tfim", "dm", "generic2d"])
    def test_supports_match_brute_force_on_golden_models(self, case):
        config = sa.parse_config((GOLDEN / f"{case}.cfg").read_text())
        model, boundary = sa.build_interaction(config), sa.build_boundary(config)
        for n in config.volumes:
            volume = sa.build_hypercube(n, config.d)
            supports = [support for _, _, support in instantiated(model, volume, boundary)]
            assert supports == self.brute_force_supports(model, volume), (case, n)

    @settings(max_examples=40, deadline=None)
    @given(generic_models())
    def test_supports_match_brute_force_on_generic_models(self, case):
        model, volume, boundary = case
        supports = [support for _, _, support in instantiated(model, volume, boundary)]
        assert supports == self.brute_force_supports(model, volume)

    def test_frozen_block_is_hermitian(self):
        model = sa.preset_tfim(1.0, 0.5, 0.4)
        for block, _ in sa.instantiate_terms(model, sa.chain(3), ALL_UP):
            assert np.abs(block - block.conj().T).max() <= 1e-12


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
        """The sum accumulated in complex, then returned real if no imaginary part survives.

        Each diagonal entry is the sum of the terms' real diagonal
        contributions in ascending order, as the assembly takes it.
        """
        n = volume.n_sites
        h = np.zeros((1 << n,) * 2, dtype=complex)
        diagonals = []
        for block, sites_in in sa.instantiate_terms(model, volume, boundary):
            positions = [volume.index_of(s) for s in sites_in]
            alone = embed_block(block.astype(complex), positions, n)
            h += alone
            diagonals.append(alone.diagonal().real)
        np.fill_diagonal(h, functools.reduce(np.add, np.sort(diagonals, axis=0)))
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
        h, peak = traced_peak(lambda: sa.assemble_hamiltonian(sa.preset_tfim(1.0, 0.5, 0.2), volume, ALL_UP))
        assert h.dtype == np.float64
        assert peak < np.dtype(complex).itemsize * h.size  # 1 MiB at 8 sites

    def test_cancelling_imaginary_parts_give_a_real_sum(self):
        volume = sa.chain(2)
        up = np.array([[0.0, 1j], [-1j, 0.0]])
        h = sa.HamiltonianRows(volume, [(up, [(0,)]), (-up, [(0,)])]).dense()
        assert h.dtype == np.float64
        assert not h.any()


class TestMalformedBlocks:
    """A block that cannot be a Hermitian term on its sites is refused by index, before any table."""

    @pytest.mark.parametrize("blocks, message", [
        ([], "no blocks: H needs at least one"),
        ([(np.eye(2), [(0,)]), (np.eye(3), [(0,)])], "block 1 on 1 sites must be 2 x 2, got shape (3, 3)"),
        ([(np.eye(4), [(0,)])], "block 0 on 1 sites must be 2 x 2, got shape (4, 4)"),
        ([(np.eye(2), [(1,), (0,)])], "block 0 on 2 sites must be 4 x 4, got shape (2, 2)"),
        ([(np.ones(4), [(0,), (1,)])], "block 0 on 2 sites must be 4 x 4, got shape (4,)"),
        ([(np.eye(4), [(0,), (0,)])], "block 0 names a site twice"),
        ([(np.eye(2), [(0,)]), (np.array([[0, 1j], [0, 0]]), [(1,)])], "block 1 is not exactly Hermitian"),
        ([(np.array([[1j, 0], [0, 0]]), [(0,)])], "block 0 is not exactly Hermitian"),
        ([(np.array([[0.0, 1.0], [np.nextafter(1.0, 2.0), 0.0]]), [(0,)])], "block 0 is not exactly Hermitian"),
        ([(np.eye(2), [(0,)]), (np.diag([np.nan, 0.0]), [(1,)])], "block 1 has a non-finite entry"),
        ([(np.diag([np.inf, 0.0]), [(0,)])], "block 0 has a non-finite entry"),
        ([(np.array([[0, complex(0, np.inf)], [complex(0, -np.inf), 0]]), [(0,)])],
         "block 0 has a non-finite entry"),
    ], ids=["empty", "second-too-small", "too-large", "too-small", "vector", "repeated-site",
            "upper-only", "imaginary-diagonal", "one-ulp", "nan", "inf", "imaginary-inf"])
    def test_refused_with_its_index(self, blocks, message):
        refusal, peak = traced_peak(lambda: pytest.raises(ValueError, sa.HamiltonianRows, sa.chain(8), blocks))
        refusal.match(re.escape(message))
        assert peak < 64 * 1024  # the 17-site key table alone would be 1 MiB


class TestTermOrder:
    """The assembled H does not depend on the order in which the terms come."""

    @pytest.mark.parametrize("case", ["tfim", "dm"])
    def test_shuffled_terms_give_the_same_h_bit_for_bit(self, case):
        volume = sa.chain(9)
        if case == "tfim":
            # couplings whose sums round differently in different orders
            model, boundary = sa.preset_tfim(0.7, 0.3, 0.2), ALL_UP
        else:
            config = sa.parse_config((Path(__file__).parent / "golden" / "dm.cfg").read_text())
            model, boundary = sa.build_interaction(config), sa.build_boundary(config)
        blocks = sa.instantiate_terms(model, volume, boundary)
        h = sa.HamiltonianRows(volume, blocks).dense()
        rng = np.random.default_rng(11)
        for _ in range(4):
            shuffled = sa.HamiltonianRows(volume, [blocks[k] for k in rng.permutation(len(blocks))]).dense()
            assert shuffled.dtype == h.dtype
            assert shuffled.tobytes() == h.tobytes()


def bits(a: np.ndarray) -> bytes:
    """The bytes of ``a`` as complex128, so real rows and complex references compare bit for bit."""
    return np.asarray(a, dtype=complex).tobytes()


def assert_rows_match_references(model, volume, boundary, seed: int = 0) -> None:
    """Generated rows, plain and bit-reversed, equal the dense and the loop assembly bit for bit.

    The index sets are unsorted, with gaps: part of a permutation, every
    third index from the top, the last index alone, and all of them shuffled.
    """
    rows = sa.hamiltonian_rows(model, volume, boundary)
    dense = sa.assemble_hamiltonian(model, volume, boundary)
    reference = loop_assemble(model, volume, boundary)
    assert bits(dense) == bits(reference)
    dim, rng = dense.shape[0], np.random.default_rng(seed)
    mirror = bit_reversal(volume.n_sites)
    for index in (rng.permutation(dim)[:max(1, dim // 3)], np.arange(dim)[::-3],
                  np.array([dim - 1]), rng.permutation(dim)):
        assert bits(rows.rows(index)) == bits(reference[index])
        assert bits(rows.rows(index, mirror)) == bits(reference[index][:, mirror])


class TestGeneratedRows:
    """The row generator against the dense assembly and the entry-by-entry loop."""

    @pytest.mark.parametrize("case, volume", [
        ("tfim", sa.chain(5)),
        ("dm", sa.chain(6)),
        ("generic2d", sa.build_box((0, 0), (1, 2))),
    ])
    def test_golden_models(self, case, volume):
        config = sa.parse_config((GOLDEN / f"{case}.cfg").read_text())
        assert_rows_match_references(sa.build_interaction(config), volume, sa.build_boundary(config))

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_generic_models(self, data):
        model, volume, boundary = data.draw(generic_models())
        assert_rows_match_references(model, volume, boundary, seed=data.draw(st.integers(0, 99)))

    @pytest.mark.parametrize("index", [
        np.arange(-1, 1023), np.arange(1, 1025), np.ones(1024, dtype=bool), np.arange(1024.0),
    ], ids=["negative", "past-the-end", "bool", "float"])
    def test_index_outside_the_integers_of_the_rows_is_refused(self, index):
        # a 1024-row answer would take 8 MiB; at -1 it would wrap row -1 into row 0
        rows = sa.hamiltonian_rows(sa.preset_tfim(1.0, 0.5, 0.2), sa.chain(10), ALL_UP)
        refusal, peak = traced_peak(lambda: pytest.raises(IndexError, rows.rows, index))
        refusal.match(re.escape("row indices must be integers in [0, 1024)"))
        assert peak < 64 * 1024

    def test_empty_index_gives_no_rows(self):
        rows = sa.hamiltonian_rows(sa.preset_tfim(1.0, 0.5, 0.2), sa.chain(3), ALL_UP)
        assert rows.rows([]).shape == (0, 8)


NEEL = sa.GroundStateConfig((2,), (+1, -1))


class TestKeyTable:
    """Each row's keys are stored in the narrowest unsigned type that holds them."""

    @pytest.mark.parametrize("path, volumes, itemsizes", [
        (GOLDEN / "tfim.cfg", range(1, 6), [1] * 5),
        (GOLDEN / "dm.cfg", range(1, 6), [1] * 5),
        # 48 translates of up to 8 patterns on the 3 x 3 box
        (GOLDEN / "generic2d.cfg", range(2), [1, 2]),
        (GOLDEN.parent.parent / "perfbench" / "configs" / "tfim.cfg", range(1, 6), [1] * 5),
        (GOLDEN.parent.parent / "perfbench" / "configs" / "dm.cfg", range(1, 6), [1] * 5),
    ], ids=["golden tfim", "golden dm", "golden generic2d", "bench tfim", "bench dm"])
    def test_bytes_per_key_on_the_golden_and_bench_models(self, path, volumes, itemsizes):
        config = sa.parse_config(path.read_text(encoding="utf-8"))
        model, boundary = sa.build_interaction(config), sa.build_boundary(config)
        tables = [sa.hamiltonian_rows(model, sa.build_hypercube(n, config.d), boundary)._keys for n in volumes]
        assert [keys.itemsize for keys in tables] == itemsizes
        assert all(keys.dtype.kind == "u" for keys in tables)

    def test_two_bytes_past_256_keys(self):
        # 4-site plaquettes and rows of four on a 3 x 2 box: 24 translates of up to 16 patterns each
        rng = np.random.default_rng(3)
        terms = []
        for support in (((0, 0), (0, 1), (1, 0), (1, 1)), ((0, 0), (1, 0), (2, 0), (3, 0))):
            quantum = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
            terms.append(sa.LocalTerm(support, rng.standard_normal(16), quantum + quantum.conj().T))
        model = sa.Interaction(terms=tuple(terms), lam=0.5)
        volume, boundary = sa.build_box((0, 0), (2, 1)), sa.GroundStateConfig((2, 1), (1, -1))
        rows = sa.hamiltonian_rows(model, volume, boundary)
        assert rows._keys.shape[0] * rows._steps.shape[1] > 256
        assert rows._keys.dtype == np.uint16
        assert_rows_match_references(model, volume, boundary)


def golden_or_neel_model(case: str) -> tuple[sa.Interaction, sa.GroundStateConfig]:
    """A golden config's model and boundary, or the TFIM chain pinned by the Neel cell."""
    if case == "tfim-neel":
        return sa.preset_tfim(1.0, 0.5, 0.2), NEEL
    config = sa.parse_config((GOLDEN / f"{case}.cfg").read_text())
    return sa.build_interaction(config), sa.build_boundary(config)


class TestRowMajorFill:
    """``dense()``, filled in place in row chunks, is the bytes of all the generated rows."""

    @staticmethod
    def assert_same_bytes(rows: sa.HamiltonianRows) -> None:
        h = rows.dense()
        assert h.flags.c_contiguous and h.dtype == rows.dtype
        assert h.tobytes() == rows.rows(np.arange(rows.shape[0])).tobytes()

    @pytest.mark.parametrize("case, volume", [
        ("tfim", sa.chain(7)),
        ("tfim-neel", sa.chain(7)),
        ("dm", sa.chain(8)),
        ("generic2d", sa.build_box((0, 0), (1, 2))),
    ])
    def test_golden_models(self, case, volume):
        model, boundary = golden_or_neel_model(case)
        self.assert_same_bytes(sa.hamiltonian_rows(model, volume, boundary))

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(generic_models())
    def test_generic_models(self, case):
        self.assert_same_bytes(sa.hamiltonian_rows(*case))

    def test_blocks_that_are_not_symmetric(self):
        # complex Hermitian blocks, one with signed zeros, on unordered sites: H.T is not H
        hop = np.array([[0.0, complex(-0.0, 0.5)], [complex(-0.0, -0.5), complex(-0.0, 0.0)]])
        bond = np.array([[1, 0, 0, 0], [0, -1, 2j, 0], [0, -2j, -1, 0.25], [0, 0, 0.25, 1]])
        rows = sa.HamiltonianRows(sa.chain(3), [(hop, [(1,)]), (bond, [(2,), (0,)]), (hop, [(0,)])])
        assert rows.dtype == np.complex128
        self.assert_same_bytes(rows)

    @pytest.mark.parametrize("case", ["tfim-neel", "dm"])
    def test_fills_in_place(self, case):
        model, boundary = golden_or_neel_model(case)
        rows = sa.hamiltonian_rows(model, sa.chain(10), boundary)
        h, peak = traced_peak(rows.dense)
        # each chunk of rows is written in place, with no temporary copy of its rows
        assert peak <= h.nbytes + 512 * 1024
