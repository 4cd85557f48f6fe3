"""The parity-block solve of ``diagonalize`` against the dense route.

A Hamiltonian that commutes bit for bit with the bit-reversal permutation
of the basis is solved as an even and an odd block; every other matrix takes
one full solve. Which route ran is read from the shapes that
``numpy.linalg.eigvalsh`` is called with.
"""

from pathlib import Path

import numpy as np
import pytest

import spinaep as sa

GOLDEN = Path(__file__).resolve().parent / "golden"
ALL_UP = sa.GroundStateConfig.uniform(1, +1)


def block_shapes(n_sites: int) -> list[tuple[int, int]]:
    """Even and odd block shapes: 2^ceil(n/2) palindromes sit in the even block."""
    dim, palindromes = 1 << n_sites, 1 << (n_sites + 1) // 2
    return [((dim + palindromes) // 2,) * 2, ((dim - palindromes) // 2,) * 2]


def symmetric_complex_model() -> sa.Interaction:
    """A chain whose terms are complex and map to themselves under reflection.

    The imaginary bond entry couples |00> and |11>, which reflection fixes.
    Dyadic coefficients keep every sum in the assembly exact, so H commutes
    with bit reversal bit for bit.
    """
    bond_quantum = np.zeros((4, 4), dtype=complex)
    bond_quantum[0, 3], bond_quantum[3, 0] = 0.0625j, -0.0625j
    bond = sa.LocalTerm(((0,), (1,)), np.array([-1.0, 1.0, 1.0, -1.0]), bond_quantum)
    site = sa.LocalTerm(((0,),), np.array([-0.5, 0.5]),
                        np.array([[0.0, -0.25 + 0.125j], [-0.25 - 0.125j, 0.0]]))
    return sa.Interaction(terms=(bond, site), R=1, lam=0.25)


def golden_model(case: str) -> tuple[sa.Interaction, sa.GroundStateConfig]:
    config = sa.parse_config((GOLDEN / f"{case}.cfg").read_text(encoding="utf-8"))
    return sa.build_interaction(config), sa.build_boundary(config)


def assert_blocks_match_dense(h: np.ndarray, calls: list[np.ndarray], n_sites: int) -> None:
    energies = sa.diagonalize(h).energies
    assert [c.shape for c in calls] == block_shapes(n_sites)
    for block in calls:
        assert np.array_equal(block, block.conj().T)
    dense = sa.eigenpairs(h).energies
    assert np.abs(energies - dense).max() <= 1e-12 * np.abs(dense).max()


@pytest.mark.parametrize("n_sites", range(3, 10))
def test_tfim_chain_blocks_match_the_dense_route(n_sites, eigvalsh_calls):
    h = sa.assemble_hamiltonian(sa.preset_tfim(1.0, 0.5, 0.2), sa.chain(n_sites), ALL_UP)
    assert_blocks_match_dense(h, eigvalsh_calls, n_sites)


@pytest.mark.parametrize("n_sites", [2, 5, 8])
def test_symmetric_complex_chain_blocks_match_the_dense_route(n_sites, eigvalsh_calls):
    h = sa.assemble_hamiltonian(symmetric_complex_model(), sa.chain(n_sites), ALL_UP)
    assert h.imag.any()
    assert_blocks_match_dense(h, eigvalsh_calls, n_sites)


@pytest.mark.parametrize("case, volume", [
    ("dm", sa.chain(7)),
    ("generic2d", sa.build_box((0, 0), (2, 2))),
])
def test_models_without_the_symmetry_take_the_full_solve(case, volume, eigvalsh_calls):
    model, boundary = golden_model(case)
    h = sa.assemble_hamiltonian(model, volume, boundary)
    sa.diagonalize(h)
    assert [c.shape for c in eigvalsh_calls] == [h.shape]


def bit_reversed(index: int, n_sites: int) -> int:
    return int(format(index, f"0{n_sites}b")[::-1], 2)


def test_one_mirrored_entry_moved_by_one_ulp_takes_the_full_solve(eigvalsh_calls):
    n_sites = 7
    h = sa.assemble_hamiltonian(sa.preset_tfim(1.0, 0.5, 0.2), sa.chain(n_sites), ALL_UP)
    # |0000000> and the state with its first spin flipped: the mirror image
    # of that entry couples |0000000> to the state with the last spin flipped
    s, t = 0, 1 << (n_sites - 1)
    assert h[s, t] != 0
    h[s, t] = h[t, s] = np.nextafter(h[s, t], np.inf)
    assert np.array_equal(h, h.T)
    sa.diagonalize(h)
    assert [c.shape for c in eigvalsh_calls] == [h.shape]


def test_one_diagonal_entry_in_the_last_rows_moved_by_one_ulp_takes_the_full_solve(eigvalsh_calls):
    # the symmetry test reads rows in chunks; a fault in the last one counts too
    n_sites = 9
    h = sa.assemble_hamiltonian(sa.preset_tfim(1.0, 0.5, 0.2), sa.chain(n_sites), ALL_UP)
    s = max(i for i in range(1 << n_sites) if i < bit_reversed(i, n_sites))
    h[s, s] = np.nextafter(h[s, s], np.inf)
    sa.diagonalize(h)
    assert [c.shape for c in eigvalsh_calls] == [h.shape]


@pytest.mark.parametrize("h", [np.diag([1, 2, 2, 3]), np.eye(3), np.diag([0.0, 1.0])],
                         ids=["integer", "odd-dimension", "one-qubit"])
def test_matrices_outside_the_block_rule_take_the_full_solve(h, eigvalsh_calls):
    np.testing.assert_array_equal(sa.diagonalize(h).energies, np.linalg.eigvalsh(h))
    assert eigvalsh_calls[0].shape == h.shape
