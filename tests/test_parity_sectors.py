"""The reflection routes of ``diagonalize`` against the dense route.

A Hamiltonian that commutes bit for bit with the bit-reversal permutation
``R`` of the basis is solved as an even and an odd block, both held in one
buffer and each valid in the lower triangle that the solve reads. A
complex one with ``R H R == conj(H)`` bit for bit is solved as one real
symmetric matrix, written in its lower triangle only. Every other matrix
takes one full solve of its lower triangle. A dense H is solved as the
generator :func:`conftest.as_rows` makes of it. Which route ran is read from
the matrices that the solves are given: copies of a route's buffer taken
before the in-place solve overwrites it.
"""

import mmap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spinaep as sa
from spinaep import checks, gibbs
from spinaep._arrays import CHUNK_BYTES, chunk_rows
from spinaep.hamiltonian import _bit_patterns
from conftest import IN_PLACE, all_rows, as_rows, record_buffers, record_solves, rss_growth, traced_peak
from oracles import bit_reversal, loop_assemble, parity_blocks, real_form

GOLDEN = Path(__file__).resolve().parent / "golden"
ALL_UP = sa.GroundStateConfig.uniform(1, +1)


def block_shapes(n_sites: int) -> list[tuple[int, int]]:
    """Even and odd block shapes: 2^ceil(n/2) palindromes sit in the even block."""
    dim, palindromes = 1 << n_sites, 1 << (n_sites + 1) // 2
    return [((dim + palindromes) // 2,) * 2, ((dim - palindromes) // 2,) * 2]


def chain_rows_setup(case: str, n_sites: int) -> str:
    """Statements that build ``rows``, the generator of a chain, from ``spinaep`` alone, as ``sa``.

    ``case`` is "tfim" with an all-up boundary, "dm" as the golden config
    gives it, "dm, all up": the golden interaction with an all-up boundary,
    or "asymmetric": the "tfim" chain plus a real hop ``q[0, 1] = q[1, 0] =
    0.05`` on a bond, which fails both reflection tests, and "asymmetric,
    complex": that chain plus the dm config's imaginary bond.
    """
    hop = "[[0, 0.05, 0, 0], [0.05, 0, {}, 0], [0, {}, 0, 0], [0, 0, 0, 0]]"
    asymmetric = ("sa.Interaction(terms=sa.preset_tfim(1.0, 0.5, 0.2).terms"
                  " + (sa.LocalTerm(((0,), (1,)), [0.0] * 4, {}),), lam=0.2)")
    model, boundary = {
        "tfim": ("sa.preset_tfim(1.0, 0.5, 0.2)", "all_up"),
        "dm": ("sa.build_interaction(config)", "sa.build_boundary(config)"),
        "dm, all up": ("sa.build_interaction(config)", "all_up"),
        "asymmetric": (asymmetric.format(hop.format(0, 0)), "all_up"),
        "asymmetric, complex": (asymmetric.format(hop.format("0.03j", "-0.03j")), "all_up"),
    }[case]
    return ("from pathlib import Path\n"
            f"config = sa.parse_config(Path({str(GOLDEN / 'dm.cfg')!r}).read_text(encoding='utf-8'))\n"
            "all_up = sa.GroundStateConfig.uniform(1, 1)\n"
            f"rows = sa.hamiltonian_rows({model}, sa.chain({n_sites}), {boundary})")


def real_form_resident_bytes(dim: int) -> int:
    """Resident bytes of the real form: its lower triangle, and half a page a column above it.

    The buffer is written below a band of one chunk above its diagonal, and
    a page becomes resident when it is first written: each column's first
    written page holds on average half a page of the upper triangle.
    """
    return 8 * dim * (dim + 1) // 2 + dim * mmap.PAGESIZE // 2


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
    return sa.Interaction(terms=(bond, site), lam=0.25)


def golden_model(case: str) -> tuple[sa.Interaction, sa.GroundStateConfig]:
    config = sa.parse_config((GOLDEN / f"{case}.cfg").read_text(encoding="utf-8"))
    return sa.build_interaction(config), sa.build_boundary(config)


def assert_lower_triangles_match_the_oracle(calls: list[np.ndarray], blocks: list[np.ndarray]) -> None:
    """Each solver input holds the oracle block bit for bit in the triangle the solver reads."""
    assert len(calls) == len(blocks)
    for solved, block in zip(calls, blocks):
        assert np.array_equal(np.tril(solved), np.tril(block))


def assert_blocks_match_dense(h: np.ndarray, calls: list[np.ndarray], n_sites: int) -> None:
    energies = sa.diagonalize(as_rows(h)).energies
    assert [c.shape for c in calls] == block_shapes(n_sites)
    assert_lower_triangles_match_the_oracle(calls, parity_blocks(h))
    dense = checks._eigenpairs(h)[0].energies
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


def assert_real_form_matches_dense(h: np.ndarray, calls: list[np.ndarray]) -> None:
    energies = sa.diagonalize(as_rows(h)).energies
    assert [(c.dtype, c.shape) for c in calls] == [(np.float64, h.shape)]
    assert_lower_triangles_match_the_oracle(calls, [real_form(h)])
    dense = checks._eigenpairs(h)[0].energies
    assert np.abs(energies - dense).max() <= 1e-12 * np.abs(dense).max()


def assert_full_solve(h: np.ndarray, calls: list[np.ndarray]) -> None:
    sa.diagonalize(as_rows(h))
    assert [(c.dtype, c.shape) for c in calls] == [(h.dtype, h.shape)]


@pytest.mark.parametrize("n_sites", [3, 5, 7, 9])
def test_dm_chain_real_form_matches_the_dense_route(n_sites, eigvalsh_calls):
    # an odd chain mirrors the period-2 Neel boundary onto itself
    model, boundary = golden_model("dm")
    h = sa.assemble_hamiltonian(model, sa.chain(n_sites), boundary)
    assert h.dtype == np.complex128
    assert_real_form_matches_dense(h, eigvalsh_calls)


@pytest.mark.parametrize("n_sites", [3, 5, 7, 9])
def test_real_form_is_written_below_a_band_of_one_chunk(n_sites):
    # the pages above the band are never written, so they never become
    # resident; at 9 sites the pass takes 9 chunks of 32 rows
    model, boundary = golden_model("dm")
    rows = sa.hamiltonian_rows(model, sa.chain(n_sites), boundary)
    buffer, n_odd, _, _ = gibbs._row_pass(rows, conjugate=True)
    dim = rows.shape[0]
    assert buffer.shape == (dim, dim) and n_odd == 0
    h = sa.assemble_hamiltonian(model, sa.chain(n_sites), boundary)
    assert np.tril(buffer).tobytes() == np.tril(real_form(h)).tobytes()
    assert not np.triu(buffer, chunk_rows(dim * 16)).any()


@pytest.mark.parametrize("n_sites", [8, 10])
def test_full_solve_is_written_below_a_band_of_one_chunk(n_sites):
    # the even Neel dm chain passes neither test; at 10 sites the pass takes 64 chunks of 16 rows
    model, boundary = golden_model("dm")
    rows = sa.hamiltonian_rows(model, sa.chain(n_sites), boundary)
    buffer, n_odd, _, _ = gibbs._row_pass(rows, conjugate=None)
    dim = rows.shape[0]
    assert buffer.shape == (dim, dim) and buffer.dtype == np.complex128 and n_odd == 0
    h = sa.assemble_hamiltonian(model, sa.chain(n_sites), boundary)
    assert np.tril(buffer).tobytes() == np.tril(h).tobytes()
    assert not np.triu(buffer, chunk_rows(dim * 16)).any()


@pytest.mark.parametrize("n_sites", [3, 5, 7, 9, 11])
def test_dm_chain_goes_over_into_its_conjugate_under_reflection(n_sites):
    model, boundary = golden_model("dm")
    h = sa.assemble_hamiltonian(model, sa.chain(n_sites), boundary)
    mirror = bit_reversal(n_sites)
    mirrored = h[mirror][:, mirror]
    assert np.array_equal(mirrored, h.conj())
    assert not np.array_equal(mirrored, h)


@pytest.mark.parametrize("case, volume", [
    ("dm", sa.chain(6)),
    ("generic2d", sa.build_box((0, 0), (2, 2))),
])
def test_models_without_the_symmetry_take_the_full_solve(case, volume, eigvalsh_calls):
    # on an even chain the Neel boundary pins the two ends to opposite spins
    model, boundary = golden_model(case)
    h = sa.assemble_hamiltonian(model, volume, boundary)
    assert h.dtype == np.complex128
    assert_full_solve(h, eigvalsh_calls)


@pytest.mark.parametrize("J, h_field, n_sites", [
    (0.7, 0.5, 5), (0.7, 0.5, 8), (0.7, 0.5, 11), (1.0, 0.3, 5), (1.0, 0.3, 11),
])
def test_tfim_chain_with_inexact_couplings_takes_the_parity_blocks(J, h_field, n_sites, eigvalsh_calls):
    # the diagonal sums these couplings in an order that mirroring keeps
    rows = sa.hamiltonian_rows(sa.preset_tfim(J, h_field, 0.2), sa.chain(n_sites), ALL_UP)
    if n_sites > 10:
        sa.diagonalize(rows)
        assert [c.shape for c in eigvalsh_calls] == block_shapes(n_sites)
    else:
        assert_blocks_match_dense(all_rows(rows), eigvalsh_calls, n_sites)


@pytest.mark.parametrize("n_sites", range(13))
def test_solver_mirror_is_the_bit_reversal(n_sites):
    mirror = _bit_patterns(n_sites, range(n_sites - 1, -1, -1))
    assert mirror.dtype == np.int64
    assert np.array_equal(mirror, bit_reversal(n_sites))


def test_one_mirrored_entry_moved_by_one_ulp_takes_the_full_solve(eigvalsh_calls):
    n_sites = 7
    h = sa.assemble_hamiltonian(sa.preset_tfim(1.0, 0.5, 0.2), sa.chain(n_sites), ALL_UP)
    # |0000000> and the state with its first spin flipped: the mirror image
    # of that entry couples |0000000> to the state with the last spin flipped
    s, t = 0, 1 << (n_sites - 1)
    assert h[s, t] != 0
    h[s, t] = h[t, s] = np.nextafter(h[s, t], np.inf)
    assert np.array_equal(h, h.T)
    sa.diagonalize(as_rows(h))
    assert [c.shape for c in eigvalsh_calls] == [h.shape]


def test_one_diagonal_entry_in_the_last_rows_moved_by_one_ulp_takes_the_full_solve(eigvalsh_calls):
    # the symmetry test reads rows in chunks; a fault in the last one counts too
    n_sites = 9
    h = sa.assemble_hamiltonian(sa.preset_tfim(1.0, 0.5, 0.2), sa.chain(n_sites), ALL_UP)
    s = np.flatnonzero(np.arange(1 << n_sites) < bit_reversal(n_sites))[-1]
    h[s, s] = np.nextafter(h[s, s], np.inf)
    sa.diagonalize(as_rows(h))
    assert [c.shape for c in eigvalsh_calls] == [h.shape]


@pytest.mark.parametrize("h", [np.diag([0.0, 1.0])], ids=["one-qubit"])
def test_matrices_outside_the_block_rule_take_the_full_solve(h, eigvalsh_calls):
    np.testing.assert_array_equal(sa.diagonalize(as_rows(h)).energies, np.linalg.eigvalsh(h))
    assert eigvalsh_calls[0].shape == h.shape


def imaginary_bond_entries(h: np.ndarray, n_sites: int) -> list[tuple[int, int]]:
    """Upper-triangle entries with an imaginary part, in rows ``s <= R s``."""
    rows, cols = np.nonzero(np.triu(h.imag != 0))
    mirror = bit_reversal(n_sites)
    return [(s, t) for s, t in zip(rows, cols) if s <= mirror[s]]


@pytest.mark.parametrize("pick", [min, max], ids=["first-row", "last-row"])
def test_one_imaginary_entry_moved_by_one_ulp_takes_the_full_solve(pick, eigvalsh_calls):
    # the conjugate test reads rows in chunks too; a fault in any one counts
    n_sites = 7
    model, boundary = golden_model("dm")
    h = sa.assemble_hamiltonian(model, sa.chain(n_sites), boundary)
    s, t = pick(imaginary_bond_entries(h, n_sites))
    h[s, t] = complex(h[s, t].real, np.nextafter(h[s, t].imag, np.inf))
    h[t, s] = np.conj(h[s, t])
    assert np.array_equal(h, h.conj().T)
    assert_full_solve(h, eigvalsh_calls)


# Random chains of at most 6 qubits built to be R-symmetric, R K-symmetric
# (reflection with complex conjugation) or neither. Off-diagonal entries are
# multiples of 1/64, so their sums are exact in any order; the classical
# parts are arbitrary floats, which the assembly sums in sorted order.
DYADIC = st.integers(-32, 32).map(lambda k: k / 64)
CLASSICAL = st.floats(-0.5, 0.5)
SWAP = np.eye(4)[[0, 2, 1, 3]]


@st.composite
def hermitian_dyadic(draw, dim: int) -> np.ndarray:
    re = np.array(draw(st.lists(DYADIC, min_size=dim * dim, max_size=dim * dim))).reshape(dim, dim)
    im = np.array(draw(st.lists(DYADIC, min_size=dim * dim, max_size=dim * dim))).reshape(dim, dim)
    p = np.triu(re + 1j * im, 1)
    return p + p.conj().T + np.diag(np.diag(re))


@st.composite
def reflection_chains(draw) -> tuple[str, np.ndarray]:
    kind = draw(st.sampled_from(["R", "RK", "neither"]))
    n_sites = draw(st.integers(2, 6))
    p = draw(hermitian_dyadic(4))
    a, b, d = draw(CLASSICAL), draw(CLASSICAL), draw(CLASSICAL)
    site_classical = [draw(CLASSICAL), draw(CLASSICAL)]
    x = complex(draw(DYADIC), draw(DYADIC))
    if kind == "R":
        bond_quantum = p + SWAP @ p @ SWAP
    elif kind == "RK":
        # a swap-odd imaginary entry, so H is complex and not R-symmetric
        p[1, 2] = p[2, 1] = p[1, 2].real
        y = draw(DYADIC.filter(bool))
        bond_quantum = p + (SWAP @ p @ SWAP).conj()
        bond_quantum[1, 2] += 1j * y
        bond_quantum[2, 1] -= 1j * y
        x = x.real  # a conjugation-invariant site term
    else:
        bond_quantum = p
    bond = sa.LocalTerm(((0,), (1,)), np.array([a, b, b, d]), bond_quantum)
    site = sa.LocalTerm(((0,),), np.array(site_classical), np.array([[0, x], [np.conj(x), 0]]))
    terms = (bond, site)
    boundary = ALL_UP
    if kind == "neither":
        # an Ising bond against ends pinned to opposite spins breaks both
        # symmetries: E(s) - E(R s) is 4 j, beyond the 2 that a, b, d can offset
        n_sites += n_sites % 2
        j = draw(st.floats(1.0, 2.0))
        terms += (sa.LocalTerm(((0,), (1,)), np.array([-j, j, j, -j]), np.zeros((4, 4))),)
        boundary = sa.GroundStateConfig((2,), (+1, -1))
    model = sa.Interaction(terms=terms, lam=0.25)
    return kind, sa.assemble_hamiltonian(model, sa.chain(n_sites), boundary)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(reflection_chains())
def test_random_chains_take_the_route_of_their_symmetry(case):
    kind, h = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = record_solves(monkeypatch)
        energies = sa.diagonalize(as_rows(h)).energies
    n_sites = h.shape[0].bit_length() - 1
    # the solver reads the lower triangle: the parity blocks' and the real
    # form's must be the oracle's, and a full solve's H's own
    if kind == "R":
        assert [c.shape for c in calls] == block_shapes(n_sites)
        assert_lower_triangles_match_the_oracle(calls, parity_blocks(h))
    elif kind == "RK":
        assert [(c.dtype, c.shape) for c in calls] == [(np.float64, h.shape)]
        assert_lower_triangles_match_the_oracle(calls, [real_form(h)])
    else:
        assert [(c.dtype, c.shape) for c in calls] == [(h.dtype, h.shape)]
        assert_lower_triangles_match_the_oracle(calls, [h])
    dense = checks._eigenpairs(h)[0].energies
    assert np.abs(energies - dense).max() <= 1e-12 * np.abs(dense).max()


# The same routes with H fed as its row generator, which the CLI passes.

def test_generator_without_the_plain_symmetry_tries_the_conjugate_test(monkeypatch, eigvalsh_calls):
    model, boundary = golden_model("dm")
    rows = sa.hamiltonian_rows(model, sa.chain(7), boundary)
    passes = []
    row_pass = gibbs._row_pass

    def recording(source, conjugate):
        result = row_pass(source, conjugate)
        passes.append((conjugate, result is not None))
        return result

    monkeypatch.setattr(gibbs, "_row_pass", recording)
    energies = sa.diagonalize(rows).energies
    assert passes == [(False, False), (True, True)]
    assert [(c.dtype, c.shape) for c in eigvalsh_calls] == [(np.float64, (128, 128))]
    np.testing.assert_array_equal(energies, sa.diagonalize(as_rows(sa.assemble_hamiltonian(
        model, sa.chain(7), boundary))).energies)


class NudgedRows(sa.HamiltonianRows):
    """A row generator whose diagonal entry ``(s, s)`` is moved up by one ulp."""

    def __init__(self, rows: sa.HamiltonianRows, s: int) -> None:
        vars(self).update(vars(rows))
        self.s = s

    def rows(self, index, mirror=None):
        out = super().rows(index, mirror)
        column = self.s if mirror is None else mirror[self.s]
        for i in np.flatnonzero(np.asarray(index) == self.s):
            out[i, column] = np.nextafter(out[i, column], np.inf)
        return out


def recorded_solves(monkeypatch) -> list[tuple[np.dtype, tuple[int, ...]]]:
    """The dtype and shape of each in-place solve's input, recorded without a copy."""
    calls = []
    solve = gibbs._eigvalsh_lower

    def recording(a):
        calls.append((a.dtype, a.shape))
        return solve(a)

    monkeypatch.setattr(gibbs, "_eigvalsh_lower", recording)
    return calls


def test_generator_failing_in_its_last_rows_frees_its_blocks_before_the_full_solve(monkeypatch):
    # the symmetry test fails on the last chunk, after almost all of both blocks are written
    n_sites = 10
    rows = sa.hamiltonian_rows(sa.preset_tfim(1.0, 0.5, 0.2), sa.chain(n_sites), ALL_UP)
    s = np.flatnonzero(np.arange(1 << n_sites) < bit_reversal(n_sites))[-1]
    nudged = NudgedRows(rows, s)
    h = all_rows(nudged)
    buffers = record_buffers(monkeypatch)
    calls = recorded_solves(monkeypatch)
    allocate, live = gibbs.untouched_zeros, []

    def allocating(shape, dtype):
        live.append([shape for shape, buffer in buffers if buffer() is not None])
        return allocate(shape, dtype)

    monkeypatch.setattr(gibbs, "untouched_zeros", allocating)
    # tracemalloc sees the row chunks, not the mapped buffers
    _, peak = traced_peak(lambda: sa.diagonalize(nudged))
    assert calls == [(h.dtype, h.shape)]
    # the parity buffer is freed before the full solve's is mapped
    assert [shape for shape, _ in buffers] == [block_shapes(n_sites)[0], h.shape] and live == [[], []]
    assert peak < 5 * CHUNK_BYTES
    np.testing.assert_array_equal(sa.diagonalize(nudged).energies, sa.diagonalize(as_rows(h)).energies)


def test_generator_of_the_even_neel_dm_chain_takes_the_full_solve(eigvalsh_calls):
    model, boundary = golden_model("dm")
    rows = sa.hamiltonian_rows(model, sa.chain(6), boundary)
    energies = sa.diagonalize(rows).energies
    assert [(c.dtype, c.shape) for c in eigvalsh_calls] == [(np.complex128, (64, 64))]
    np.testing.assert_array_equal(energies, sa.diagonalize(as_rows(sa.assemble_hamiltonian(
        model, sa.chain(6), boundary))).energies)


def cancelling_model() -> sa.Interaction:
    """The TFIM chain plus two site terms whose imaginary parts cancel in every sum."""
    quantum = np.array([[0.0, 0.125j], [-0.125j, 0.0]])
    cancelling = (sa.LocalTerm(((0,),), np.zeros(2), quantum),
                  sa.LocalTerm(((0,),), np.zeros(2), -quantum))
    return sa.Interaction(terms=sa.preset_tfim(1.0, 0.5, 0.2).terms + cancelling, lam=0.2)


def test_generator_whose_imaginary_parts_cancel_takes_the_real_parity_blocks(eigvalsh_calls):
    model = cancelling_model()
    rows = sa.hamiltonian_rows(model, sa.chain(7), ALL_UP)
    h = sa.assemble_hamiltonian(model, sa.chain(7), ALL_UP)
    assert rows.dtype == np.float64 and h.dtype == np.float64
    energies = sa.diagonalize(rows).energies
    assert [(c.dtype, c.shape) for c in eigvalsh_calls] == [(np.float64, s) for s in block_shapes(7)]
    np.testing.assert_array_equal(energies, sa.diagonalize(as_rows(h)).energies)


@pytest.mark.parametrize("case", ["dm", "symmetric complex", "cancelling"])
def test_generator_rows_are_complex_exactly_when_an_imaginary_part_survives(case):
    # the entry-by-entry loop sums in complex, in the generator's order
    volume = sa.chain(5)
    model, boundary = {
        "dm": golden_model("dm"),
        "symmetric complex": (symmetric_complex_model(), ALL_UP),
        "cancelling": (cancelling_model(), ALL_UP),
    }[case]
    rows = sa.hamiltonian_rows(model, volume, boundary)
    generated = rows.rows(np.arange(rows.shape[0]))
    reference = loop_assemble(model, volume, boundary)
    if case == "cancelling":
        assert rows.dtype == np.float64 and not reference.imag.any()
        assert generated.tobytes() == np.ascontiguousarray(reference.real).tobytes()
    else:
        assert rows.dtype == np.complex128 and reference.imag.any()
        assert generated.tobytes() == reference.tobytes()


@IN_PLACE
@pytest.mark.parametrize("case", ["real form", "parity blocks"])
def test_generator_solve_forms_no_dense_matrix(case, monkeypatch):
    n_sites = 10
    dim = 1 << n_sites
    if case == "real form":
        # a uniform boundary mirrors onto itself at any length
        setup = chain_rows_setup("dm, all up", n_sites)
        solves, dense_bytes = [(np.float64, (dim, dim))], 16 * dim * dim
        budget = 1.5 * real_form_resident_bytes(dim)  # 9 MiB
    else:
        setup = chain_rows_setup("tfim", n_sites)
        solves, dense_bytes = [(np.float64, s) for s in block_shapes(n_sites)], 8 * dim * dim
        budget = 1.5 * sum(8 * a * b for _, (a, b) in solves)  # 6.3 MiB
    namespace = {"sa": sa}
    exec(setup, namespace)
    calls = recorded_solves(monkeypatch)
    sa.diagonalize(namespace["rows"])
    assert calls == solves
    assert dense_bytes > budget
    assert rss_growth(setup) < budget


@pytest.mark.parametrize("model, n_sites", [
    *[(sa.preset_tfim(0.7, 0.5, 0.2), n) for n in range(2, 11)],
    *[(symmetric_complex_model(), n) for n in (2, 5, 8)],
    (cancelling_model(), 7),
], ids=[*[f"tfim-{n}" for n in range(2, 11)], "complex-2", "complex-5", "complex-8", "cancelling-7"])
def test_packed_blocks_give_the_oracle_energies_bit_for_bit(model, n_sites, eigvalsh_calls):
    # a complex block is stored conjugated above the diagonal; the cancelling
    # model has complex terms and real rows
    rows = sa.hamiltonian_rows(model, sa.chain(n_sites), ALL_UP)
    energies = sa.diagonalize(rows).energies
    h = sa.assemble_hamiltonian(model, sa.chain(n_sites), ALL_UP)
    blocks = parity_blocks(h)
    assert [(c.dtype, c.shape) for c in eigvalsh_calls] == [(h.dtype, b.shape) for b in blocks]
    expected = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))
    np.testing.assert_array_equal(energies, expected)


@pytest.mark.parametrize("model", [sa.preset_tfim(1.0, 0.5, 0.2), cancelling_model()],
                         ids=["tfim", "cancelling"])
def test_parity_route_holds_one_buffer(model, monkeypatch):
    # tracemalloc sees the row chunks, not the buffer, whose peak RSS
    # test_peak_rss_grows_by_one_buffer reads
    n_sites = 11
    rows = sa.hamiltonian_rows(model, sa.chain(n_sites), ALL_UP)
    buffers = record_buffers(monkeypatch)
    calls = recorded_solves(monkeypatch)
    _, peak = traced_peak(lambda: sa.diagonalize(rows))
    assert calls == [(np.float64, s) for s in block_shapes(n_sites)]
    assert [shape for shape, _ in buffers] == block_shapes(n_sites)[:1]  # 8.5 MiB; both blocks 16 MiB
    assert peak < 5 * CHUNK_BYTES
