"""The in-place values-only solve against ``numpy.linalg.eigvalsh``.

Each route's buffer is handed to LAPACK ?syevd or ?heevd (``JOBZ='N'``,
``UPLO='L'``) through ``gibbs._eigvalsh_lower``, which overwrites its lower
triangle. The energies must be numpy's bit for bit, and the upper triangle
must come back untouched.
"""

import errno
import mmap
import re

import numpy as np
import pytest

import spinaep as sa
from spinaep import _arrays, checks, gibbs
from spinaep.cli import EXIT_NUMERIC, main
from spinaep.errors import NumericError
from conftest import IN_PLACE, as_rows, record_buffers, record_solves, rss_growth, traced_peak
from oracles import parity_blocks
from test_parity_sectors import (ALL_UP, block_shapes, chain_rows_setup, golden_model,
                                 real_form_resident_bytes, symmetric_complex_model)

SIZES = (1, 2, 5, 64, 300)
# every solve is of one of these
DTYPES = (np.float64, np.complex128)
# long double is double on some platforms, and then it casts safely
LONG_DOUBLE = pytest.mark.skipif(np.dtype(np.longdouble).itemsize == 8,
                                 reason="long double is double precision here")


def eigenpairs(h) -> sa.Spectrum:
    """The spectrum from ``checks._eigenpairs``, which hands ``h`` to ``numpy.linalg.eigh`` as given."""
    return checks._eigenpairs(h)[0]


def random_matrix(n: int, dtype, seed: int = 0) -> np.ndarray:
    """A column-major matrix with independent random entries in both triangles."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    if np.dtype(dtype).kind == "c":
        a = a + 1j * rng.standard_normal((n, n))
    return np.asfortranarray(a, dtype=dtype)


@pytest.fixture
def no_lapack_symbols(monkeypatch):
    """Every solver symbol renamed to one that numpy's library does not export."""
    missing = {dtype: f"{symbol}_missing" for dtype, symbol in gibbs._SOLVER_SYMBOLS.items()}
    monkeypatch.setattr(gibbs, "_SOLVER_SYMBOLS", missing)
    gibbs._lapack_solver.cache_clear()
    yield
    gibbs._lapack_solver.cache_clear()


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("n", SIZES)
def test_in_place_solve_equals_numpy_bit_for_bit(n, dtype):
    a = random_matrix(n, dtype, seed=n)
    expected = np.linalg.eigvalsh(a)
    upper = np.triu(a, 1)
    energies = gibbs._eigvalsh_lower(a)
    assert energies.dtype == expected.dtype
    assert energies.tobytes() == expected.tobytes()
    assert np.triu(a, 1).tobytes() == upper.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["real", "complex"])
def test_strided_view_is_solved_with_its_leading_dimension(dtype):
    big = random_matrix(80, dtype, seed=3)
    before = big.copy(order="F")
    view = big[3:67, 2:66]
    assert view.strides[1] // view.itemsize == 80 > view.shape[0]
    expected = np.linalg.eigvalsh(view)
    energies = gibbs._eigvalsh_lower(view)
    assert energies.tobytes() == expected.tobytes()
    # only the view's lower triangle may change
    written = np.zeros(big.shape, dtype=bool)
    written[3:67, 2:66] = np.tril(np.ones((64, 64), dtype=bool))
    assert np.array_equal(big[~written], before[~written])


def read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@pytest.mark.parametrize("a", [
    np.ascontiguousarray(random_matrix(4, np.float64)),
    read_only(random_matrix(4, np.float64)),
    random_matrix(4, np.complex128)[:, :3],
    np.lib.stride_tricks.as_strided(np.zeros(64), shape=(4, 4), strides=(8, 36)),
], ids=["row-major", "read-only", "not-square", "column-stride-not-in-elements"])
def test_matrix_the_solve_cannot_overwrite_is_refused(a):
    before = a.tobytes()
    with pytest.raises(ValueError, match="writeable square column-major"):
        gibbs._eigvalsh_lower(a)
    assert a.tobytes() == before


def test_nan_fails_to_converge():
    a = random_matrix(50, np.float64)
    a[10, 3] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        gibbs._eigvalsh_lower(a)


def test_illegal_argument_is_named():
    # a leading dimension of 1 for three rows: LAPACK rejects argument 5
    a = np.lib.stride_tricks.as_strided(np.zeros(9), shape=(3, 3), strides=(8, 8))
    with pytest.raises(ValueError, match=r"scipy_dsyevd_64_: argument 5 \(LDA\)"):
        gibbs._eigvalsh_lower(a)


def test_nan_through_diagonalize_is_a_numeric_error(monkeypatch):
    # a NaN in the route's buffer, as a corrupted row would leave it
    solve = gibbs._eigvalsh_lower

    def poisoned(a):
        a[-1, 0] = np.nan
        return solve(a)

    monkeypatch.setattr(gibbs, "_eigvalsh_lower", poisoned)
    rows = sa.hamiltonian_rows(sa.preset_tfim(1.0, 0.5, 0.2), sa.chain(6), ALL_UP)
    with pytest.raises(NumericError, match="did not converge"):
        sa.diagonalize(rows)


@pytest.mark.parametrize("model", [sa.preset_tfim(0.7, 0.5, 0.2), symmetric_complex_model()],
                         ids=["real", "complex"])
def test_odd_block_survives_the_even_solve(model):
    rows = sa.hamiltonian_rows(model, sa.chain(7), ALL_UP)
    even, odd = parity_blocks(rows.dense())
    buffer, n_odd, _, _ = gibbs._row_pass(rows, conjugate=False)
    assert buffer.flags.f_contiguous and n_odd == odd.shape[0]
    upper = np.triu(buffer, 1)
    assert gibbs._eigvalsh_lower(buffer).tobytes() == np.linalg.eigvalsh(even).tobytes()
    assert np.triu(buffer, 1).tobytes() == upper.tobytes()
    # a fresh buffer through both solves: the odd block is copied down in between
    buffer, n_odd, _, _ = gibbs._row_pass(rows, conjugate=False)
    expected = np.sort(np.concatenate([np.linalg.eigvalsh(even), np.linalg.eigvalsh(odd)]))
    assert gibbs._eigenvalues(buffer, n_odd).tobytes() == expected.tobytes()


def full_solve_routes() -> dict[str, tuple[sa.Interaction, sa.Volume, sa.GroundStateConfig]]:
    dm, dm_boundary = golden_model("dm")
    generic, generic_boundary = golden_model("generic2d")
    return {
        "parity blocks, real": (sa.preset_tfim(1.0, 0.5, 0.2), sa.chain(6), ALL_UP),
        "parity blocks, complex": (symmetric_complex_model(), sa.chain(5), ALL_UP),
        "real form": (dm, sa.chain(5), dm_boundary),
        "full solve, complex": (generic, sa.build_box((0, 0), (1, 2)), generic_boundary),
    }


ROUTES = full_solve_routes()
# dtype and shape of each in-place solve of a generator, at these volumes
SOLVES = {
    "parity blocks, real": [(np.float64, s) for s in block_shapes(6)],
    "parity blocks, complex": [(np.complex128, s) for s in block_shapes(5)],
    "real form": [(np.float64, (32, 32))],
    "full solve, complex": [(np.complex128, (64, 64))],
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_route_matches_the_eigenpairs(route, monkeypatch):
    model, volume, boundary = ROUTES[route]
    rows = sa.hamiltonian_rows(model, volume, boundary)
    calls = record_solves(monkeypatch)
    energies = sa.diagonalize(rows).energies
    assert [(c.dtype, c.shape) for c in calls] == SOLVES[route]
    h = sa.assemble_hamiltonian(model, volume, boundary)
    if route.startswith("full solve"):
        # H itself: its row-major memory read column-major would be conj(H)
        assert np.array_equal(calls[0], h)
        # so a dense H's energies are numpy.linalg.eigvalsh's
        assert energies.tobytes() == np.linalg.eigvalsh(h).tobytes()
    dense = checks._eigenpairs(h)[0].energies
    assert np.abs(energies - dense).max() <= 1e-12 * np.abs(dense).max()


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_caller_matrix_is_left_byte_identical(route, order):
    # a caller's dense H enters as the one block of a generator
    model, volume, boundary = ROUTES[route]
    h = np.array(sa.assemble_hamiltonian(model, volume, boundary), order=order)
    before = h.tobytes()
    energies = sa.diagonalize(as_rows(h)).energies
    assert h.tobytes() == before
    assert h.flags.writeable
    # and takes the model generator's route, in either layout
    rows = sa.hamiltonian_rows(model, volume, boundary)
    assert energies.tobytes() == sa.diagonalize(rows).energies.tobytes()
    if route.startswith("full solve"):
        assert energies.tobytes() == np.linalg.eigvalsh(h).tobytes()


def widened(h: np.ndarray) -> np.ndarray:
    """``h`` as a generator holds it: float64, or complex128 if complex."""
    return h.astype(np.promote_types(h.dtype, np.float64))


@pytest.mark.parametrize("dtype", [np.complex128, np.float32, np.int64, np.bool_],
                         ids=lambda d: np.dtype(d).name)
def test_caller_matrix_is_copied_once(dtype, monkeypatch):
    # the one copy is the generator's value table, widened; the solve adds
    # mapped buffers, which tracemalloc does not see, and row chunks
    a = random_matrix(512, np.complex128 if np.dtype(dtype).kind == "c" else np.float64, seed=5)
    s = a + a.conj().T
    # a matrix of ones would commute with bit reversal: the signs make a bool H that does not
    h = np.asfortranarray(s > 0 if dtype is np.bool_ else s.astype(dtype))
    rows = as_rows(h)
    assert rows._values.nbytes == widened(h).nbytes
    expected = np.linalg.eigvalsh(widened(h))
    buffers = record_buffers(monkeypatch)
    energies, peak = traced_peak(lambda: sa.diagonalize(rows).energies)
    assert energies.tobytes() == expected.tobytes()
    # the parity test gives up on the even block's buffer, and a complex H's
    # real form on its own; then the full solve maps H's
    tried = [block_shapes(9)[0]] + [h.shape] * (h.dtype.kind == "c")
    assert [shape for shape, _ in buffers] == tried + [h.shape]
    assert peak < 5 * _arrays.CHUNK_BYTES


@pytest.mark.parametrize("shape", [(2, 3), (2, 2, 2), (4,)])
def test_caller_matrix_that_is_not_square_is_refused(shape):
    h = np.zeros(shape)
    with pytest.raises(TypeError, match="diagonalize takes the HamiltonianRows of hamiltonian_rows"):
        sa.diagonalize(h)
    # nor is it a generator's block
    volume = sa.chain(1)
    with pytest.raises(ValueError, match=re.escape(f"block 0 on 1 sites must be 2 x 2, got shape {shape}")):
        sa.HamiltonianRows(volume, [(h, volume.sites)])


def narrow_matrices() -> dict[str, np.ndarray]:
    """Hermitian matrices a generator widens: random ones and the 6-site TFIM H.

    The TFIM H commutes with bit reversal bit for bit, and so does each
    narrow form of it, entry by entry, so each takes the parity blocks.
    """
    tfim = sa.assemble_hamiltonian(sa.preset_tfim(1.0, 0.5, 0.2), sa.chain(6), ALL_UP)
    quarters = np.rint(4 * tfim)  # integers from -40 to 24
    matrices = {
        "tfim-bool": quarters != 0,
        "tfim-int8": quarters.astype(np.int8),
        "tfim-uint16": (quarters - quarters.min()).astype(np.uint16),
        "tfim-int64": quarters.astype(np.int64),
        "tfim-float16": tfim.astype(np.float16),
        "tfim-float32": tfim.astype(np.float32),
    }
    for dtype in (np.float16, np.float32, np.complex64):
        a = random_matrix(16, dtype, seed=3)
        matrices[f"random-{np.dtype(dtype).name}"] = (a + a.conj().T) / 2
    return matrices


NARROW = narrow_matrices()


@pytest.mark.parametrize("name", sorted(NARROW))
def test_narrow_dtypes_are_solved_as_their_double_widening(name, monkeypatch):
    h = NARROW[name]
    before = h.tobytes()
    wide = widened(h)
    calls = record_solves(monkeypatch)
    energies = sa.diagonalize(as_rows(h)).energies
    narrow_solves = [(c.dtype, c.shape) for c in calls]
    calls.clear()
    assert energies.tobytes() == sa.diagonalize(as_rows(wide)).energies.tobytes()
    # the route of the widened matrix: the parity blocks for the TFIM H
    assert narrow_solves == [(c.dtype, c.shape) for c in calls]
    if name.startswith("tfim"):
        assert [shape for _, shape in narrow_solves] == block_shapes(6)
    assert h.tobytes() == before


def refused_matrices() -> list:
    """4 x 4 matrices of dtypes the solvers refuse, the long-double ones where it is wider."""
    eye = np.eye(4)
    return [
        pytest.param(eye.astype(np.longdouble), id="longdouble", marks=LONG_DOUBLE),
        pytest.param(eye.astype(np.clongdouble), id="clongdouble", marks=LONG_DOUBLE),
        pytest.param(eye.astype(object), id="object"),
        pytest.param(eye.astype(str), id="str"),
    ]


def refusal(h: np.ndarray, solve: str) -> str:
    """The pattern of the ``TypeError`` that ``solve`` raises for ``h``, which names its dtype."""
    if solve == "diagonalize":
        return re.escape(f"block 0 of dtype {h.dtype} does not cast safely to complex128")
    return f"{re.escape(f'array type {h.dtype} is unsupported')}|{re.escape(repr(h.dtype))}"


@pytest.mark.parametrize("solve", ["diagonalize", "eigenpairs"])
@pytest.mark.parametrize("h", refused_matrices())
def test_other_dtypes_are_refused_by_both_solvers(solve, h):
    # diagonalize reads H through a generator, the check's eigenpairs read it as given
    with pytest.raises(TypeError, match=refusal(h, solve)):
        if solve == "diagonalize":
            sa.diagonalize(as_rows(h))
        else:
            eigenpairs(h)


@LONG_DOUBLE
def test_long_double_is_refused_before_an_allocation():
    # the 10-site TFIM H in long double: 16 MiB, and a float64 table of it 8 MiB
    h = sa.assemble_hamiltonian(sa.preset_tfim(1.0, 0.5, 0.2), sa.chain(10), ALL_UP)
    h = h.astype(np.longdouble)
    volume = sa.chain(10)
    refused, peak = traced_peak(lambda: pytest.raises(TypeError, sa.HamiltonianRows, volume, [(h, volume.sites)]))
    refused.match(refusal(h, "diagonalize"))
    assert peak < 64 * 1024


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_fallback_gives_the_same_energies(route, no_lapack_symbols, monkeypatch):
    model, volume, boundary = ROUTES[route]
    rows = sa.hamiltonian_rows(model, volume, boundary)
    assert all(gibbs._lapack_solver(np.dtype(d)) is None for d in (np.float64, np.complex128))
    fallback = sa.diagonalize(rows).energies
    gibbs._lapack_solver.cache_clear()
    monkeypatch.undo()
    assert gibbs._lapack_solver(rows.dtype) is not None
    assert fallback.tobytes() == sa.diagonalize(rows).energies.tobytes()


def test_fallback_solves_a_copy(no_lapack_symbols):
    a = random_matrix(6, np.complex128)
    before = a.tobytes()
    assert gibbs._eigvalsh_lower(a).tobytes() == np.linalg.eigvalsh(a).tobytes()
    assert a.tobytes() == before


@pytest.mark.parametrize("dtype", [np.float32, np.int64], ids=lambda d: np.dtype(d).name)
def test_fallback_solves_a_widened_copy(dtype, no_lapack_symbols):
    h = NARROW[f"tfim-{np.dtype(dtype).name}"]
    before = h.tobytes()
    assert sa.diagonalize(as_rows(h)).energies.tobytes() == sa.diagonalize(as_rows(widened(h))).energies.tobytes()
    assert h.tobytes() == before


@IN_PLACE
@pytest.mark.parametrize("case, bound", [
    ("tfim", 1.3 * 8 * block_shapes(11)[0][0] ** 2),  # the parity buffer, 8.5 MiB, written whole
    ("dm", 1.25 * real_form_resident_bytes(2048)),    # 20 MiB of the 32 MiB real form
    # the full solve's lower triangle: 20 MiB of 32 MiB real, 36 MiB of 64 MiB complex
    ("asymmetric", 1.25 * real_form_resident_bytes(2048)),
    ("asymmetric, complex", 1.25 * (2 * real_form_resident_bytes(2048) - 2048 * mmap.PAGESIZE // 2)),
], ids=["tfim", "dm", "asymmetric, real", "asymmetric, complex"])
def test_peak_rss_grows_by_one_buffer(case, bound):
    # a solve of a copy grows the peak by about twice the buffer, and a
    # buffer written in whole rows by all of it
    assert rss_growth(chain_rows_setup(case, 11)) < bound


def in_place_lines(out: str) -> list[str]:
    return [line for line in out.splitlines() if "in-place solve" in line]


@IN_PLACE
def test_check_reports_the_in_place_solve(capsys):
    assert main(["check"]) == 0
    assert in_place_lines(capsys.readouterr().out) == [
        f"ok   in-place solve, {route}: solved in place by scipy_dsyevd_64_; "
        "bit for bit equal to numpy.linalg.eigvalsh"
        for route in ("parity blocks", "real form", "full solve")
    ]


def test_check_reports_the_fallback(capsys, no_lapack_symbols):
    assert main(["check"]) == 0
    assert in_place_lines(capsys.readouterr().out) == [
        f"ok   in-place solve, {route}: solved on a copy by numpy.linalg.eigvalsh, no LAPACK "
        "symbol found; bit for bit equal to numpy.linalg.eigvalsh"
        for route in ("parity blocks", "real form", "full solve")
    ]


def test_check_fails_when_the_in_place_solve_moves_an_energy(monkeypatch, capsys):
    # one ulp: inside every tolerance of the values-only checks
    solve = gibbs._eigvalsh_lower
    monkeypatch.setattr(gibbs, "_eigvalsh_lower", lambda a: np.nextafter(solve(a), np.inf))
    assert main(["check", "--quiet"]) == EXIT_NUMERIC
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "FAIL in-place solve, parity blocks", "FAIL in-place solve, real form",
        "FAIL in-place solve, full solve"]
    assert all("differs from numpy.linalg.eigvalsh" in line for line in lines)


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_platform_without_anonymous_mappings_solves_alike(route, monkeypatch):
    # mmap documents MAP_ANONYMOUS as Unix-only; without it the buffers are numpy's
    rows = sa.hamiltonian_rows(*ROUTES[route])
    mapped = sa.diagonalize(rows).energies
    monkeypatch.delattr(mmap, "MAP_ANONYMOUS")
    monkeypatch.setattr(mmap, "mmap", None)  # no mapping may be tried
    buffer = _arrays.untouched_zeros((3, 2), np.complex128)
    assert buffer.flags.f_contiguous and buffer.flags.writeable and not buffer.any()
    assert sa.diagonalize(rows).energies.tobytes() == mapped.tobytes()


@pytest.mark.parametrize("code, error", [(errno.ENOMEM, MemoryError), (errno.EACCES, PermissionError)])
def test_refused_buffer_mapping(code, error, monkeypatch):
    """A mapping refused for lack of memory is a ``MemoryError`` chained to the
    ``OSError``; any other refusal is raised as it came."""
    def refuse(*args, **kwargs):
        raise OSError(code, "refused")

    monkeypatch.setattr(mmap, "mmap", refuse)
    with pytest.raises(error) as info:
        _arrays.untouched_zeros((4, 4), np.float64)
    if error is MemoryError:
        assert str(info.value) == "cannot map 128 bytes for an array of shape (4, 4)"
        assert isinstance(info.value.__cause__, OSError) and info.value.__cause__.errno == code
