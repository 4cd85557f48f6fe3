"""The in-place values-only solve against ``numpy.linalg.eigvalsh``.

Each route's buffer is handed to LAPACK ?syevd or ?heevd (``JOBZ='N'``,
``UPLO='L'``) through ``gibbs._eigvalsh_lower``, which overwrites its lower
triangle. The energies must be numpy's bit for bit, the upper triangle must
come back untouched, and a caller's matrix must never be written.
"""

import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import spinaep as sa
from spinaep import gibbs
from spinaep.cli import EXIT_NUMERIC, main
from spinaep.errors import NumericError
from conftest import record_solves
from oracles import parity_blocks
from test_parity_sectors import ALL_UP, block_shapes, golden_model, symmetric_complex_model

# numpy's LAPACK exports the symbols the in-place solve looks for
IN_PLACE = pytest.mark.skipif(gibbs._lapack_solver(np.dtype(float)) is None,
                              reason="numpy's LAPACK lacks scipy_dsyevd_64_")
SIZES = (1, 2, 5, 64, 300)
# past the reader of a caller's matrix, every solve is of one of these
DTYPES = (np.float64, np.complex128)
# long double is double on some platforms, and then it is read like float64
LONG_DOUBLE = pytest.mark.skipif(np.dtype(np.longdouble).itemsize == 8,
                                 reason="long double is double precision here")


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
    h = sa.assemble_hamiltonian(model, sa.chain(7), ALL_UP)
    even, odd = parity_blocks(h)
    buffer, n_odd, _, _ = gibbs._reflection_pass(gibbs._DenseRows(h), conjugate=False)
    assert buffer.flags.f_contiguous and n_odd == odd.shape[0]
    upper = np.triu(buffer, 1)
    assert gibbs._eigvalsh_lower(buffer).tobytes() == np.linalg.eigvalsh(even).tobytes()
    assert np.triu(buffer, 1).tobytes() == upper.tobytes()
    # a fresh buffer through both solves: the odd block is copied down in between
    buffer, n_odd, _, _ = gibbs._reflection_pass(gibbs._DenseRows(h), conjugate=False)
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
    dense = sa.eigenpairs(h).energies
    assert np.abs(energies - dense).max() <= 1e-12 * np.abs(dense).max()


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_caller_matrix_is_left_byte_identical(route, order):
    model, volume, boundary = ROUTES[route]
    h = np.array(sa.assemble_hamiltonian(model, volume, boundary), order=order)
    before = h.tobytes()
    energies = sa.diagonalize(h).energies
    assert h.tobytes() == before
    assert h.flags.writeable
    # the caller's matrix takes the generator's route, in either layout
    rows = sa.hamiltonian_rows(model, volume, boundary)
    assert energies.tobytes() == sa.diagonalize(rows).energies.tobytes()
    if route.startswith("full solve"):
        assert energies.tobytes() == np.linalg.eigvalsh(h).tobytes()


def widened(h: np.ndarray) -> np.ndarray:
    """``h`` as the solvers read it: float64, or complex128 if complex."""
    return h.astype(np.promote_types(h.dtype, np.float64))


@pytest.mark.parametrize("dtype", [np.complex128, np.float32, np.int64, np.bool_],
                         ids=lambda d: np.dtype(d).name)
def test_caller_matrix_is_copied_once(dtype):
    # np.vdot of a column-major matrix would copy it whole, and so would a
    # widening ahead of the column-major copy: a peak of 2 widened bytes
    a = random_matrix(500, np.complex128 if np.dtype(dtype).kind == "c" else np.float64, seed=5)
    h = np.asfortranarray((a + a.conj().T).astype(dtype))
    wide = widened(h)
    expected = np.linalg.eigvalsh(wide)
    tracemalloc.start()
    try:
        energies = sa.diagonalize(h).energies
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert energies.tobytes() == expected.tobytes()
    assert peak <= 1.25 * wide.nbytes


@pytest.mark.parametrize("shape", [(2, 3), (2, 2, 2), (4,)])
def test_caller_matrix_that_is_not_square_is_refused(shape):
    with pytest.raises(ValueError, match=re.escape(f"h must be a square matrix, got shape {shape}")):
        sa.diagonalize(np.zeros(shape))


@pytest.mark.parametrize("solve", [sa.diagonalize, sa.eigenpairs], ids=lambda f: f.__name__)
@pytest.mark.parametrize("shape", [(4, 7), (4,), (0, 0)], ids=["wide", "vector", "empty"])
def test_both_solvers_read_a_caller_matrix_alike(solve, shape):
    if shape == (0, 0):
        assert solve(np.zeros(shape)).dim == 0
    else:
        with pytest.raises(ValueError, match=re.escape(f"h must be a square matrix, got shape {shape}")):
            solve(np.zeros(shape))


def narrow_matrices() -> dict[str, np.ndarray]:
    """Hermitian matrices the solvers widen: random ones and the 6-site TFIM H.

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
    energies = sa.diagonalize(h).energies
    narrow_solves = [(c.dtype, c.shape) for c in calls]
    calls.clear()
    assert energies.tobytes() == sa.diagonalize(wide).energies.tobytes()
    # the route of the widened matrix: the parity blocks for the TFIM H
    assert narrow_solves == [(c.dtype, c.shape) for c in calls]
    assert sa.eigenpairs(h).energies.tobytes() == sa.eigenpairs(wide).energies.tobytes()
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


@pytest.mark.parametrize("solve", [sa.diagonalize, sa.eigenpairs], ids=lambda f: f.__name__)
@pytest.mark.parametrize("h", refused_matrices())
def test_other_dtypes_are_refused_by_both_solvers(solve, h):
    with pytest.raises(TypeError, match=re.escape(f"h of dtype {h.dtype} does not cast safely")):
        solve(h)


@LONG_DOUBLE
def test_long_double_is_refused_before_an_allocation():
    # the 10-site TFIM H in long double: 16 MiB, and its float64 copy 8 MiB
    h = sa.assemble_hamiltonian(sa.preset_tfim(1.0, 0.5, 0.2), sa.chain(10), ALL_UP)
    h = h.astype(np.longdouble)
    tracemalloc.start()
    try:
        with pytest.raises(TypeError, match=re.escape(f"h of dtype {h.dtype} does not cast safely")):
            sa.diagonalize(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
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


@pytest.mark.parametrize("dtype", [np.float32, np.int64], ids=lambda d: np.dtype(d).name)
def test_fallback_solves_a_widened_copy(dtype, no_lapack_symbols):
    h = NARROW[f"tfim-{np.dtype(dtype).name}"]
    before = h.tobytes()
    assert sa.diagonalize(h).energies.tobytes() == sa.diagonalize(widened(h)).energies.tobytes()
    assert h.tobytes() == before


def test_fallback_solves_a_copy(no_lapack_symbols):
    a = random_matrix(6, np.complex128)
    before = a.tobytes()
    assert gibbs._eigvalsh_lower(a).tobytes() == np.linalg.eigvalsh(a).tobytes()
    assert a.tobytes() == before


MAXRSS_SCRIPT = """
import resource, sys
from pathlib import Path
import spinaep as sa
case = sys.argv[1]
if case == "tfim":
    model, boundary = sa.preset_tfim(1.0, 0.5, 0.2), sa.GroundStateConfig.uniform(1, 1)
else:
    config = sa.parse_config(Path(sys.argv[2]).read_text(encoding="utf-8"))
    model, boundary = sa.build_interaction(config), sa.build_boundary(config)
rows = sa.hamiltonian_rows(model, sa.chain(11), boundary)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
sa.diagonalize(rows)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


@IN_PLACE
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
@pytest.mark.parametrize("case, buffer_bytes", [
    ("tfim", 8 * block_shapes(11)[0][0] ** 2),  # the parity buffer, 8.5 MiB
    ("dm", 8 * 2048 ** 2),                      # the real form, 32 MiB
])
def test_peak_rss_grows_by_one_buffer(case, buffer_bytes):
    # tracemalloc does not see a copy that LAPACK's caller mallocs itself;
    # a solve of a copy grows the peak by about twice the buffer
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(Path(sa.__file__).parents[1]), *sys.path]))
    golden = Path(__file__).resolve().parent / "golden" / "dm.cfg"
    out = subprocess.run([sys.executable, "-c", MAXRSS_SCRIPT, case, str(golden)],
                         env=env, capture_output=True, text=True, check=True)
    grown = 1024 * int(out.stdout.split()[-1])
    assert grown < 1.3 * buffer_bytes


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
