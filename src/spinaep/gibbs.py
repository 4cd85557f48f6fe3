"""Hermitian spectra and the log-domain Gibbs ensemble.

:func:`diagonalize` solves for energies only, which is all the entropy rate,
the typical windows and the codec read. :func:`gibbs_ensemble` takes that
spectrum, and no Hamiltonian.

All statistical weights live in natural-log domain: at low temperature the
linear-domain weights underflow double precision well before ten qubits, so
``exp(-beta * E)`` is never materialized when forming probabilities. The
base-2 conversion factor ``LOG2E`` is applied once at output boundaries;
internal sums are in nats.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from ._arrays import chunk_rows, readonly, untouched_zeros
from .errors import NumericError
from .hamiltonian import HamiltonianRows, _bit_patterns

LOG2E = math.log2(math.e)

# k of the values-only check: |tr H - sum E| <= k dim eps |H| and
# | ||H||_F^2 - sum E^2 | <= k dim eps |H|^2, with |H| = max |E|; at 11 sites
# the measured gaps sit 20-2000x below these and a 1e-9 |H| shift of one
# energy 16x or more above
TRACE_IDENTITY_K = 128
IDENTITY_RESIDUAL_TOL = 1e-10


def logsumexp(a: np.ndarray) -> float:
    """``log(sum(exp(a)))`` of a nonempty real vector, without overflow.

    The algorithm of ``scipy.special.logsumexp``, whose value it matches bit
    for bit: ``log1p(s) + log(count) + max``, where ``s`` sums ``exp(a - max)``
    over the entries below the maximum and divides by the count of maxima.
    The maxima enter that sum as exact zeros, so its pairwise grouping, and
    with it the last bit, is scipy's.
    """
    a_max = a.max()
    is_max = a == a_max
    count = np.count_nonzero(is_max)
    s = np.exp(np.where(is_max, -np.inf, a) - a_max).sum() / count
    return float(np.log1p(s) + np.log(count) + a_max)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Energies of a Hermitian matrix, ascending."""

    energies: np.ndarray

    def __post_init__(self) -> None:
        e = np.asarray(self.energies, dtype=float)
        if e.ndim != 1:
            raise ValueError("energies must be a vector")
        if not np.isfinite(e).all():
            raise ValueError("energies must be finite")
        if not np.all(np.diff(e) >= 0):
            raise ValueError("energies must be ascending")
        object.__setattr__(self, "energies", readonly(e))

    @property
    def dim(self) -> int:
        return self.energies.size


# dsyevd and zheevd of the LAPACK that numpy links, with 64-bit integers
_SOLVER_SYMBOLS = {
    np.dtype(np.float64): "scipy_dsyevd_64_",
    np.dtype(np.complex128): "scipy_zheevd_64_",
}


@cache
def _lapack_solver(dtype: np.dtype):
    """The ctypes function of the values-only solver for ``dtype``, or ``None`` if it is not found.

    Resolved at the first solve of each dtype, in the library of numpy's
    own ``eigvalsh``, so importing the package loads nothing.
    """
    try:
        solver = getattr(ctypes.CDLL(np.linalg._umath_linalg.__file__), _SOLVER_SYMBOLS[dtype])
    except (OSError, AttributeError):
        return None
    integer, pointer = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
    # JOBZ, UPLO, N, A, LDA, W, then WORK, RWORK if complex and IWORK with their lengths, INFO
    workspaces = [pointer, integer] * (3 if dtype.kind == "c" else 2)
    solver.argtypes = [ctypes.c_char_p, ctypes.c_char_p, integer, pointer, integer, pointer,
                       *workspaces, integer]
    solver.restype = None
    return solver


def _eigvalsh_lower(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian matrix in the lower triangle of ``a``, which is overwritten.

    ``a`` is a square column-major view: adjacent rows adjacent in memory,
    columns any stride apart, which becomes LAPACK's leading dimension.
    ?syevd or ?heevd (``JOBZ='N'``, ``UPLO='L'``) solves it in place after
    the same workspace query that ``numpy.linalg.eigvalsh`` makes on its
    copy, so the energies are numpy's bit for bit at half the memory. The
    upper triangle is neither read nor written. Where numpy's LAPACK lacks
    the symbol, ``numpy.linalg.eigvalsh`` solves a copy. A solve that does
    not converge raises ``numpy.linalg.LinAlgError``, as numpy does.
    """
    solver = _lapack_solver(a.dtype)
    if solver is None:
        return np.linalg.eigvalsh(a)
    n = a.shape[0]
    if (a.shape != (n, n) or not a.flags.writeable
            or n > 1 and (a.strides[0] != a.itemsize or a.strides[1] % a.itemsize)):
        raise ValueError("the in-place solve needs a writeable square column-major matrix")
    energies = np.empty(n, np.finfo(a.dtype).dtype)
    complex_ = a.dtype.kind == "c"
    # WORK, then RWORK for a complex matrix, then IWORK
    kinds = [a.dtype, energies.dtype, np.int64] if complex_ else [a.dtype, np.int64]
    names = ["JOBZ", "UPLO", "N", "A", "LDA", "W", "WORK", "LWORK",
             *(["RWORK", "LRWORK"] if complex_ else []), "IWORK", "LIWORK"]

    def run(workspaces: list[np.ndarray], lengths: list[int]) -> None:
        info = ctypes.c_int64()
        arguments = [x for w, size in zip(workspaces, lengths) for x in (w.ctypes, _int_ref(size))]
        solver(b"N", b"L", _int_ref(n), a.ctypes, _int_ref(max(1, a.strides[1] // a.itemsize)),
               energies.ctypes, *arguments, ctypes.byref(info))
        if info.value < 0:
            raise ValueError(f"{solver.__name__}: argument {-info.value} ({names[-info.value - 1]}) "
                             "had an illegal value")
        if info.value > 0:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

    workspaces = [np.zeros(1, kind) for kind in kinds]
    run(workspaces, [-1] * len(kinds))  # the query: each optimal length in element 0
    workspaces = [np.empty(int(w[0].real), w.dtype) for w in workspaces]
    run(workspaces, [w.size for w in workspaces])
    return energies


def _int_ref(value: int):
    """A pointer to ``value`` as a LAPACK integer."""
    return ctypes.byref(ctypes.c_int64(value))


def _row_pass(source, conjugate: bool | None) -> tuple[np.ndarray, int, complex, float] | None:
    """The solve buffer of ``source``, its odd block size and the trace and Frobenius sums, or ``None``.

    One pass over row chunks of ``chunk_rows`` representatives ``s <= R s``
    each, where ``R`` reverses the bits of an index. Each chunk generates
    rows ``s`` and, with the columns permuted by ``R``, rows ``R s``, and
    tests ``h[R s, R t] == h[s, t]`` bit for bit, or ``conj(h[s, t])`` with
    ``conjugate``. The first mismatch returns ``None``, and the partial
    blocks go with it. A passing chunk adds to the sums and writes its rows
    of the blocks. With ``conjugate`` ``None``, for the full solve, ``R`` is
    the identity, no chunk is tested, and the block is ``h`` itself.

    Once a chunk has passed, ``h[R s, t]`` is ``h[s, R t]``, or its
    conjugate, bit for bit, so both routes read one pair of sums of rows
    ``s`` alone, each computed once: ``P = h[s, t] + h[s, R t]`` at the
    ``reps`` columns ``t``, and ``M = h[s, t] - h[s, R t]`` at the ``pairs``
    rows and columns. ``P``'s palindrome rows, then its palindrome columns,
    are scaled by ``sqrt(1/2)``; ``M`` has no palindromes. A Hermitian ``h``
    gives blocks whose lower triangles, the only part the solve reads
    (``UPLO='L'``), hold the whole block. The buffer is column-major, so
    the solve runs in place on it. It comes zeroed from
    :func:`~spinaep._arrays.untouched_zeros`, not from numpy, whose huge
    pages any write makes resident whole, so a page of it becomes resident
    only when written.

    Without ``conjugate``, ``R h R == h``, and ``P`` and ``M`` are the even
    and the odd block, in the states ``(|s> + |R s>) / sqrt 2``, or ``|s>``
    for a palindrome, and ``(|s> - |R s>) / sqrt 2``: ``(dim +
    2^ceil(n/2)) / 2`` and ``(dim - 2^ceil(n/2)) / 2`` of them. Both share
    one ``(n_reps, n_reps)`` buffer of ``h``'s dtype: the even block is the
    buffer's, and odd row ``o`` is stored conjugated above the diagonal,
    ``buffer[o, o + 1:n_pairs + 1] = conj(M[o, o:])``, so the odd block, of
    size ``n_pairs``, is that of the view ``buffer[:n_pairs, 1:n_pairs +
    1].T``. A chunk writes its even rows before its odd rows, and later
    chunks write only rows past them.

    With ``conjugate``, a complex ``h`` has ``R h R == conj(h)``. ``R``
    combined with complex conjugation fixes the states ``(|s> + |R s>) /
    sqrt 2``, or ``|s>`` for a palindrome, for ``s`` of ``reps``, then ``i
    (|s> - |R s>) / sqrt 2`` for ``s`` of ``pairs``, so ``h`` is real in
    them: one real symmetric ``(dim, dim)`` matrix whose lower triangle is
    ``Re P``, then ``Im P`` at the ``pairs`` rows and ``Re M``, and the odd
    block size is 0. A chunk writes its ``Re P`` rows up to column
    ``stop`` and its ``Re M`` rows up to column ``n_reps + odd_stop``, the
    columns of its last diagonal entries, and its ``Im P`` rows, which lie
    below the diagonal, whole. The full solve's chunk writes its rows up to
    column ``stop`` into a ``(dim, dim)`` buffer of ``h``'s dtype. In the
    real form and the full solve no entry more than one chunk above the
    diagonal is written, and the pages further above stay untouched: each
    holds its lower triangle and about half a page per column, 4 dim^2 +
    2048 dim bytes with 4 KiB pages, not 8 dim^2, or for a complex full
    solve 8 dim^2 + 2048 dim, not 16 dim^2.
    """
    dim = source.shape[0]
    n = dim.bit_length() - 1
    mirror = np.arange(dim) if conjugate is None else _bit_patterns(n, range(n - 1, -1, -1))
    reps = np.flatnonzero(np.arange(dim) <= mirror)
    mirror_reps = mirror[reps]
    paired = mirror_reps != reps
    palindromes, pairs = np.flatnonzero(~paired), np.flatnonzero(paired)  # positions in reps
    n_reps, n_pairs = reps.size, pairs.size
    shape, dtype = ((dim, dim), float) if conjugate else ((n_reps, n_reps), source.dtype)
    buffer = untouched_zeros(shape, dtype)
    trace, frobenius, odd_start = 0.0, 0.0, 0
    step = chunk_rows(dim * source.dtype.itemsize)
    for start in range(0, n_reps, step):
        stop = min(start + step, n_reps)
        chunk = reps[start:stop]
        rows = source.rows(chunk)
        # real and imaginary parts side by side: compared and summed faster than complex
        flat = rows.view(rows.real.dtype)
        if conjugate is not None:
            mirrored = source.rows(mirror[chunk], mirror)
            if conjugate:
                np.conj(mirrored, out=mirrored)
            if not np.array_equal(flat, mirrored.view(flat.dtype)):
                return None
            del mirrored
        # row R s holds the entries of row s, so a pair adds its row twice
        weight = 1.0 + paired[start:stop]
        trace += weight @ rows[np.arange(chunk.size), chunk]
        frobenius += weight @ np.einsum("ij,ij->i", flat, flat)
        if conjugate is None:
            # up to the chunk's last diagonal entry, so the pages further above stay untouched
            buffer[start:stop, :stop] = rows[:, :stop]
            continue
        local_pairs = np.flatnonzero(paired[start:stop])
        odd_stop = odd_start + local_pairs.size
        # h[s, t] and h[s, R t] at the reps columns t
        plus, other = np.take(rows, reps, axis=1), np.take(rows, mirror_reps, axis=1)
        del rows, flat  # freed before the block temporaries: a lower peak RSS
        minus = np.take(np.subtract(plus[local_pairs], other[local_pairs]), pairs, axis=1)
        np.add(plus, other, out=plus)
        # rows first, then columns, so a palindrome entry is scaled in that order
        plus[np.flatnonzero(~paired[start:stop])] *= math.sqrt(0.5)
        plus[:, palindromes] *= math.sqrt(0.5)
        if conjugate:
            odd_rows = buffer[n_reps + odd_start:n_reps + odd_stop]
            # up to the chunk's last diagonal entry, so the pages further above stay untouched
            buffer[start:stop, :stop] = plus.real[:, :stop]
            odd_rows[:, :n_reps] = plus.imag[local_pairs]
            odd_rows[:, n_reps:n_reps + odd_stop] = minus.real[:, :odd_stop]
        else:
            buffer[start:stop] = plus
            # odd row o, conjugated, above the diagonal of even row o, where odd_stop <= stop
            upper = np.arange(n_pairs) >= np.arange(odd_start, odd_stop)[:, None]
            np.copyto(buffer[odd_start:odd_stop, 1:n_pairs + 1], np.conj(minus), where=upper)
        odd_start = odd_stop
    return buffer, 0 if conjugate else n_pairs, trace, frobenius


def _solve_matrices(rows: HamiltonianRows) -> tuple[np.ndarray, int, complex, float]:
    """The matrix that holds the spectrum of H, its odd block size and the trace and Frobenius sums.

    ``rows`` generates H. The reflection blocks are tried on ``n >= 2``
    qubits: the parity blocks, then, if complex, the real form. If neither
    test passes, H's lower triangle takes one full solve. Each route is one
    :func:`_row_pass`, and none forms H whole.
    """
    if rows.shape[0] >= 4:
        result = _row_pass(rows, conjugate=False)
        if result is None and rows.dtype.kind == "c":
            result = _row_pass(rows, conjugate=True)
        if result is not None:
            return result
    return _row_pass(rows, conjugate=None)


def _eigenvalues(matrix: np.ndarray, n_odd: int) -> np.ndarray:
    """The merged ascending eigenvalues of a route's column-major matrix, read in its lower triangle.

    The matrix is solved in place. The odd parity block of size ``n_odd``,
    stored above the diagonal, survives that solve. It is then copied, a
    column at a time, into the strict lower triangle, where it is the lower
    triangle of the view ``matrix[1:n_odd + 1, :n_odd]``, which is solved in
    place too. No temporary exceeds one column.
    """
    energies = _eigvalsh_lower(matrix)
    if not n_odd:
        return energies
    for o in range(n_odd):
        matrix[o + 1:n_odd + 1, o] = matrix[o, o + 1:n_odd + 1]
    return np.sort(np.concatenate([energies, _eigvalsh_lower(matrix[1:n_odd + 1, :n_odd])]))


def diagonalize(h: HamiltonianRows) -> Spectrum:
    """Energies of a Hermitian H, ascending, without eigenvectors.

    ``h`` is the row generator of H from
    :func:`~spinaep.hamiltonian.hamiltonian_rows`, whose dtype is complex
    only when an imaginary part survives in H, read row by row in one pass;
    anything else raises ``TypeError``. A dense H's energies come from
    ``numpy.linalg.eigvalsh(h)``, which is bit for bit what the full solve
    gives. When H commutes bit for bit with the
    bit-reversal permutation ``R`` of the basis, as the Hamiltonian of a
    reflection-symmetric model on a chain does, the energies are the merged
    spectra of its even and odd blocks, each about half the dimension, so
    about a quarter of the work. When a complex H instead goes over
    into its complex conjugate under bit reversal, as a chain with a
    reflection-odd imaginary bond does, the energies come from one real
    symmetric matrix of the same dimension, also about a quarter of the
    work of the complex solve. Both routes are written from one pair of
    sums of rows ``s``, ``h[s, t] + h[s, R t]`` and ``h[s, t] - h[s, R
    t]``, in the lower triangles that LAPACK ?syevd or ?heevd reads
    (``UPLO='L'``), into one column-major buffer that it solves in place.
    Otherwise one full solve takes H's rows into such a buffer, up to
    the diagonal. So H is never formed whole. Every in-place solve gives
    ``numpy.linalg.eigvalsh``'s energies bit for bit, and falls back to it
    when numpy's LAPACK lacks the symbol.

    With no eigenpairs to check, the energies are held to the two trace
    identities ``tr H = sum E_j`` and ``||H||_F^2 = sum E_j^2``, within
    ``TRACE_IDENTITY_K * dim * eps`` times ``|H|`` and ``|H|^2``; a
    :class:`NumericError` carries the offending gap. Both identities read
    the rows of H itself, not its blocks, so a faulty block fails them
    too. The check costs O(dim^2) against the solver's O(dim^3). One fault
    stays below the identities: two energies closer than
    ``TRACE_IDENTITY_K * dim * eps * |H|^2 / (2 e)`` moved by ``+e`` and
    ``-e``.
    """
    if not isinstance(h, HamiltonianRows):
        raise TypeError(f"diagonalize takes the HamiltonianRows of hamiltonian_rows, got {type(h).__name__}; "
                        "the energies of a dense H are numpy.linalg.eigvalsh(h)")
    try:
        matrix, n_odd, trace, frobenius = _solve_matrices(h)
        energies = _eigenvalues(matrix, n_odd)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed to converge: {exc}") from exc
    scale = float(np.abs(energies).max(initial=0.0))
    tol = TRACE_IDENTITY_K * energies.size * np.finfo(float).eps * scale
    trace_gap = float(abs(trace - energies.sum()))
    frobenius_gap = float(abs(frobenius - energies @ energies))
    # not-below comparisons so NaN gaps count as failures
    if not trace_gap <= tol:
        raise NumericError(f"trace identity gap {trace_gap:.3e} exceeds {tol:.3e}")
    if not frobenius_gap <= tol * scale:
        raise NumericError(f"Frobenius identity gap {frobenius_gap:.3e} exceeds {tol * scale:.3e}")
    energies.setflags(write=False)
    return Spectrum(energies=energies)


@dataclass(frozen=True, eq=False)
class GibbsEnsemble:
    """Thermal state of a spectrum: the spectrum plus log-domain weights.

    ``log_weights[j]`` is the natural log of the j-th state probability,
    ``-beta * E_j - log_partition``; they sum to one by construction. No
    Hamiltonian is kept.
    """

    beta: float
    spectrum: Spectrum
    log_weights: np.ndarray
    log_partition: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "log_weights", readonly(self.log_weights))

    @property
    def dim(self) -> int:
        return self.spectrum.dim

    @property
    def n_sites(self) -> int:
        """The qubit count ``n`` of the ``2**n`` states."""
        return self.dim.bit_length() - 1

    @cached_property
    def weights(self) -> np.ndarray:
        """Linear-domain probabilities; tiny ones may underflow to zero."""
        weights = np.exp(self.log_weights)
        weights.setflags(write=False)
        return weights


def gibbs_ensemble(spectrum: Spectrum, beta: float) -> GibbsEnsemble:
    """Gibbs ensemble of ``spectrum`` at inverse temperature ``beta > 0``.

    ``spectrum`` holds ``2**n`` states, ``n >= 1``, as :func:`diagonalize` gives them.
    """
    if not isinstance(spectrum, Spectrum):
        raise TypeError(f"gibbs_ensemble takes a Spectrum, got {type(spectrum).__name__}: pass diagonalize(h)")
    if not beta > 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    dim = spectrum.dim
    if dim < 2 or dim & (dim - 1):
        raise ValueError(f"a spectrum of {dim} states is not one of 2**n states with n >= 1")
    log_weights = -beta * spectrum.energies
    log_partition = logsumexp(log_weights)
    log_weights -= log_partition
    log_weights.setflags(write=False)
    return GibbsEnsemble(
        beta=float(beta), spectrum=spectrum, log_weights=log_weights, log_partition=log_partition
    )


def entropy_bits(ensemble: GibbsEnsemble) -> float:
    """Von Neumann entropy of the ensemble in bits."""
    s_nats = -float(np.sum(ensemble.weights * ensemble.log_weights))
    return max(LOG2E * s_nats, 0.0)


def characteristic_function(ensemble: GibbsEnsemble, tau: float) -> complex:
    """Weighted phase average ``sum_j kappa_j exp(i tau E_j)``.

    Normalized by the realized weight sum, accumulated through the same
    complex summation, so that the value at ``tau = 0`` is exactly one.
    """
    phases = np.exp(1j * tau * ensemble.spectrum.energies)
    z = np.sum(ensemble.weights * phases)
    total = np.sum(ensemble.weights + 0.0j)
    return complex(z / total)


@dataclass(frozen=True)
class ThermoDensities:
    """Per-site thermodynamic functions of one finite-volume ensemble.

    ``h_bits = beta * LOG2E * (g - f)`` holds algebraically at finite volume;
    construction via :func:`thermo_densities` enforces it to within
    ``IDENTITY_RESIDUAL_TOL``.
    """

    beta: float
    f: float       # free energy per site
    g: float       # energy per site
    h_bits: float  # entropy per site, bits

    @property
    def identity_residual(self) -> float:
        return abs(self.h_bits - self.beta * LOG2E * (self.g - self.f))


def thermo_densities(ensemble: GibbsEnsemble) -> ThermoDensities:
    """Free energy, energy, and entropy per site of the ensemble."""
    beta = ensemble.beta
    n = ensemble.n_sites
    f = -ensemble.log_partition / (beta * n)
    g = float(np.sum(ensemble.weights * ensemble.spectrum.energies)) / n
    h_bits = entropy_bits(ensemble) / n
    densities = ThermoDensities(beta=beta, f=f, g=g, h_bits=h_bits)
    if not densities.identity_residual <= IDENTITY_RESIDUAL_TOL:
        raise NumericError(
            f"entropy-rate identity violated: residual {densities.identity_residual:.3e}"
        )
    return densities
