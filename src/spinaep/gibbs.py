"""Hermitian spectra and the log-domain Gibbs ensemble.

:func:`diagonalize` solves for energies only, which is all the entropy rate,
the typical windows and the codec read; :func:`eigenpairs` also returns the
eigenvectors, for the callers that need them.

All statistical weights live in natural-log domain: at low temperature the
linear-domain weights underflow double precision well before ten qubits, so
``exp(-beta * E)`` is never materialized when forming probabilities. The
base-2 conversion factor ``LOG2E`` is applied once at output boundaries;
internal sums are in nats.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._arrays import chunk_rows, readonly
from .errors import NumericError

LOG2E = math.log2(math.e)

SPECTRUM_RESIDUAL_TOL = 1e-9
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
    """Energies of a Hermitian matrix, ascending, and the eigenvectors if solved for."""

    energies: np.ndarray
    vectors: np.ndarray | None = None  # orthonormal columns, same order as energies

    def __post_init__(self) -> None:
        e = np.asarray(self.energies, dtype=float)
        if e.ndim != 1:
            raise ValueError("energies must be a vector")
        if not np.isfinite(e).all():
            raise ValueError("energies must be finite")
        if not np.all(np.diff(e) >= 0):
            raise ValueError("energies must be ascending")
        object.__setattr__(self, "energies", readonly(e))
        if self.vectors is not None:
            v = np.asarray(self.vectors)
            if v.shape != (e.size, e.size):
                raise ValueError("vectors must be a square matrix matching the energies")
            object.__setattr__(self, "vectors", readonly(v))

    @property
    def dim(self) -> int:
        return self.energies.size

    def require_vectors(self, caller: str) -> np.ndarray:
        """The eigenvectors, or a ``ValueError`` naming the route that provides them."""
        if self.vectors is None:
            raise ValueError(
                f"{caller} needs eigenvectors, and this spectrum holds energies only; "
                "pass spectrum=eigenpairs(h)"
            )
        return self.vectors


def _bit_reversal(n_bits: int) -> np.ndarray:
    """The permutation of ``range(2**n_bits)`` that reverses each index's bits."""
    index = np.arange(1 << n_bits)
    mirrored = np.zeros_like(index)
    for k in range(n_bits):
        mirrored |= ((index >> k) & 1) << (n_bits - 1 - k)
    return mirrored


def _commutes(h: np.ndarray, perm: np.ndarray, rows: np.ndarray, *, conjugate: bool = False) -> bool:
    """Whether ``h[s, perm] == h[perm[s], :]`` bit for bit for every ``s`` in ``rows``.

    With ``conjugate``, whether ``h[s, perm] == conj(h[perm[s], :])``.
    Compares row chunks, at most 16 rows first, doubling up to ``chunk_rows``
    rows, and stops at the first mismatch, so a matrix without the symmetry
    costs a few rows and no permuted copy of the whole matrix is made.
    """
    cap = chunk_rows(h.shape[1] * h.itemsize)
    start, size = 0, min(16, cap)
    while start < rows.size:
        chunk = rows[start:start + size]
        mirrored = h[perm[chunk]]
        if conjugate:
            np.conj(mirrored, out=mirrored)
        if not np.array_equal(np.take(h[chunk], perm, axis=1), mirrored):
            return False
        start += size
        size = min(2 * size, cap)
    return True


def _mirror_combined(
    h: np.ndarray, mirror: np.ndarray, rows: np.ndarray, add: bool
) -> Iterator[tuple[int, np.ndarray]]:
    """Row chunks ``(start, h[s] + h[R s])`` over the ``s`` of ``rows``, or ``h[s] - h[R s]``.

    Each chunk holds ``chunk_rows`` rows, so no half of ``h`` is formed.
    """
    step = chunk_rows(h.shape[1] * h.itemsize)
    for start in range(0, rows.size, step):
        chunk = rows[start:start + step]
        combined = h[chunk]
        if add:
            combined += h[mirror[chunk]]
        else:
            combined -= h[mirror[chunk]]
        yield start, combined


def _scale_palindromes(block: np.ndarray, palindromes: np.ndarray) -> None:
    """Scale the palindrome rows, then the palindrome columns, by ``sqrt(1/2)`` in place."""
    for p in palindromes:
        block[p] *= math.sqrt(0.5)
    for p in palindromes:
        block[:, p] *= math.sqrt(0.5)


def _parity_blocks(h: np.ndarray, mirror: np.ndarray, reps: np.ndarray, pairs: np.ndarray,
                   palindromes: np.ndarray) -> list[np.ndarray]:
    """The even and odd blocks of an ``h`` with ``R h R == h``.

    ``s`` of ``reps`` stands for ``(|s> + |R s>) / sqrt 2`` in the even
    block, or for ``|s>`` when ``s`` is a palindrome, and ``s`` of ``pairs``
    for ``(|s> - |R s>) / sqrt 2`` in the odd block, which has no
    palindromes: ``(dim + 2^ceil(n/2)) / 2`` and ``(dim - 2^ceil(n/2)) / 2``
    states. An entry is ``h[s, t] +- h[R s, t]``, scaled by ``sqrt(1/2)`` on
    each palindrome row and column of the even block; ``h[R s, t] ==
    h[s, R t]``, so a Hermitian ``h`` gives blocks that equal their
    conjugate transposes bit for bit.
    """
    even = np.empty((reps.size, reps.size), dtype=h.dtype)
    for start, combined in _mirror_combined(h, mirror, reps, add=True):
        even[start:start + combined.shape[0]] = combined[:, reps]
    _scale_palindromes(even, palindromes)
    odd = np.empty((pairs.size, pairs.size), dtype=h.dtype)
    for start, combined in _mirror_combined(h, mirror, pairs, add=False):
        odd[start:start + combined.shape[0]] = combined[:, pairs]
    return [even, odd]


def _real_form(h: np.ndarray, mirror: np.ndarray, reps: np.ndarray, pairs: np.ndarray,
               palindromes: np.ndarray) -> np.ndarray:
    """A complex ``h`` with ``R h R == conj(h)`` as a real symmetric matrix.

    The basis is ``(|s> + |R s>) / sqrt 2`` for each ``s`` of ``reps``, or
    ``|s>`` when ``s`` is a palindrome, then ``i (|s> - |R s>) / sqrt 2`` for
    each ``s`` of ``pairs``: ``R`` combined with complex conjugation fixes
    each of these states, so ``h`` is real in this basis. The first rows are
    ``Re`` of ``h[s] + h[R s]`` at the ``reps`` columns and ``-Im`` at the
    ``pairs`` columns, the others ``Im`` of ``h[s] - h[R s]`` at the ``reps``
    columns and ``Re`` at the ``pairs`` columns; palindrome rows and columns
    are scaled by ``sqrt(1/2)``. ``h[R s, t] == conj(h[s, R t])``, so a
    Hermitian ``h`` gives a matrix that equals its transpose bit for bit.
    """
    n_reps = reps.size
    m = np.empty(h.shape)
    for start, combined in _mirror_combined(h, mirror, reps, add=True):
        out = m[start:start + combined.shape[0]]
        out[:, :n_reps] = combined.real[:, reps]
        out[:, n_reps:] = -combined.imag[:, pairs]
    for start, combined in _mirror_combined(h, mirror, pairs, add=False):
        out = m[n_reps + start:n_reps + start + combined.shape[0]]
        out[:, :n_reps] = combined.imag[:, reps]
        out[:, n_reps:] = combined.real[:, pairs]
    _scale_palindromes(m, palindromes)
    return m


def _reflection_blocks(h: np.ndarray) -> list[np.ndarray] | None:
    """The blocks whose merged spectra are that of ``h``, or ``None``.

    ``None`` unless ``h`` is a float or complex matrix on ``n >= 2`` qubits
    that bit reversal ``R`` maps, bit for bit, onto itself (the two
    :func:`_parity_blocks`) or, if complex, onto its conjugate (the one
    :func:`_real_form`). One index ``s <= R s`` stands for each orbit.
    """
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.dtype.kind not in "fc":
        return None
    dim = h.shape[0]
    n_bits = dim.bit_length() - 1
    if n_bits < 2 or dim != 1 << n_bits:
        return None
    mirror = _bit_reversal(n_bits)
    reps = np.flatnonzero(np.arange(dim) <= mirror)
    palindromes = np.flatnonzero(mirror[reps] == reps)
    pairs = np.delete(reps, palindromes)
    # R is an involution, so the rows s <= R s decide the whole matrix
    if _commutes(h, mirror, reps):
        return _parity_blocks(h, mirror, reps, pairs, palindromes)
    if h.dtype.kind == "c" and _commutes(h, mirror, reps, conjugate=True):
        return [_real_form(h, mirror, reps, pairs, palindromes)]
    return None


def _eigenvalues(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of ``h``, from its reflection blocks where it has them."""
    blocks = _reflection_blocks(h)
    if blocks is None:
        return np.linalg.eigvalsh(h)
    return np.sort(np.concatenate([np.linalg.eigvalsh(block) for block in blocks]))


def diagonalize(h: np.ndarray) -> Spectrum:
    """Energies of a Hermitian matrix, ascending, without eigenvectors.

    When ``h`` commutes bit for bit with the bit-reversal permutation of
    the basis, as the Hamiltonian of a reflection-symmetric model on a
    chain does, the energies are the merged spectra of its even and odd
    blocks, each about half the dimension, so about a quarter of the work.
    When a complex ``h`` instead goes over into its complex conjugate under
    bit reversal, as a chain with a reflection-odd imaginary bond does, the
    energies come from one real symmetric matrix of the same dimension,
    also about a quarter of the work of the complex solve. Otherwise they
    come from one full solve.

    With no eigenpairs to check, the energies are held to the two trace
    identities ``tr H = sum E_j`` and ``||H||_F^2 = sum E_j^2``, within
    ``TRACE_IDENTITY_K * dim * eps`` times ``|H|`` and ``|H|^2``; a
    :class:`NumericError` carries the offending gap. Both identities read
    ``h`` itself, not its blocks, so a faulty block fails them too. The
    Frobenius norm is taken over the whole matrix, so an ``h`` whose two
    triangles disagree fails it, although the solver reads one triangle
    only. The check costs O(dim^2) against the solver's O(dim^3).
    """
    h = np.asarray(h)
    try:
        energies = _eigenvalues(h)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed to converge: {exc}") from exc
    scale = float(np.abs(energies).max(initial=0.0))
    tol = TRACE_IDENTITY_K * energies.size * np.finfo(float).eps * scale
    trace_gap = float(abs(np.trace(h) - energies.sum()))
    frobenius_gap = float(abs(np.vdot(h, h).real - energies @ energies))
    # not-below comparisons so NaN gaps count as failures
    if not trace_gap <= tol:
        raise NumericError(f"trace identity gap {trace_gap:.3e} exceeds {tol:.3e}")
    if not frobenius_gap <= tol * scale:
        raise NumericError(f"Frobenius identity gap {frobenius_gap:.3e} exceeds {tol * scale:.3e}")
    energies.setflags(write=False)
    return Spectrum(energies=energies)


def eigenpairs(h: np.ndarray) -> Spectrum:
    """Full eigendecomposition of a Hermitian matrix, ascending energies.

    The residual ``|H v - E v|`` and the orthonormality of the eigenvector
    matrix are always verified against the spectrum tolerances; a
    :class:`NumericError` carries the offending residual. The solver's own
    arrays are frozen and handed to the :class:`Spectrum` without a copy.
    """
    h = np.asarray(h)
    try:
        energies, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed to converge: {exc}") from exc
    scale = float(np.abs(energies).max(initial=0.0))
    residual = float(np.abs(h @ vectors - vectors * energies).max())
    # not-below comparisons so NaN residuals count as failures
    if not residual <= SPECTRUM_RESIDUAL_TOL * max(scale, 1e-300):
        raise NumericError(
            f"eigenpair residual {residual:.3e} exceeds {SPECTRUM_RESIDUAL_TOL:g} * |H|"
        )
    gram_dev = float(np.abs(vectors.conj().T @ vectors - np.eye(energies.size)).max())
    if not gram_dev <= SPECTRUM_RESIDUAL_TOL:
        raise NumericError(f"eigenvectors deviate from orthonormal by {gram_dev:.3e}")
    energies.setflags(write=False)
    vectors.setflags(write=False)
    return Spectrum(energies=energies, vectors=vectors)


@dataclass(frozen=True, eq=False)
class GibbsEnsemble:
    """Thermal state of a Hamiltonian: its spectrum plus log-domain weights.

    ``log_weights[j]`` is the natural log of the j-th state probability,
    ``-beta * E_j - log_partition``; they sum to one by construction. The
    Hamiltonian itself is not kept: callers that need it, such as
    :func:`eigenvalue_via_energy`, pass the matrix they built.
    """

    beta: float
    spectrum: Spectrum
    log_weights: np.ndarray
    log_partition: float
    n_sites: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "log_weights", readonly(self.log_weights))

    @property
    def dim(self) -> int:
        return self.spectrum.dim

    @cached_property
    def weights(self) -> np.ndarray:
        """Linear-domain probabilities; tiny ones may underflow to zero."""
        weights = np.exp(self.log_weights)
        weights.setflags(write=False)
        return weights


def gibbs_ensemble(h: np.ndarray, beta: float, *, spectrum: Spectrum | None = None) -> GibbsEnsemble:
    """Gibbs ensemble of ``h`` at inverse temperature ``beta > 0``.

    The spectrum comes from :func:`diagonalize`, energies only. Passing a
    precomputed ``spectrum`` skips the eigensolve; pass
    ``spectrum=eigenpairs(h)`` where eigenvectors are needed.
    """
    if not beta > 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    h = np.asarray(h)
    if spectrum is None:
        spectrum = diagonalize(h)
    elif spectrum.dim != h.shape[0]:
        raise ValueError("spectrum dimension does not match the Hamiltonian")
    dim = spectrum.dim
    n_sites = dim.bit_length() - 1
    if dim != 1 << n_sites:
        raise ValueError(f"dimension {dim} is not a power of two")
    log_weights = -beta * spectrum.energies
    log_partition = logsumexp(log_weights)
    log_weights -= log_partition
    log_weights.setflags(write=False)
    return GibbsEnsemble(
        beta=float(beta),
        spectrum=spectrum,
        log_weights=log_weights,
        log_partition=log_partition,
        n_sites=n_sites,
    )


def eigenvalue_via_energy(ensemble: GibbsEnsemble, h: np.ndarray, j: int) -> float:
    """Log weight of state ``j`` recomputed through the energy quadratic form.

    Evaluates ``-beta <psi_j|H|psi_j> - log Xi`` with ``h`` the Hamiltonian
    the ensemble was built from, rather than reading the stored eigenvalue;
    the two agree to the spectrum residual tolerance.
    """
    if not 0 <= j < ensemble.dim:
        raise ValueError(f"state index {j} outside [0, {ensemble.dim})")
    v = ensemble.spectrum.require_vectors("eigenvalue_via_energy")[:, j]
    energy = float(np.real(v.conj() @ (h @ v)))
    return -ensemble.beta * energy - ensemble.log_partition


def entropy_bits(ensemble: GibbsEnsemble) -> float:
    """Von Neumann entropy of the ensemble in bits."""
    s_nats = -float(np.sum(ensemble.weights * ensemble.log_weights))
    return max(LOG2E * s_nats, 0.0)


def expectation(ensemble: GibbsEnsemble, observable: np.ndarray) -> float:
    """Thermal expectation of a Hermitian observable."""
    a = np.asarray(observable)
    if a.shape != (ensemble.dim, ensemble.dim):
        raise ValueError(f"observable must have shape ({ensemble.dim}, {ensemble.dim})")
    v = ensemble.spectrum.require_vectors("expectation")
    diagonal = np.einsum("ij,ij->j", v.conj(), a @ v).real
    return float(np.sum(ensemble.weights * diagonal))


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
    n_sites: int

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
    densities = ThermoDensities(beta=beta, f=f, g=g, h_bits=h_bits, n_sites=n)
    if not densities.identity_residual <= IDENTITY_RESIDUAL_TOL:
        raise NumericError(
            f"entropy-rate identity violated: residual {densities.identity_residual:.3e}"
        )
    return densities
