"""Self-contained oracle suite for small volumes.

Each check recomputes a pipeline quantity along an independent route
(matrix exponential, exhaustive configuration enumeration, finite
differences) and compares at a fixed tolerance. Every ensemble here comes
from the package's one eigenvector route, :func:`_eigenpairs`, with its
eigenpair residual and Gram checks. Meant for the ``check`` CLI subcommand;
the pytest suite carries its own, separate oracles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .codec import build_codebook, compress, decompress, fidelity, make_decomposition, typical_projector
from .errors import NumericError
from .gibbs import (
    LOG2E, GibbsEnsemble, Spectrum, _eigenvalues, _lapack_solver, _solve_matrices,
    diagonalize, entropy_bits, gibbs_ensemble, thermo_densities,
)
from .hamiltonian import HamiltonianRows, assemble_hamiltonian, hamiltonian_rows
from .interaction import GroundStateConfig, Interaction, LocalTerm, classical_energy, preset_tfim
from .lattice import chain
from .typicality import typical_subspace


ALL_UP = GroundStateConfig.uniform(1, +1)
# pins the two ends of an even chain to opposite spins, so its H does not
# commute with bit reversal and diagonalize takes the full solve
NEEL = GroundStateConfig((2,), (+1, -1))
# the eigenpair contract: |H v - E v| <= tol |H| and |V^H V - 1| <= tol, entrywise
_EIGENPAIR_TOL = 1e-9


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _hamiltonian(n_sites: int, lam: float) -> np.ndarray:
    return assemble_hamiltonian(preset_tfim(1.0, 0.5, lam), chain(n_sites), ALL_UP)


def _dm_model(lam: float = 0.2) -> Interaction:
    """The TFIM chain plus the imaginary bond of the ``dm`` test config.

    The bond couples ``|01>`` and ``|10>`` by ``0.03 i``; reflection swaps
    the two states, so H goes over into its complex conjugate and
    diagonalize solves it in real form.
    """
    quantum = np.zeros((4, 4), dtype=complex)
    quantum[1, 2], quantum[2, 1] = 0.03j, -0.03j
    bond = LocalTerm(((0,), (1,)), np.zeros(4), quantum)
    return Interaction(terms=preset_tfim(1.0, 0.5, lam).terms + (bond,), lam=lam)


def _eigenpairs(h: np.ndarray) -> tuple[Spectrum, np.ndarray]:
    """The spectrum of a dense Hermitian ``h`` and its eigenvectors, columns in the same order.

    ``numpy.linalg.eigh`` solves ``h``, held to ``_EIGENPAIR_TOL`` in the
    eigenpair residual and in the Gram matrix's deviation from the identity;
    a :class:`NumericError` carries the offending value.
    """
    energies, vectors = np.linalg.eigh(h)
    scale = float(np.abs(energies).max(initial=0.0))
    residual = float(np.abs(h @ vectors - vectors * energies).max(initial=0.0))
    # not-below comparisons so NaN deviations count as failures
    if not residual <= _EIGENPAIR_TOL * max(scale, 1e-300):
        raise NumericError(f"eigenpair residual {residual:.3e} exceeds {_EIGENPAIR_TOL:g} * |H|")
    gram_dev = float(np.abs(vectors.conj().T @ vectors - np.eye(energies.size)).max(initial=0.0))
    if not gram_dev <= _EIGENPAIR_TOL:
        raise NumericError(f"eigenvectors deviate from orthonormal by {gram_dev:.3e}")
    return Spectrum(energies), vectors


def _ensemble(h: np.ndarray, beta: float) -> tuple[GibbsEnsemble, np.ndarray]:
    spectrum, vectors = _eigenpairs(h)
    return gibbs_ensemble(spectrum, beta), vectors


def _check_expm_oracle(n_sites: int = 5, beta: float = 1.5, lam: float = 0.3) -> CheckResult:
    h = _hamiltonian(n_sites, lam)
    ens, _ = _ensemble(h, beta)
    rho = expm(-beta * np.asarray(h, dtype=complex))
    rho /= np.trace(rho).real
    oracle = np.sort(np.linalg.eigvalsh(rho))
    mine = np.sort(np.exp(ens.log_weights))
    worst = float(np.abs(oracle - mine).max())
    return CheckResult("matrix-exponential eigenvalues", worst <= 1e-8, f"max deviation {worst:.3e}")


def _check_classical_entropy(n_sites: int = 5, beta: float = 2.0) -> CheckResult:
    model = preset_tfim(1.0, 0.5, 0.0)
    volume = chain(n_sites)
    boundary = ALL_UP
    ens, _ = _ensemble(assemble_hamiltonian(model, volume, boundary), beta)
    energies = []
    for spins in itertools.product((1, -1), repeat=n_sites):
        inside = dict(zip(volume.sites, spins))
        energies.append(classical_energy(model, volume, boundary.pinned(volume, inside)))
    scaled = -beta * np.asarray(energies)
    scaled -= scaled.max()
    weights = np.exp(scaled)
    weights /= weights.sum()
    nonzero = weights[weights > 0]
    oracle = float(-(nonzero * np.log2(nonzero)).sum())
    mine = entropy_bits(ens)
    gap = abs(oracle - mine)
    return CheckResult("classical enumeration entropy", gap <= 1e-10, f"|gap| {gap:.3e}")


def _check_energy_derivative(n_sites: int = 5, beta: float = 1.2, lam: float = 0.25) -> CheckResult:
    h = _hamiltonian(n_sites, lam)
    ens, v = _ensemble(h, beta)
    mine = float(np.sum(ens.weights * np.einsum("ij,ij->j", v.conj(), h @ v).real))
    step = 1e-5
    up = gibbs_ensemble(ens.spectrum, beta + step).log_partition
    down = gibbs_ensemble(ens.spectrum, beta - step).log_partition
    oracle = -(up - down) / (2 * step)
    rel = abs(mine - oracle) / max(abs(oracle), 1.0)
    return CheckResult("energy as log-partition derivative", rel <= 1e-5, f"relative gap {rel:.3e}")


def _check_entropy_identity(n_sites: int = 6, beta: float = 2.0, lam: float = 0.2) -> CheckResult:
    densities = thermo_densities(_ensemble(_hamiltonian(n_sites, lam), beta)[0])
    res = densities.identity_residual
    return CheckResult("entropy-rate identity", res <= 1e-10, f"residual {res:.3e}")


def _check_values_only(route: str, rows: HamiltonianRows, h: np.ndarray) -> CheckResult:
    dense = _eigenpairs(h)[0].energies
    gap = float(np.abs(diagonalize(rows).energies - dense).max())
    bound = 1e-12 * float(np.abs(dense).max())
    return CheckResult(
        f"values-only energies, {route}", gap <= bound, f"max gap {gap:.3e} (bound {bound:.3e})"
    )


def _check_in_place_solve(route: str, rows: HamiltonianRows) -> CheckResult:
    """The route's buffer solved as ``diagonalize`` solves it, against ``eigvalsh`` of its blocks."""
    matrix, n_odd, _, _ = _solve_matrices(rows)
    blocks = [matrix, matrix[:n_odd, 1:n_odd + 1].T] if n_odd else [matrix]
    expected = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))  # on copies
    solver = _lapack_solver(matrix.dtype)
    how = (f"in place by {solver.__name__}" if solver is not None
           else "on a copy by numpy.linalg.eigvalsh, no LAPACK symbol found")
    same = np.array_equal(_eigenvalues(matrix, n_odd), expected)
    verdict = "bit for bit equal to" if same else "differs from"
    return CheckResult(f"in-place solve, {route}", same, f"solved {how}; {verdict} numpy.linalg.eigvalsh")


def _check_generated_rows(route: str, rows: HamiltonianRows, h: np.ndarray) -> CheckResult:
    generated = rows.rows(np.arange(rows.shape[0]))
    same = generated.dtype == h.dtype and generated.tobytes() == h.tobytes()
    detail = "bit for bit equal" if same else f"max gap {np.abs(generated - h).max():.3e}"
    return CheckResult(f"generated rows against the dense matrix, {route}", same, detail)


def _check_typical_filter(n_sites: int = 6, beta: float = 0.5, lam: float = 0.2) -> CheckResult:
    ens, _ = _ensemble(_hamiltonian(n_sites, lam), beta)
    h_ref = entropy_bits(ens) / n_sites
    delta = 0.3
    sub = typical_subspace(ens, h_ref, delta)
    weights = np.exp(ens.log_weights)
    picked = [
        j
        for j in range(ens.dim)
        if -n_sites * (h_ref + delta) <= LOG2E * ens.log_weights[j] <= -n_sites * (h_ref - delta)
    ]
    mass = float(weights[picked].sum()) if picked else 0.0
    ok = bool(picked) and list(sub.indices) == picked and abs(mass - sub.mass) <= 1e-12
    return CheckResult("typical window filter", ok, f"dim {sub.dim}, mass {sub.mass:.6f}")


def _product_vectors(eigenvectors: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """A decomposition's vectors in the product basis, ``V @ coefficients`` with unit columns."""
    vectors = eigenvectors @ coefficients
    vectors /= np.linalg.norm(vectors, axis=0)
    return vectors


def _check_codec(n_sites: int = 6, beta: float = 0.5, lam: float = 0.2, seed: int = 7) -> CheckResult:
    ens, eigenvectors = _ensemble(_hamiltonian(n_sites, lam), beta)
    sub = typical_subspace(ens, entropy_bits(ens) / n_sites, 0.3)
    if sub.dim == 0:
        return CheckResult("codec round trip and fidelity", False, "typical subspace came out empty")
    book = build_codebook(sub)
    round_trip = all(decompress(book, compress(book, int(j))) == int(j) for j in sub.indices)
    decomp = make_decomposition(ens, ens.dim, seed=seed)
    fid = fidelity(decomp, sub)
    # dense route: product-basis vectors through the typical projector
    vectors = _product_vectors(eigenvectors, decomp.coefficients)
    quad = np.einsum("ij,ij->j", vectors.conj(), typical_projector(sub, eigenvectors) @ vectors).real
    dense_gap = abs(fid - float(np.sum(decomp.weights * quad)))
    gap = abs(fid - sub.mass)
    ok = round_trip and gap <= 1e-10 and dense_gap <= 1e-12
    return CheckResult(
        "codec round trip and fidelity", ok, f"|F - mass| {gap:.3e}, |F - dense F| {dense_gap:.3e}"
    )


def run_checks() -> list[CheckResult]:
    """Run the whole oracle suite on six qubits or fewer."""
    volume = chain(6)
    # one chain per solve route, each with its generated rows and its dense H
    routes = [
        (name, hamiltonian_rows(model, volume, boundary), assemble_hamiltonian(model, volume, boundary))
        for name, model, boundary in (("parity blocks", preset_tfim(1.0, 0.5, 0.2), ALL_UP),
                                      ("real form", _dm_model(), ALL_UP),
                                      ("full solve", preset_tfim(1.0, 0.5, 0.2), NEEL))
    ]
    return [
        _check_expm_oracle(),
        _check_classical_entropy(),
        _check_energy_derivative(),
        _check_entropy_identity(),
        *(_check_values_only(name, rows, h) for name, rows, h in routes),
        *(_check_in_place_solve(name, rows) for name, rows, _ in routes),
        *(_check_generated_rows(name, rows, h) for name, rows, h in routes),
        _check_typical_filter(),
        _check_codec(),
    ]
