"""The values-only eigensolve behind the CLI.

``diagonalize`` returns energies only and holds them to the trace identities
``tr H = sum E`` and ``||H||_F^2 = sum E^2``. The mutation tests run the real
solve, the two parity blocks on the TFIM chain and one full solve on the
other models, then replace the merged spectrum with a faulty one and require
that check to fail. The two identities are smooth sums over the spectrum, so
they cannot resolve a pair of energies moved by ``+eps`` and ``-eps`` when
the pair is closer than ``TRACE_IDENTITY_K * dim * eps_mach * |H|^2 / (2 eps)``;
the pair test covers every pair above that resolution.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

import spinaep as sa
from spinaep import checks, gibbs
from spinaep.cli import main
from spinaep.errors import NumericError
from spinaep.gibbs import TRACE_IDENTITY_K
from conftest import as_rows

GOLDEN = Path(__file__).resolve().parent / "golden"
EPS = np.finfo(float).eps
SOLVE = gibbs._eigenvalues  # the merged spectrum, parity blocks or full solve


def golden_rows(case: str, volume: sa.Volume) -> sa.HamiltonianRows:
    config = sa.parse_config((GOLDEN / f"{case}.cfg").read_text(encoding="utf-8"))
    return sa.hamiltonian_rows(sa.build_interaction(config), volume, sa.build_boundary(config))


# six qubits each: the real TFIM, the complex sweep-dm11 chain, the complex d = 2 model
VOLUMES = {
    "tfim": sa.chain(6),
    "dm": sa.chain(6),
    "generic2d": sa.build_box((0, 0), (1, 2)),
}


# the eigvalsh calls of each model's solve: only the TFIM chain commutes with bit reversal
SOLVES = {"tfim": [(36, 36), (28, 28)], "dm": [(64, 64)], "generic2d": [(64, 64)]}


@pytest.fixture(scope="module", params=sorted(VOLUMES))
def rows(request) -> sa.HamiltonianRows:
    return golden_rows(request.param, VOLUMES[request.param])


@pytest.fixture(scope="module")
def hamiltonian(rows) -> np.ndarray:
    return rows.dense()


def tolerance(energies: np.ndarray) -> float:
    """The trace-identity tolerance; the Frobenius one is this times |H|."""
    return TRACE_IDENTITY_K * energies.size * EPS * float(np.abs(energies).max())


def check_fails(monkeypatch, rows: sa.HamiltonianRows, energies: np.ndarray) -> bool:
    """Whether ``diagonalize(rows)`` rejects ``energies`` in place of the spectrum its solve merged."""
    def faulty(matrix, n_odd):
        assert SOLVE(matrix, n_odd).shape == np.shape(energies)
        return np.array(energies)

    monkeypatch.setattr(gibbs, "_eigenvalues", faulty)
    try:
        sa.diagonalize(rows)
    except NumericError:
        return True
    return False


@pytest.mark.parametrize("case", sorted(VOLUMES))
def test_injected_exact_spectrum_is_accepted(case, monkeypatch, eigvalsh_calls):
    rows = golden_rows(case, VOLUMES[case])
    exact = checks._eigenpairs(rows.dense())[0].energies
    assert not check_fails(monkeypatch, rows, exact)
    assert [a.shape for a in eigvalsh_calls] == SOLVES[case]
    # the injected spectrum is the one diagonalize returns
    np.testing.assert_array_equal(sa.diagonalize(rows).energies, exact)


class TestCheck:
    def test_exact_spectrum_passes_well_inside_the_tolerances(self, rows, hamiltonian):
        spec = sa.diagonalize(rows)
        assert [field.name for field in dataclasses.fields(spec)] == ["energies"]
        e, tol = spec.energies, tolerance(spec.energies)
        assert abs(np.trace(hamiltonian) - e.sum()) <= tol / 10
        assert abs(np.vdot(hamiltonian, hamiltonian).real - e @ e) <= tol * np.abs(e).max() / 10

    def test_one_eigenvalue_shifted(self, rows, hamiltonian, monkeypatch):
        exact = np.linalg.eigvalsh(hamiltonian)
        shift = 1e-9 * np.abs(exact).max()
        for j in range(exact.size):
            mutated = exact.copy()
            mutated[j] += shift
            assert check_fails(monkeypatch, rows, mutated), j

    def test_pair_perturbed(self, rows, hamiltonian, monkeypatch):
        exact = np.linalg.eigvalsh(hamiltonian)
        scale = np.abs(exact).max()
        eps = 1e-8 * scale  # the dense eigenpair check catches every such pair
        resolution = tolerance(exact) * scale / (2 * eps)
        checked = 0
        for i in range(exact.size):
            for j in range(i + 1, exact.size):
                if exact[j] - exact[i] < 2 * resolution:
                    continue
                mutated = exact.copy()
                mutated[i] += eps
                mutated[j] -= eps
                assert check_fails(monkeypatch, rows, mutated), (i, j)
                checked += 1
        assert checked >= 0.99 * exact.size * (exact.size - 1) / 2
        extremes = exact.copy()
        extremes[0] += 1e-9 * scale
        extremes[-1] -= 1e-9 * scale
        assert check_fails(monkeypatch, rows, extremes)

    def test_eigenvalue_replaced_by_its_neighbour(self, rows, hamiltonian, monkeypatch):
        exact = np.linalg.eigvalsh(hamiltonian)
        assert np.diff(exact).min() > tolerance(exact)  # non-degenerate
        for k in range(exact.size - 1):
            for target, source in ((k + 1, k), (k, k + 1)):
                mutated = exact.copy()
                mutated[target] = exact[source]
                assert check_fails(monkeypatch, rows, mutated), (target, source)

    def test_eigenvalue_with_its_sign_flipped(self, rows, hamiltonian, monkeypatch):
        # sum E^2 is unchanged, so this one rests on the trace identity alone
        exact = np.linalg.eigvalsh(hamiltonian)
        for j in np.flatnonzero(np.abs(exact) > tolerance(exact)):
            mutated = exact.copy()
            mutated[j] = -exact[j]
            assert check_fails(monkeypatch, rows, np.sort(mutated)), j

    @pytest.mark.parametrize("seed", range(5))
    def test_upper_triangle_perturbed(self, hamiltonian, seed):
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal(hamiltonian.shape)
        if np.iscomplexobj(hamiltonian):
            noise = noise + 1j * rng.standard_normal(hamiltonian.shape)
        scale = np.abs(np.linalg.eigvalsh(hamiltonian)).max()
        perturbed = hamiltonian + 1e-9 * scale * np.triu(noise, 1)
        # the solver reads the lower triangle and cannot see the fault
        np.testing.assert_array_equal(np.linalg.eigvalsh(perturbed), np.linalg.eigvalsh(hamiltonian))
        # so a generator refuses the matrix before it reaches the solve
        with pytest.raises(ValueError, match="block 0 is not exactly Hermitian"):
            as_rows(perturbed)

    def test_nan_energies_fail(self, rows, hamiltonian, monkeypatch):
        mutated = np.linalg.eigvalsh(hamiltonian)
        mutated[3] = np.nan
        assert check_fails(monkeypatch, rows, mutated)


def test_energies_match_the_eigenpair_route(rows, hamiltonian):
    dense = checks._eigenpairs(hamiltonian)[0].energies
    values = sa.diagonalize(rows).energies
    assert np.abs(values - dense).max() <= 1e-12 * np.abs(dense).max()


class TestValuesOnlyEnsemble:
    @pytest.fixture(scope="class")
    def ensemble(self) -> sa.GibbsEnsemble:
        return sa.gibbs_ensemble(sa.diagonalize(golden_rows("dm", sa.chain(4))), beta=0.5)

    def test_decomposition_keeps_eigenbasis_coordinates(self, ensemble):
        decomp = sa.make_decomposition(ensemble, ensemble.dim, seed=5)
        assert not hasattr(decomp, "basis")
        assert decomp.vectors is decomp.coefficients
        sub = sa.typical_subspace(ensemble, sa.entropy_bits(ensemble) / ensemble.n_sites, 0.5)
        assert 0 < sub.mass < 1
        assert abs(sa.fidelity(decomp, sub) - sub.mass) <= 1e-12


def test_cli_commands_never_solve_for_eigenvectors(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigh called on the values-only path")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for command in ("sweep", "spectrum", "codec-demo"):
        args = [command, "--config", str(GOLDEN / "tfim.cfg"), "--out", str(tmp_path / command), "--quiet"]
        assert main(args) == 0


def test_check_uses_the_eigenpair_route(monkeypatch, capsys):
    calls = []
    dense = np.linalg.eigh

    def counting(h):
        calls.append(h.shape)
        return dense(h)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    assert main(["check", "--quiet"]) == 0
    assert len(calls) >= 6


def test_check_runs_the_parity_blocks_and_the_full_solve(eigvalsh_calls):
    assert main(["check", "--quiet"]) == 0
    assert {(36, 36), (28, 28), (64, 64)} <= {a.shape for a in eigvalsh_calls}


def test_check_runs_the_real_form(monkeypatch):
    passes = []
    row_pass = gibbs._row_pass

    def recording(source, conjugate):
        result = row_pass(source, conjugate)
        if conjugate and result is not None:
            passes.append((source.dtype, source.shape, result[0].shape, result[1]))
        return result

    monkeypatch.setattr(gibbs, "_row_pass", recording)
    assert main(["check", "--quiet"]) == 0
    assert passes and set(passes) == {(np.dtype(complex), (64, 64), (64, 64), 0)}
