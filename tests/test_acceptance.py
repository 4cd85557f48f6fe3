"""Acceptance suite: one test per criterion, each printing one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts. Expected values come from independent
oracles (matrix exponentials, exhaustive enumeration, sorted-prefix sums);
nothing is asserted against the code path it checks.
"""

import numpy as np
import pytest
from scipy.linalg import expm

import spinaep as sa
from spinaep.cli import main

from conftest import EXHIBIT, EXHIBIT_SIZES, GRID_POINTS, chain_ensemble, chain_hamiltonian, chain_rows, dense_ensemble
from oracles import classical_chain_entropy_bits, eigenvalue_via_energy

DELTA = EXHIBIT["delta"]
DELTA_GRID = (0.05, 0.1, 0.15, 0.25, 0.5)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def per_volume_subspace(ens: sa.GibbsEnsemble, delta: float = DELTA) -> sa.TypicalSubspace:
    return sa.typical_subspace(ens, sa.entropy_bits(ens) / ens.n_sites, delta)


def test_criterion_01_normalization_and_weight_identity():
    assert len(GRID_POINTS) >= 20
    worst_sum = 0.0
    worst_state = 0.0
    for J, field, lam, beta in GRID_POINTS:
        h = chain_hamiltonian(5, J, field, lam)
        ens, v = dense_ensemble(h, beta)
        worst_sum = max(worst_sum, abs(float(np.exp(ens.log_weights).sum()) - 1.0))
        for j in range(ens.dim):
            gap = abs(eigenvalue_via_energy(ens, v, h, j) - float(ens.log_weights[j]))
            worst_state = max(worst_state, gap)
    ok = worst_sum <= 1e-12 and worst_state <= 1e-9
    report(1, ok, f"{len(GRID_POINTS)} ensembles, |sum-1| <= {worst_sum:.2e}, "
                  f"per-state gap <= {worst_state:.2e}")
    assert worst_sum <= 1e-12
    assert worst_state <= 1e-9


def test_criterion_02_entropy_rate_identity(grid_ensembles, exhibit_ensembles):
    worst = 0.0
    for ens in list(grid_ensembles) + list(exhibit_ensembles.values()):
        worst = max(worst, sa.thermo_densities(ens).identity_residual)
    ok = worst <= 1e-10
    report(2, ok, f"max identity residual {worst:.2e} over {len(grid_ensembles) + 4} ensembles")
    assert ok


def test_criterion_03_classical_reduction():
    worst = 0.0
    for n in range(4, 11):
        ens = chain_ensemble(n, 1.0, 0.5, 0.0, beta=2.0)
        oracle = classical_chain_entropy_bits(n, 1.0, 0.5, 2.0)
        worst = max(worst, abs(sa.entropy_bits(ens) - oracle))
    ok = worst <= 1e-10
    report(3, ok, f"entropy vs enumeration, N=4..10, max gap {worst:.2e}")
    assert ok


def test_criterion_04_matrix_exponential_oracle():
    worst = 0.0
    for beta, lam in ((0.7, 0.1), (1.5, 0.3), (3.0, 0.0)):
        h = chain_hamiltonian(6, 1.0, 0.5, lam)
        ens = sa.gibbs_ensemble(sa.diagonalize(chain_rows(6, 1.0, 0.5, lam)), beta)
        rho = expm(-beta * np.asarray(h, dtype=complex))
        rho /= np.trace(rho).real
        oracle = np.sort(np.linalg.eigvalsh(rho))
        mine = np.sort(np.exp(ens.log_weights))
        worst = max(worst, float(np.abs(oracle - mine).max()))
    ok = worst <= 1e-8
    report(4, ok, f"three (beta, lambda) points at N=6, max eigenvalue gap {worst:.2e}")
    assert ok


def test_criterion_05_aep_exhibit(exhibit_ensembles):
    masses = {n: per_volume_subspace(ens).mass for n, ens in exhibit_ensembles.items()}
    inclusion_ok = True
    for ens in exhibit_ensembles.values():
        h_ref = sa.entropy_bits(ens) / ens.n_sites
        subs = [sa.typical_subspace(ens, h_ref, d) for d in DELTA_GRID]
        for small, large in zip(subs, subs[1:]):
            if not set(small.indices) <= set(large.indices):
                inclusion_ok = False
            if small.mass > large.mass + 1e-15:
                inclusion_ok = False
    growth_ok = masses[10] > masses[4]
    report(5, growth_ok and inclusion_ok,
           f"mass(N=4)={masses[4]:.8f} mass(N=10)={masses[10]:.8f} "
           f"delta-monotone={inclusion_ok}")
    assert inclusion_ok
    assert growth_ok, (
        f"typical mass shrinks from {masses[4]:.8f} (N=4) to {masses[10]:.8f} (N=10): "
        f"at beta=2 the entropy rate is ~0.0009 bits/site, so the 0.15-wide window "
        f"holds only the ground state at these sizes and its weight decays with N"
    )


def test_criterion_06_dimension_sandwich(exhibit_ensembles, grid_ensembles):
    checked = 0
    ok = True
    for ens in list(exhibit_ensembles.values()) + list(grid_ensembles):
        h_ref = sa.entropy_bits(ens) / ens.n_sites
        for delta in DELTA_GRID:
            sub = sa.typical_subspace(ens, h_ref, delta)
            eps = 1.0 - sub.mass
            upper = 2.0 ** (ens.n_sites * (h_ref + delta))
            lower = (1.0 - eps) * 2.0 ** (ens.n_sites * (h_ref - delta))
            if not (lower <= sub.dim <= upper):
                ok = False
            checked += 1
    report(6, ok, f"sandwich held on {checked} (ensemble, delta) rows")
    assert ok


def test_criterion_07_subrate_unreliability(exhibit_ensembles):
    rates = {
        n: sa.entropy_bits(ens) / n - 0.2 for n, ens in exhibit_ensembles.items()
    }
    if any(r < 0 for r in rates.values()):
        detail = ", ".join(f"N={n}: h-0.2={r:+.4f}" for n, r in sorted(rates.items()))
        report(7, False, f"rate below zero, outside the scan domain ({detail})")
        pytest.fail(
            f"the scan rate h - 0.2 is negative at every size ({detail}); "
            f"at beta=2 the entropy rate is far below 0.2 bits/site, so no "
            f"valid sub-rate state count 2^[N(h-0.2)] exists"
        )
    masses = [sa.best_rate_mass(exhibit_ensembles[n], rates[n]) for n in EXHIBIT_SIZES]
    ok = all(a > b for a, b in zip(masses, masses[1:]))
    report(7, ok, "best-rate masses " + ", ".join(f"{m:.6f}" for m in masses))
    assert ok


def test_exhibit_aep_trends_at_beta_half(warm_ensembles):
    """Criteria 05 and 07's trends at beta = 0.5, where the entropy rate is
    about 0.6 bits/site; the criteria themselves stay at the pinned beta = 2."""
    masses = {n: per_volume_subspace(ens).mass for n, ens in warm_ensembles.items()}
    inclusion_ok = True
    for ens in warm_ensembles.values():
        h_ref = sa.entropy_bits(ens) / ens.n_sites
        subs = [sa.typical_subspace(ens, h_ref, d) for d in DELTA_GRID]
        for small, large in zip(subs, subs[1:]):
            inclusion_ok &= set(small.indices) <= set(large.indices) and small.mass <= large.mass + 1e-15
    rates = {n: sa.entropy_bits(ens) / n - 0.2 for n, ens in warm_ensembles.items()}
    sub_rate = [sa.best_rate_mass(warm_ensembles[n], rates[n]) for n in EXHIBIT_SIZES]
    growth_ok = masses[EXHIBIT_SIZES[-1]] > masses[EXHIBIT_SIZES[0]]
    decay_ok = min(rates.values()) > 0 and all(a > b for a, b in zip(sub_rate, sub_rate[1:]))
    print(f"exhibit beta=0.5: {'PASS' if growth_ok and inclusion_ok and decay_ok else 'FAIL'} - "
          "typical masses " + ", ".join(f"{masses[n]:.6f}" for n in EXHIBIT_SIZES)
          + "; best-rate masses at h-0.2 " + ", ".join(f"{m:.6f}" for m in sub_rate))
    assert inclusion_ok
    assert growth_ok
    assert decay_ok


def test_criterion_08_fidelity_identity():
    h = chain_hamiltonian(8, EXHIBIT["J"], EXHIBIT["h"], EXHIBIT["lam"])
    ens, v = dense_ensemble(h, EXHIBIT["beta"])
    sub = per_volume_subspace(ens)
    projector = sa.typical_projector(sub, v)
    rho = (v * np.exp(ens.log_weights)) @ v.conj().T
    trace_value = float(np.trace(rho @ projector).real)
    fidelities = [
        sa.fidelity(sa.make_decomposition(ens, ens.dim, seed=seed), sub)
        for seed in (101, 202, 303)
    ]
    spread = max(fidelities) - min(fidelities)
    worst = max(abs(f - trace_value) for f in fidelities)
    mass_gap = abs(trace_value - sub.mass)
    ok = worst <= 1e-10 and spread <= 1e-10 and mass_gap <= 1e-10
    report(8, ok, f"|F - tr(rho P)| <= {worst:.2e}, spread {spread:.2e}, "
                  f"|tr - mass| {mass_gap:.2e}")
    assert ok


def test_criterion_09_codec_round_trip(exhibit_ensembles, grid_ensembles):
    round_trips = 0
    ok = True
    for ens in list(exhibit_ensembles.values()) + list(grid_ensembles):
        sub = per_volume_subspace(ens)
        if sub.dim == 0:
            continue
        book = sa.build_codebook(sub)
        for j in sub.indices:
            word = sa.compress(book, int(j))
            if word is None or sa.decompress(book, word) != int(j):
                ok = False
            round_trips += 1
        if not book.length <= ens.n_sites * (sub.h_ref + sub.delta) + 2:
            ok = False
    report(9, ok, f"{round_trips} typical states round-tripped, lengths within bound")
    assert ok and round_trips > 0


def test_criterion_10_lln_residual(exhibit_ensembles):
    energies = {n: sa.thermo_densities(exhibit_ensembles[n]).g for n in EXHIBIT_SIZES}
    residuals = [sa.lln_residual(exhibit_ensembles[n], energies[n], 1.0) for n in EXHIBIT_SIZES]
    zeros = [sa.lln_residual(exhibit_ensembles[n], energies[n], 0.0) for n in EXHIBIT_SIZES]
    decreasing = all(a > b for a, b in zip(residuals, residuals[1:]))
    exact_zero = all(z == 0.0 for z in zeros)
    ok = decreasing and exact_zero
    report(10, ok, "t=1 residuals " + ", ".join(f"{r:.3e}" for r in residuals)
                   + f"; t=0 exact zero={exact_zero}")
    assert ok


def test_criterion_11_deterministic_sweep(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "model = tfim\nJ = 1.0\nh_field = 0.5\nlambda = 0.2\nbeta = 2.0\n"
        "volume = 1\nvolume = 2\nvolume = 3\ndelta = 0.15\ndelta = 0.3\n"
        "t = 1.0\nrate = 0.25\nseed = 20020711\n",
        encoding="utf-8",
    )
    outputs = []
    for name in ("one", "two"):
        rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / name), "--quiet"])
        assert rc == 0
        outputs.append({
            f: (tmp_path / name / f).read_bytes() for f in ("sweep.csv", "aep.csv")
        })
    ok = outputs[0] == outputs[1]
    rows = len((tmp_path / "one" / "sweep.csv").read_bytes().splitlines()) - 1
    report(11, ok, f"two runs byte-identical across {rows} sweep rows")
    assert ok
