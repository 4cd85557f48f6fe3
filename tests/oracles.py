"""Independent oracle implementations used by the test suite.

Everything here deliberately avoids the package's assembly and log-domain
paths: Hamiltonians come from explicit Kronecker chains, entropies from
exhaustive configuration enumeration, typical windows from plain loops,
decomposition fidelities from dense product-basis vectors and projectors.
"""

import itertools
import math

import numpy as np

from spinaep import GroundStateConfig

SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
SX = np.array([[0.0, 1.0], [1.0, 0.0]])
ID2 = np.eye(2)


def kron_site_op(op: np.ndarray, site: int, n: int) -> np.ndarray:
    factors = [ID2] * n
    factors[site] = op
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def kron_chain_tfim(n: int, J: float, h: float, lam: float, boundary: int = 1) -> np.ndarray:
    """Pinned-boundary transverse-field Ising chain via explicit Kronecker sums."""
    dim = 2**n
    H = np.zeros((dim, dim))
    z_ops = [kron_site_op(SZ, i, n) for i in range(n)]
    for i in range(n - 1):
        H -= J * z_ops[i] @ z_ops[i + 1]
    for i in range(n):
        H -= h * z_ops[i]
        H -= lam * kron_site_op(SX, i, n)
    H -= J * boundary * z_ops[0]
    H -= J * boundary * z_ops[n - 1]
    return H


def chain_config_energies(n: int, J: float, h: float, boundary: int = 1) -> np.ndarray:
    """Classical chain energies for every configuration, basis-index order."""
    energies = np.empty(2**n)
    for idx, bits in enumerate(itertools.product((0, 1), repeat=n)):
        spins = [1 - 2 * b for b in bits]
        e = -J * sum(spins[i] * spins[i + 1] for i in range(n - 1))
        e -= h * sum(spins)
        e -= J * boundary * (spins[0] + spins[-1])
        energies[idx] = e
    return energies


def classical_chain_entropy_bits(n: int, J: float, h: float, beta: float, boundary: int = 1) -> float:
    """Entropy of the classical pinned chain by exhaustive enumeration."""
    energies = chain_config_energies(n, J, h, boundary)
    scaled = -beta * energies
    scaled -= scaled.max()
    w = np.exp(scaled)
    w /= w.sum()
    w = w[w > 0]
    return float(-(w * np.log2(w)).sum())


def window_filter(log2_weights: np.ndarray, n_sites: int, h_ref: float, delta: float):
    """Explicit-loop typical window: returns (indices, mass)."""
    lo = -n_sites * (h_ref + delta)
    hi = -n_sites * (h_ref - delta)
    picked = [j for j, v in enumerate(log2_weights) if lo <= v <= hi]
    mass = float(sum(2.0 ** log2_weights[j] for j in picked))
    return picked, mass


def eigenvalue_via_energy(ensemble, vectors: np.ndarray, h: np.ndarray, j: int) -> float:
    """Log weight of state ``j`` recomputed through the energy quadratic form.

    Evaluates ``-beta <psi_j|H|psi_j> - log Xi`` with ``vectors`` the
    eigenvectors of ``h`` that go with the ensemble's energies, rather than
    reading the stored eigenvalue.
    """
    v = vectors[:, j]
    energy = float(np.real(v.conj() @ (h @ v)))
    return -ensemble.beta * energy - ensemble.log_partition


def thermal_expectation(ensemble, vectors: np.ndarray, observable: np.ndarray) -> float:
    """``sum_j kappa_j <psi_j|A|psi_j>`` over the eigenvectors that go with the ensemble's energies."""
    return float(np.sum(ensemble.weights * np.einsum("ij,ij->j", vectors.conj(), observable @ vectors).real))


def periodic_energy_density(interaction, state) -> float:
    """Classical energy per site of a periodic configuration, looped term by
    term over every cell site, each translate's spins read one by one
    through ``state.spin`` (first site = most significant bit)."""
    cell = list(itertools.product(*(range(p) for p in state.periods)))
    total = 0.0
    for term in interaction.terms:
        for base in cell:
            idx = 0
            for site in term.support:
                idx = 2 * idx + (state.spin(tuple(c + b for c, b in zip(site, base))) == -1)
            total += float(term.classical_part[idx])
    return total / len(cell)


def minimal_form(state):
    """``state`` on its smallest period cell, site by site: along each axis the
    smallest divisor ``q`` of the period such that every cell site's spin
    equals that of the site ``q`` further along the axis, read through a
    site-keyed copy of the cell."""
    cell = list(itertools.product(*(range(p) for p in state.periods)))
    spins = dict(zip(cell, state.cell_values))

    def spin(site):
        return spins[tuple(c % p for c, p in zip(site, state.periods))]

    periods = tuple(
        next(q for q in range(1, p + 1) if p % q == 0
             and all(spin(s[:axis] + (s[axis] + q,) + s[axis + 1:]) == v for s, v in spins.items()))
        for axis, p in enumerate(state.periods)
    )
    return GroundStateConfig(periods, tuple(spin(s) for s in itertools.product(*(range(p) for p in periods))))


def periodic_ground_states(interaction, max_periods: tuple) -> list:
    """Periodic ground states by one ``GroundStateConfig`` per cell of every
    period tuple up to ``max_periods``, axis by axis: each merged into its
    minimal form, with the density of the first cell scanned, and every one
    within 1e-12 of the minimum returned, sorted by periods and then cell values."""
    candidates = {}
    for periods in itertools.product(*(range(1, p + 1) for p in max_periods)):
        for assignment in itertools.product((1, -1), repeat=math.prod(periods)):
            state = GroundStateConfig(periods, assignment)
            candidates.setdefault(minimal_form(state), periodic_energy_density(interaction, state))
    best = min(candidates.values())
    minimal = [s for s, e in candidates.items() if e <= best + 1e-12]
    return sorted(minimal, key=lambda s: (s.periods, s.cell_values))


def index_spins(sites, index: int) -> dict:
    """Spin at each site of a basis index: first site = most significant bit, bit 0 = spin +1."""
    n = len(sites)
    return {site: 1 - 2 * ((index >> (n - 1 - pos)) & 1) for pos, site in enumerate(sites)}


def bit_reversal(n: int) -> np.ndarray:
    """The permutation of ``range(2**n)`` that reverses each index's ``n`` bits, one bit at a time."""
    mirror = np.zeros(2**n, dtype=np.int64)
    for index in range(2**n):
        for k in range(n):
            mirror[index] |= ((index >> k) & 1) << (n - 1 - k)
    return mirror


def parity_blocks(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd blocks of an ``h`` that commutes with bit reversal ``R``, from explicit states.

    The states of each block, in ascending ``s <= R s``: ``(|s> + |R s>) /
    sqrt 2`` in the even block, or ``|s>`` for a palindrome, and ``(|s> -
    |R s>) / sqrt 2`` in the odd one. With ``R h R == h`` the entry for
    states ``s`` and ``t`` is ``d_s d_t (h k_t)[s]``, where ``k_t`` is the
    unnormalized ``|t> +- |R t>`` (``2 |t>`` for a palindrome) and ``d`` is
    ``sqrt(1/2)`` at a palindrome, 1 elsewhere. Each ``(h k_t)[s]`` sums at
    most two nonzero products, each exact, so any summation order gives the
    same float, and ``d`` scales rows first. Both blocks are asserted
    exactly Hermitian.
    """
    n = h.shape[0].bit_length() - 1
    index = np.arange(2**n)
    mirror = bit_reversal(n)
    reps = index[index <= mirror]
    pairs = reps[reps != mirror[reps]]
    basis = np.eye(2**n)
    d = np.where(reps == mirror[reps], np.sqrt(0.5), 1.0)
    even = (h @ (basis[:, reps] + basis[:, mirror[reps]]))[reps] * d[:, None] * d[None, :]
    odd = (h @ (basis[:, pairs] - basis[:, mirror[pairs]]))[pairs]
    for block in (even, odd):
        assert np.array_equal(block, block.conj().T)
    return even, odd


def real_form(h: np.ndarray) -> np.ndarray:
    """Real symmetric form of a complex ``h`` with ``R h R == conj(h)``, from explicit states.

    The states, in ascending ``s <= R s``: ``(|s> + |R s>) / sqrt 2``, or
    ``|p>`` for a palindrome, then ``i (|s> - |R s>) / sqrt 2`` for each
    ``s`` with ``s != R s``. The matrix is ``U^H h U / 2`` for the
    unnormalized columns ``u = |s> + |R s>`` (``2 |p>`` for a palindrome)
    and ``i (|s> - |R s>)``, scaled by ``d_a d_b`` with ``d`` ``sqrt(1/2)``
    at a palindrome, 1 elsewhere, rows first. Each entry of ``U^H h U`` adds
    two exact sums of two exact products, which ``R h R == conj(h)`` makes
    conjugates or negated conjugates of each other, so its imaginary part
    cancels exactly and any summation order gives the same float. The form
    is asserted exactly symmetric.
    """
    n = h.shape[0].bit_length() - 1
    index = np.arange(2**n)
    mirror = bit_reversal(n)
    reps = index[index <= mirror]
    pairs = reps[reps != mirror[reps]]
    basis = np.eye(2**n)
    states = np.hstack([basis[:, reps] + basis[:, mirror[reps]],
                        1j * (basis[:, pairs] - basis[:, mirror[pairs]])])
    form = states.conj().T @ h @ states / 2
    assert not form.imag.any()
    d = np.concatenate([np.where(reps == mirror[reps], np.sqrt(0.5), 1.0), np.ones(pairs.size)])
    form = form.real * d[:, None] * d[None, :]
    assert np.array_equal(form, form.T)
    return form


def min_connected_superset_size(sites: set, box_lo, box_hi) -> int:
    """Brute-force smallest connected superset within a box (subset bitmask scan)."""
    cells = list(itertools.product(*(range(lo, hi + 1) for lo, hi in zip(box_lo, box_hi))))
    best = None
    for r in range(len(sites), len(cells) + 1):
        for combo in itertools.combinations(cells, r):
            chosen = set(combo)
            if not sites <= chosen:
                continue
            if _connected(chosen):
                best = r
                break
        if best is not None:
            break
    return best


def _connected(cells: set) -> bool:
    start = next(iter(cells))
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        for axis in range(len(cur)):
            for step in (-1, 1):
                nb = cur[:axis] + (cur[axis] + step,) + cur[axis + 1 :]
                if nb in cells and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
    return len(seen) == len(cells)


def embed_block(op: np.ndarray, positions, n: int) -> np.ndarray:
    """``op`` on the given MSB-first bit positions of ``n`` qubits, the identity elsewhere.

    Entry ``(a, b)`` is ``op[pattern(a), pattern(b)]`` where ``a`` and ``b``
    agree off ``positions``, and zero elsewhere, each set once.
    """
    index = np.arange(2**n)
    pattern = np.zeros_like(index)
    for p in positions:
        pattern = 2 * pattern + ((index >> (n - 1 - p)) & 1)
    rest = (2**n - 1) & ~sum(1 << (n - 1 - p) for p in positions)
    same_rest = (index[:, None] & rest) == (index[None, :] & rest)
    return np.where(same_rest, op[pattern[:, None], pattern[None, :]], 0)


def loop_assemble(model, volume, boundary) -> np.ndarray:
    """Boundary-pinned Hamiltonian summed entry by entry and bit by bit.

    Terms come in the package's order (orbit representative, then sorted base
    offset) and every entry of a term's block is added, zeros included. A
    diagonal entry instead sums its per-term contributions in ascending
    order, starting from the smallest. So the result must equal the
    vectorized assembly exactly.
    """
    sites = list(volume.sites)
    n = len(sites)
    pos = {s: i for i, s in enumerate(sites)}
    H = np.zeros((2**n, 2**n), dtype=complex)
    diagonal = [[] for _ in range(2**n)]

    def bit(index, site):
        if site in pos:
            return (index >> (n - 1 - pos[site])) & 1
        return 0 if boundary.spin(site) == 1 else 1

    for term in model.terms:
        full = np.diag(term.classical_part).astype(complex) + term.quantum_part
        offsets = sorted(
            {tuple(x - y for x, y in zip(site, sup)) for site in sites for sup in term.support}
        )
        for off in offsets:
            support = [tuple(c + o for c, o in zip(s, off)) for s in term.support]
            if not any(s in pos for s in support):
                continue
            for a in range(2**n):
                for b in range(2**n):
                    if any(bit(a, s) != bit(b, s) for s in sites if s not in support):
                        continue
                    r = c = 0
                    for s in support:
                        r, c = 2 * r + bit(a, s), 2 * c + bit(b, s)
                    if a == b:
                        diagonal[a].append(full[r, c].real)
                    else:
                        H[a, b] += full[r, c]
    for a, values in enumerate(diagonal):
        values.sort()
        total = values[0]
        for value in values[1:]:
            total += value
        H[a, a] = total
    return H


def qr_isometry(rng: np.random.Generator, m: int, dim: int) -> np.ndarray:
    """Q factor of a complex Gaussian (m, dim) matrix: an isometry by dense QR."""
    return np.linalg.qr(rng.standard_normal((m, dim)) + 1j * rng.standard_normal((m, dim)))[0]


def product_basis_decomposition(eigenvectors: np.ndarray, kappa: np.ndarray, isometry: np.ndarray):
    """Weights and unit product-basis vectors, the columns of ``V diag(sqrt kappa) U^T``."""
    vectors = eigenvectors @ (isometry * np.sqrt(kappa)).T
    weights = np.einsum("ij,ij->j", vectors.conj(), vectors).real
    return weights / weights.sum(), vectors / np.sqrt(weights)


def product_vectors(eigenvectors: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """A decomposition's product-basis vectors: the columns of ``V C``, ``C`` its coordinates, normalized."""
    vectors = eigenvectors @ coefficients
    return vectors / np.linalg.norm(vectors, axis=0)


def projector_fidelity(weights: np.ndarray, vectors: np.ndarray, projector: np.ndarray) -> float:
    """``sum_i p_i <phi_i|P|phi_i>``, the projector applied to every vector."""
    quad = np.einsum("ij,ij->j", vectors.conj(), projector @ vectors).real
    return float(np.sum(weights * quad))


def three_fft_decomposition(log_weights: np.ndarray, m: int, seed: int):
    """Weights and unit coefficient columns of ``diag(sqrt kappa) U^T`` by three full FFT passes.

    The dense (dim, m) matrix starts as the identity's first rows; each of
    the three layers scales its columns by a phase diagonal, drawn in order
    from the seeded generator, and FFTs every row.
    """
    rng = np.random.default_rng(seed)
    dim = log_weights.size
    coefficients = np.eye(dim, m, dtype=complex)
    for _ in range(3):
        coefficients *= np.exp(2j * np.pi * rng.random(m))
        np.fft.fft(coefficients, axis=1, norm="ortho", out=coefficients)
    coefficients *= np.exp(0.5 * log_weights)[:, None]
    weights = np.einsum("ij,ij->j", coefficients.conj(), coefficients).real
    coefficients /= np.sqrt(weights)
    return weights / weights.sum(), coefficients
