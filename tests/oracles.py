"""Independent oracle implementations used by the test suite.

Everything here deliberately avoids the package's assembly and log-domain
paths: Hamiltonians come from explicit Kronecker chains, entropies from
exhaustive configuration enumeration, typical windows from plain loops,
decomposition fidelities from dense product-basis vectors and projectors.
"""

import itertools

import numpy as np

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


def index_spins(sites, index: int) -> dict:
    """Spin at each site of a basis index: first site = most significant bit, bit 0 = spin +1."""
    n = len(sites)
    return {site: 1 - 2 * ((index >> (n - 1 - pos)) & 1) for pos, site in enumerate(sites)}


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


def loop_assemble(model, volume, boundary) -> np.ndarray:
    """Boundary-pinned Hamiltonian summed entry by entry and bit by bit.

    Terms come in the package's order (orbit representative, then sorted base
    offset) and every entry of a term's block is added, zeros included, so
    the result must equal the vectorized assembly exactly.
    """
    sites = list(volume.sites)
    n = len(sites)
    pos = {s: i for i, s in enumerate(sites)}
    H = np.zeros((2**n, 2**n), dtype=complex)

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
                    H[a, b] += full[r, c]
    return H


def qr_isometry(rng: np.random.Generator, m: int, dim: int) -> np.ndarray:
    """Q factor of a complex Gaussian (m, dim) matrix: an isometry by dense QR."""
    return np.linalg.qr(rng.standard_normal((m, dim)) + 1j * rng.standard_normal((m, dim)))[0]


def product_basis_decomposition(eigenvectors: np.ndarray, kappa: np.ndarray, isometry: np.ndarray):
    """Weights and unit product-basis vectors, the columns of ``V diag(sqrt kappa) U^T``."""
    vectors = eigenvectors @ (isometry * np.sqrt(kappa)).T
    weights = np.einsum("ij,ij->j", vectors.conj(), vectors).real
    return weights / weights.sum(), vectors / np.sqrt(weights)


def projector_fidelity(weights: np.ndarray, vectors: np.ndarray, projector: np.ndarray) -> float:
    """``sum_i p_i <phi_i|P|phi_i>``, the projector applied to every vector."""
    quad = np.einsum("ij,ij->j", vectors.conj(), projector @ vectors).real
    return float(np.sum(weights * quad))
