import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import spinaep as sa
from spinaep import checks, gibbs

EXHIBIT = {"J": 1.0, "h": 0.5, "lam": 0.2, "beta": 2.0, "delta": 0.15}
EXHIBIT_SIZES = (4, 6, 8, 10)
# (J, h, lam, beta) of the five-site grid ensembles
GRID_POINTS = tuple(itertools.product((0.0, 1.0), (0.0, 0.5), (0.0, 0.2, 0.35), (0.5, 2.0)))


def record_solves(monkeypatch) -> list[np.ndarray]:
    """Copies of the matrices the values-only solves are given, each taken before its solve.

    Every solve goes to ``gibbs._eigvalsh_lower``, which overwrites its input.
    """
    calls, solve = [], gibbs._eigvalsh_lower

    def recording(a):
        calls.append(np.array(a))
        return solve(a)

    monkeypatch.setattr(gibbs, "_eigvalsh_lower", recording)
    return calls


def traced_peak(call):
    """``call()``'s value and the peak bytes tracemalloc traced while it ran.

    Tracing stops whether or not ``call`` raises.
    """
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# numpy's LAPACK exports the symbols the in-place solve looks for
IN_PLACE = pytest.mark.skipif(gibbs._lapack_solver(np.dtype(float)) is None,
                              reason="numpy's LAPACK lacks scipy_dsyevd_64_")

RSS_SCRIPT = """
import sys
import spinaep as sa


def peak():
    with open("/proc/self/status", encoding="ascii") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))


exec(sys.argv[1])
before = peak()
sa.diagonalize(rows)
print(peak() - before)
"""


def rss_growth(setup: str) -> int:
    """Bytes by which ``diagonalize(rows)`` raises the peak RSS of a fresh interpreter.

    ``setup`` holds the statements that build ``rows``, run at one BLAS
    thread with ``spinaep`` imported as ``sa``, and nothing else: a setup
    that imports more, such as a test module, leaves a higher peak behind,
    and the solve's growth hides under it. The peak is Linux's ``VmHWM``, that of the child's own memory:
    its ``ru_maxrss`` starts at the peak of the process that forked it,
    which under pytest is far above a solve of 11 sites. tracemalloc does
    not see the solve buffers, which are mapped outside numpy's
    allocator, nor a copy that LAPACK's caller mallocs itself; the peak RSS
    sees both.
    """
    if not sys.platform.startswith("linux"):
        pytest.skip("VmHWM is read from Linux's /proc")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(Path(sa.__file__).parents[1]), *sys.path]))
    out = subprocess.run([sys.executable, "-c", RSS_SCRIPT, setup],
                         env=env, capture_output=True, text=True, check=True)
    return 1024 * int(out.stdout.split()[-1])


def record_buffers(monkeypatch) -> list[tuple[tuple[int, ...], weakref.ref]]:
    """The shape of each solve buffer and a weak reference to it, in allocation order."""
    buffers, allocate = [], gibbs.untouched_zeros

    def recording(shape, dtype):
        buffer = allocate(shape, dtype)
        buffers.append((buffer.shape, weakref.ref(buffer)))
        return buffer

    monkeypatch.setattr(gibbs, "untouched_zeros", recording)
    return buffers


@pytest.fixture
def eigvalsh_calls(monkeypatch) -> list[np.ndarray]:
    """Copies of the matrices the values-only solves are given during the test."""
    return record_solves(monkeypatch)


def as_rows(h: np.ndarray) -> sa.HamiltonianRows:
    """The generator of an exactly Hermitian ``h`` of ``2^n`` states: one block on all of an ``n``-site chain."""
    volume = sa.chain(h.shape[0].bit_length() - 1)
    return sa.HamiltonianRows(volume, [(h, volume.sites)])


def chain_rows(n_sites: int, J: float, h: float, lam: float,
               boundary_spin: int = 1) -> sa.HamiltonianRows:
    volume = sa.chain(n_sites)
    boundary = sa.GroundStateConfig.uniform(1, boundary_spin)
    return sa.hamiltonian_rows(sa.preset_tfim(J, h, lam), volume, boundary)


def chain_hamiltonian(n_sites: int, J: float, h: float, lam: float,
                      boundary_spin: int = 1) -> np.ndarray:
    return chain_rows(n_sites, J, h, lam, boundary_spin).dense()


def dense_ensemble(h: np.ndarray, beta: float) -> tuple[sa.GibbsEnsemble, np.ndarray]:
    """Ensemble and eigenvectors through the eigenpair route of ``spinaep check``."""
    return checks._ensemble(h, beta)


def chain_ensemble(n_sites: int, J: float, h: float, lam: float, beta: float,
                   boundary_spin: int = 1) -> sa.GibbsEnsemble:
    return sa.gibbs_ensemble(sa.diagonalize(chain_rows(n_sites, J, h, lam, boundary_spin)), beta)


@pytest.fixture(scope="session")
def exhibit_ensembles() -> dict[int, sa.GibbsEnsemble]:
    """Pinned-boundary transverse-field Ising chains at the exhibit parameters."""
    return {
        n: chain_ensemble(n, EXHIBIT["J"], EXHIBIT["h"], EXHIBIT["lam"], EXHIBIT["beta"])
        for n in EXHIBIT_SIZES
    }


@pytest.fixture(scope="session")
def warm_ensembles() -> dict[int, sa.GibbsEnsemble]:
    """The exhibit chains at beta = 0.5, where the AEP trends show."""
    return {
        n: chain_ensemble(n, EXHIBIT["J"], EXHIBIT["h"], EXHIBIT["lam"], 0.5)
        for n in EXHIBIT_SIZES
    }


@pytest.fixture(scope="session")
def grid_ensembles() -> list[sa.GibbsEnsemble]:
    """24 five-site ensembles across couplings, fields, and temperatures."""
    return [chain_ensemble(5, J, h, lam, beta) for J, h, lam, beta in GRID_POINTS]


# supports of diameter 1: a site, bonds along each axis and, in d = 2, a corner
SUPPORTS = {
    1: [((0,),), ((0,), (1,))],
    2: [((0, 0),), ((0, 0), (1, 0)), ((0, 0), (0, 1)), ((0, 0), (0, 1), (1, 0))],
}
COUPLING = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def generic_models(draw) -> tuple[sa.Interaction, sa.Volume, sa.GroundStateConfig]:
    """Random models of at most 6 qubits in d = 1 or d = 2, with complex
    quantum parts and a random period cell as the boundary."""
    d = draw(st.sampled_from((1, 2)))
    if d == 1:
        volume = sa.chain(draw(st.integers(1, 6)))
    else:
        volume = sa.build_box((0, 0), (draw(st.integers(0, 2)), draw(st.integers(0, 1))))
    terms = []
    for support in draw(st.lists(st.sampled_from(SUPPORTS[d]), min_size=1, max_size=3)):
        k = 1 << len(support)
        classical = np.array(draw(st.lists(COUPLING, min_size=k, max_size=k)))
        parts = np.array(draw(st.lists(COUPLING, min_size=2 * k * k, max_size=2 * k * k)))
        quantum = (parts[:k * k] + 1j * parts[k * k:]).reshape(k, k)
        terms.append(sa.LocalTerm(support, classical, quantum + quantum.conj().T))
    periods = tuple(draw(st.integers(1, 2)) for _ in range(d))
    cell = tuple(draw(st.sampled_from([1, -1])) for _ in range(math.prod(periods)))
    return sa.Interaction(terms=tuple(terms), lam=0.5), volume, sa.GroundStateConfig(periods, cell)
