"""Lattice geometry: sites of Z^d, finite volumes, metrics, and the spin-to-bit convention.

Sites are plain tuples of ints, one tuple per lattice point, so everything in
this module is hashable and safe to share between threads. Volumes carry the
fixed lexicographic site enumeration used for tensor indexing everywhere else.
A spin assignment is a function of the site returning +1 or -1; nothing here
stores one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import CapabilityError, QubitCapError

Site = tuple[int, ...]

DEFAULT_QUBIT_CAP = 12
MAX_SPAN_SEARCH_SITES = 16

# Bit convention for the product basis: spin +1 maps to bit 0, spin -1 to bit 1.
SPIN_UP = 1
SPIN_DOWN = -1


def spin_to_bit(spin: int) -> int:
    if spin == SPIN_UP:
        return 0
    if spin == SPIN_DOWN:
        return 1
    raise ValueError(f"spin must be +1 or -1, got {spin!r}")


def _is_int(value) -> bool:
    """Whether ``value`` is an int and not a bool: a float or bool equal to an int is not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_site(site: Site, d: int | None = None) -> Site:
    """``site`` as a tuple, refused unless every coordinate is an int (not a bool)."""
    site = tuple(site)
    if not site or not all(_is_int(c) for c in site):
        raise ValueError(f"site must be a nonempty tuple of ints, got {site!r}")
    if d is not None and len(site) != d:
        raise ValueError(f"site {site!r} has dimension {len(site)}, expected {d}")
    return site


@dataclass(frozen=True)
class Volume:
    """A finite set of lattice sites with a fixed lexicographic enumeration.

    The enumeration order defines the tensor-product basis layout: the first
    site in ``sites`` owns the most significant bit of a basis index.
    """

    sites: tuple[Site, ...]
    d: int

    def __post_init__(self) -> None:
        sites = tuple(sorted({_check_site(s, self.d) for s in self.sites}))
        if not sites:
            raise ValueError("a volume must contain at least one site")
        object.__setattr__(self, "sites", sites)

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    @cached_property
    def _positions(self) -> dict[Site, int]:
        return {s: i for i, s in enumerate(self.sites)}

    def index_of(self, site: Site) -> int:
        """Position of ``site`` in the enumeration (0 = most significant bit)."""
        try:
            return self._positions[tuple(site)]
        except KeyError:
            raise ValueError(f"site {site!r} is not in the volume") from None

    def __contains__(self, site: object) -> bool:
        return tuple(site) in self._positions  # type: ignore[arg-type]


def build_box(lo: Site, hi: Site, *, max_qubits: int = DEFAULT_QUBIT_CAP) -> Volume:
    """All sites of the axis-aligned box ``[lo, hi]``, lexicographically ordered."""
    lo = _check_site(lo)
    hi = _check_site(hi, len(lo))
    if any(h < l for l, h in zip(lo, hi)):
        raise ValueError(f"empty box: lo={lo} hi={hi}")
    n_sites = 1
    for l, h in zip(lo, hi):
        n_sites *= h - l + 1
    if n_sites > max_qubits:
        raise QubitCapError(
            f"box {lo}..{hi} has {n_sites} sites, exceeding the qubit cap of {max_qubits}"
        )
    sites = tuple(itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))))
    return Volume(sites=sites, d=len(lo))


def build_hypercube(n: int, d: int, *, max_qubits: int = DEFAULT_QUBIT_CAP) -> Volume:
    """The centered hypercube ``[-n, n]^d``."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return build_box((-n,) * d, (n,) * d, max_qubits=max_qubits)


def chain(length: int, *, max_qubits: int = DEFAULT_QUBIT_CAP) -> Volume:
    """A one-dimensional chain of ``length`` sites at coordinates 0..length-1."""
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    return build_box((0,), (length - 1,), max_qubits=max_qubits)


def _l1_neighbors(site: Site) -> Iterable[Site]:
    for i in range(len(site)):
        for step in (-1, 1):
            yield site[:i] + (site[i] + step,) + site[i + 1 :]


def _is_connected(sites: frozenset[Site]) -> bool:
    it = iter(sites)
    start = next(it)
    seen = {start}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        for nb in _l1_neighbors(cur):
            if nb in sites and nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return len(seen) == len(sites)


def connected_span_size(sites: Iterable[Site]) -> int:
    """Size of the smallest nearest-neighbor connected superset of ``sites``.

    Connectivity is taken in the l1 sense (sites at distance 1 are adjacent).
    In d = 1 it is the interval the sites span. Otherwise a minimal connected
    superset can always be found inside the bounding box, which is searched
    exhaustively; boxes larger than ``MAX_SPAN_SEARCH_SITES`` raise
    :class:`CapabilityError` since the search is only meant for small
    interaction supports.
    """
    pts = frozenset(tuple(s) for s in sites)
    if not pts:
        raise ValueError("connected span of an empty site set is undefined")
    d = len(next(iter(pts)))
    if any(len(p) != d for p in pts):
        raise ValueError("sites have inconsistent dimensions")
    lo = tuple(min(p[i] for p in pts) for i in range(d))
    hi = tuple(max(p[i] for p in pts) for i in range(d))
    if d == 1:
        return hi[0] - lo[0] + 1
    box_size = 1
    for l, h in zip(lo, hi):
        box_size *= h - l + 1
    if box_size > MAX_SPAN_SEARCH_SITES:
        raise CapabilityError(
            f"bounding box has {box_size} sites, beyond the search bound of {MAX_SPAN_SEARCH_SITES}"
        )
    if _is_connected(pts):
        return len(pts)
    extras = sorted(
        set(itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi)))) - pts
    )
    for k in range(1, len(extras) + 1):
        for combo in itertools.combinations(extras, k):
            if _is_connected(pts | frozenset(combo)):
                return len(pts) + k
    return box_size  # full box is connected; unreachable in practice
