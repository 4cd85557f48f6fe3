import itertools
import random

import pytest

import spinaep as sa
from spinaep.errors import CapabilityError, QubitCapError

from oracles import min_connected_superset_size


class TestBuildVolumes:
    def test_hypercube_1d(self):
        vol = sa.build_hypercube(1, 1)
        assert vol.sites == ((-1,), (0,), (1,))
        assert vol.n_sites == 3

    def test_degenerate_cube(self):
        vol = sa.build_hypercube(0, 3)
        assert vol.sites == ((0, 0, 0),)

    def test_counting_identity(self):
        vol = sa.build_hypercube(1, 2, max_qubits=16)
        assert vol.n_sites == 9
        for n, d in [(0, 1), (1, 1), (2, 1), (1, 3)]:
            v = sa.build_hypercube(n, d, max_qubits=64)
            assert v.n_sites == (2 * n + 1) ** d
            assert len(set(v.sites)) == v.n_sites

    def test_cap_error_names_cap(self):
        with pytest.raises(QubitCapError, match="12"):
            sa.build_hypercube(6, 1)

    def test_lexicographic_order(self):
        vol = sa.build_box((0, 0), (1, 1), max_qubits=4)
        assert vol.sites == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert vol.index_of((0, 1)) == 1

    def test_chain(self):
        vol = sa.chain(4)
        assert vol.sites == ((0,), (1,), (2,), (3,))


class TestDiameter:
    def test_pair(self):
        assert sa.linf_diameter([(0, 0), (1, 2)]) == 2

    def test_singleton(self):
        assert sa.linf_diameter([(3, -1)]) == 0

    def test_1d(self):
        assert sa.linf_diameter([(0,), (5,)]) == 5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sa.linf_diameter([])

    def test_matches_pairwise_max(self):
        rng = random.Random(7)
        for _ in range(30):
            d = rng.choice((1, 2, 3))
            pts = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(rng.randint(1, 5))]
            brute = max(
                max(abs(a - b) for a, b in zip(p, q)) for p in pts for q in pts
            )
            assert sa.linf_diameter(pts) == brute


class TestConnectedSpan:
    def test_singleton(self):
        assert sa.connected_span_size([(0,)]) == 1

    def test_1d_gap(self):
        assert sa.connected_span_size([(0,), (2,)]) == 3

    def test_2d_diagonal(self):
        size = sa.connected_span_size([(0, 0), (1, 1)])
        assert size == 3
        assert size == min_connected_superset_size({(0, 0), (1, 1)}, (0, 0), (1, 1))

    def test_translation_invariance(self):
        pts = [(0, 0), (2, 1)]
        shifted = [tuple(c + 5 for c in p) for p in pts]
        assert sa.connected_span_size(pts) == sa.connected_span_size(shifted)

    def test_matches_brute_force_small_sets(self):
        rng = random.Random(11)
        for _ in range(12):
            d = rng.choice((1, 2))
            cells = list(itertools.product(*(range(3) for _ in range(d))))
            pts = set(rng.sample(cells, rng.randint(1, 3)))
            lo = tuple(min(p[i] for p in pts) for i in range(d))
            hi = tuple(max(p[i] for p in pts) for i in range(d))
            assert sa.connected_span_size(pts) == min_connected_superset_size(pts, lo, hi)

    def test_equals_size_iff_connected(self):
        assert sa.connected_span_size([(0,), (1,), (2,)]) == 3
        assert sa.connected_span_size([(0, 0), (0, 1)]) == 2
        assert sa.connected_span_size([(0,), (3,)]) == 4

    def test_capability_bound(self):
        with pytest.raises(CapabilityError):
            sa.connected_span_size([(0, 0), (9, 9)])


class TestBoundaryEnvelope:
    def test_1d_shell(self):
        vol = sa.build_hypercube(1, 1)
        assert sa.boundary_envelope(vol, 1) == {(-2,), (2,)}

    def test_1d_shell_r2(self):
        vol = sa.build_hypercube(1, 1)
        assert sa.boundary_envelope(vol, 2) == {(-3,), (-2,), (2,), (3,)}

    def test_zero_range(self):
        vol = sa.build_hypercube(2, 1)
        assert sa.boundary_envelope(vol, 0) == frozenset()

    def test_disjoint_and_within_range(self):
        vol = sa.build_box((0, 0), (1, 2), max_qubits=6)
        env = sa.boundary_envelope(vol, 2)
        assert env.isdisjoint(vol.sites)
        for site in env:
            assert min(
                max(abs(a - b) for a, b in zip(site, s)) for s in vol.sites
            ) <= 2


class TestConfiguration:
    def test_values_validated(self):
        with pytest.raises(ValueError):
            sa.Configuration({(0,): 2})

    def test_spin_lookup_and_missing(self):
        cfg = sa.Configuration({(0,): 1, (1,): -1})
        assert cfg.spin((1,)) == -1
        with pytest.raises(ValueError):
            cfg.spin((2,))

    def test_merge_conflict(self):
        a = sa.Configuration({(0,): 1})
        b = sa.Configuration({(0,): -1})
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_union(self):
        a = sa.Configuration({(0,): 1})
        b = sa.Configuration({(1,): -1})
        assert a.merge(b).values == {(0,): 1, (1,): -1}
