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

    @pytest.mark.parametrize("sites, size", [([(0,), (16,)], 17), ([(-40,), (3,), (60,)], 101)],
                             ids=["diameter 16", "three far apart"])
    def test_1d_is_the_spanned_interval_at_any_diameter(self, sites, size):
        # boxes past the 16 sites of the exhaustive search, which d = 1 does not need
        assert sa.connected_span_size(sites) == size

    def test_capability_bound(self):
        with pytest.raises(CapabilityError):
            sa.connected_span_size([(0, 0), (9, 9)])
