import itertools
import random
import re

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

    def test_whole_box_is_the_minimum(self):
        # the one extra site is the whole rest of the box: no proper subset of the extras connects
        assert sa.connected_span_size([(0, 0), (0, 2)]) == 3
        assert min_connected_superset_size({(0, 0), (0, 2)}, (0, 0), (0, 2)) == 3

    def test_capability_bound(self):
        message = "bounding box has 100 sites, beyond the search bound of 16"
        with pytest.raises(CapabilityError, match=re.escape(message)):
            sa.connected_span_size([(0, 0), (9, 9)])

    @pytest.mark.parametrize("sites, message", [
        ([], "connected span of an empty site set is undefined"),
        ([(0, 0), (1,)], "sites have inconsistent dimensions"),
    ], ids=["empty", "mixed-d"])
    def test_refused(self, sites, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            sa.connected_span_size(sites)


class TestRefusedVolumes:
    @pytest.mark.parametrize("build, message", [
        (lambda: sa.build_box((0, 0), (1, -1)), "empty box: lo=(0, 0) hi=(1, -1)"),
        (lambda: sa.build_box((0, 0), (1,)), "site (1,) has dimension 1, expected 2"),
        (lambda: sa.build_hypercube(-1, 1), "n must be >= 0, got -1"),
        (lambda: sa.build_hypercube(1, 0), "d must be >= 1, got 0"),
        (lambda: sa.chain(0), "length must be >= 1, got 0"),
        (lambda: sa.Volume(sites=(), d=1), "a volume must contain at least one site"),
        (lambda: sa.Volume(sites=((0,), (0, 1)), d=1), "site (0, 1) has dimension 2, expected 1"),
    ], ids=["empty-box", "box-corners-of-two-d", "negative-n", "zero-d", "empty-chain",
            "empty-volume", "volume-mixed-d"])
    def test_refused_with_its_message(self, build, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()
