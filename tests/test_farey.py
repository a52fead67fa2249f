import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brickforge.farey import (
    INFINITY,
    Slope,
    enumerate_slopes,
    farey_bfs_distance,
    farey_geodesic_slopes,
    slope_intersection,
    slopes_adjacent,
)

ZERO = Slope(0, 1)


class TestSlope:
    def test_normalization(self):
        assert Slope(2, 4) == Slope(1, 2)
        assert Slope(-3, -6) == Slope(1, 2)
        assert Slope(3, -6) == Slope(-1, 2)
        assert Slope(-2, 0) == INFINITY
        assert Slope(0, -5) == ZERO

    def test_zero_over_zero_rejected(self):
        with pytest.raises(ValueError):
            Slope(0, 0)

    def test_parse_round_trip(self):
        for text in ("0/1", "1/0", "-3/5", "7/2"):
            p, q = text.split("/")
            assert str(Slope(int(p), int(q))) == text


class TestIntersection:
    def test_known_values(self):
        cases = {
            (Slope(0, 1), Slope(1, 0)): 1,
            (Slope(0, 1), Slope(1, 1)): 1,
            (Slope(0, 1), Slope(1, 2)): 1,
            (Slope(1, 2), Slope(1, 0)): 2,
            (Slope(2, 3), Slope(2, 3)): 0,
            (Slope(3, 5), Slope(2, 3)): 1,
        }
        for (a, b), expected in cases.items():
            assert slope_intersection(a, b) == expected
            assert slope_intersection(b, a) == expected

    def test_doubling(self):
        assert slope_intersection(ZERO, INFINITY, doubled=True) == 2
        assert slope_intersection(Slope(1, 2), INFINITY, doubled=True) == 4

    def test_adjacency(self):
        assert slopes_adjacent(ZERO, INFINITY)
        assert slopes_adjacent(ZERO, Slope(1, 1))
        assert slopes_adjacent(ZERO, Slope(1, 2))
        assert not slopes_adjacent(ZERO, Slope(2, 1))
        assert not slopes_adjacent(Slope(1, 2), Slope(1, 0))


class TestEnumeration:
    def test_count_and_reduced(self):
        slopes = list(enumerate_slopes(3))
        assert len(slopes) == len(set(slopes))
        for s in slopes:
            assert math.gcd(s.p, s.q) == 1
        assert INFINITY in slopes and ZERO in slopes


class TestGeodesic:
    def test_trivial_and_edge(self):
        assert farey_geodesic_slopes(ZERO, ZERO) == [ZERO]
        assert farey_geodesic_slopes(ZERO, INFINITY) == [ZERO, INFINITY]

    def test_known_path(self):
        path = farey_geodesic_slopes(ZERO, Slope(3, 5))
        assert path[0] == ZERO and path[-1] == Slope(3, 5)
        assert len(path) - 1 == farey_bfs_distance(ZERO, Slope(3, 5), 10)

    def test_consecutive_adjacency(self):
        path = farey_geodesic_slopes(Slope(-2, 7), Slope(5, 3))
        for a, b in zip(path, path[1:]):
            assert slopes_adjacent(a, b)

    def test_matches_bfs_oracle_on_window(self):
        window = [s for s in enumerate_slopes(5)]
        for u in window[::7]:
            for w in window[::5]:
                d = farey_bfs_distance(u, w, 10)
                path = farey_geodesic_slopes(u, w)
                assert len(path) - 1 == d

    @settings(max_examples=60, deadline=None)
    @given(
        st.tuples(st.integers(-9, 9), st.integers(0, 9)).filter(lambda t: t != (0, 0)),
        st.tuples(st.integers(-9, 9), st.integers(0, 9)).filter(lambda t: t != (0, 0)),
    )
    def test_geodesic_properties(self, t1, t2):
        u, w = Slope(*t1), Slope(*t2)
        path = farey_geodesic_slopes(u, w)
        assert path[0] == u and path[-1] == w
        assert len(path) == len(set(path))
        for a, b in zip(path, path[1:]):
            assert slopes_adjacent(a, b)
