"""Lattice geometry tests."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from gridfire.grid import Topology, ball, is_even_point, neighbors, skew_map

from conftest import bfs_ball

coords = st.integers(min_value=-200, max_value=200)
points = st.tuples(coords, coords)


def test_cartesian_neighbors_are_unit_l1_sphere():
    assert set(neighbors((0, 0), Topology.CARTESIAN)) == {
        (1, 0), (-1, 0), (0, 1), (0, -1)
    }


def test_strong_neighbors_are_unit_linf_sphere():
    expected = {
        (dx, dy)
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
        if max(abs(dx), abs(dy)) == 1
    }
    assert set(neighbors((0, 0), Topology.STRONG)) == expected


def test_triangular_neighbors_add_one_diagonal_pair():
    cart = set(neighbors((0, 0), Topology.CARTESIAN))
    assert set(neighbors((0, 0), Topology.TRIANGULAR)) == cart | {(1, 1), (-1, -1)}


def test_neighbor_counts():
    for topo, count in [
        (Topology.CARTESIAN, 4),
        (Topology.TRIANGULAR, 6),
        (Topology.STRONG, 8),
    ]:
        assert len(neighbors((3, -7), topo)) == count


def test_neighbors_are_row_major_ordered():
    for topo in Topology:
        ns = neighbors((0, 0), topo)
        assert list(ns) == sorted(ns, key=lambda p: (p[1], p[0]))


@given(points)
def test_no_self_loops_and_symmetry(p):
    for topo in Topology:
        ns = neighbors(p, topo)
        assert p not in ns
        for q in ns:
            assert p in neighbors(q, topo)


@given(points)
def test_sandwich_property(p):
    cart = set(neighbors(p, Topology.CARTESIAN))
    tri = set(neighbors(p, Topology.TRIANGULAR))
    strong = set(neighbors(p, Topology.STRONG))
    assert cart <= tri <= strong


def test_ball_radius_zero():
    assert ball((2, 5), 0, "l1") == {(2, 5)}
    assert ball((2, 5), 0, "linf") == {(2, 5)}


def test_linf_ball_is_square():
    for r in range(5):
        assert len(ball((0, 0), r, "linf")) == (2 * r + 1) ** 2


def test_l1_ball_matches_bfs_oracle_and_closed_form():
    for t in range(7):
        b = ball((0, 0), t, "l1")
        assert b == bfs_ball((0, 0), t, Topology.CARTESIAN)
        assert len(b) == 2 * t * t + 2 * t + 1


def test_linf_ball_matches_bfs_oracle():
    for r in range(5):
        assert ball((1, -2), r, "linf") == bfs_ball((1, -2), r, Topology.STRONG)


def test_skew_map_basics():
    assert skew_map((0, 0)) == (0, 0)
    assert skew_map((1, 0)) == (1, 1)
    assert skew_map((2, 1)) == (3, 1)


def test_skew_image_of_unit_l1_ball():
    image = {skew_map(p) for p in ball((0, 0), 1, "l1")}
    expected = {q for q in ball((0, 0), 1, "linf") if is_even_point(q)}
    assert image == {(0, 0), (1, 1), (-1, -1), (1, -1), (-1, 1)} == expected


@given(points, points)
def test_skew_turns_l1_distance_into_linf_distance(p, q):
    d1 = abs(p[0] - q[0]) + abs(p[1] - q[1])
    sp, sq = skew_map(p), skew_map(q)
    dinf = max(abs(sp[0] - sq[0]), abs(sp[1] - sq[1]))
    assert d1 == dinf


@given(points)
def test_skew_lands_on_even_points(p):
    assert is_even_point(skew_map(p))


@pytest.mark.parametrize("radius, metric, message", [
    (-1, "l1", "radius must be nonnegative"),
    (1, "l2", "unknown metric: 'l2'"),
], ids=["radius-minus-1", "metric-l2"])
def test_ball_rejects_bad_arguments(radius, metric, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        ball((0, 0), radius, metric)
