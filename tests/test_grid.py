import dataclasses
import itertools

import numpy as np
import pytest

from bpgm import geodesic_dist, torus_grid
from bpgm.grid import dist_to_point


def test_torus_grid_basic():
    g = torus_grid(1, 300)
    assert (g.dim, g.n, g.size) == (1, 300, 300)
    assert g.points.shape == (300, 1)
    assert g.spacing == 1.0 / 300
    assert g.weights == 1.0 / 300


def test_torus_grid_2d_size():
    g = torus_grid(2, 20)
    assert g.size == 400
    assert g.points.shape == (400, 2)
    assert g.weights * g.size == pytest.approx(1.0)


@pytest.mark.parametrize("dim", [0, 4])
def test_torus_grid_rejects_bad_dim(dim):
    with pytest.raises(ValueError):
        torus_grid(dim, 10)


@pytest.mark.parametrize("dim,n", [(1, 300.5), (1.0, 50), (True, 50), (1, True), (1, "50")],
                         ids=("float-n", "float-dim", "bool-dim", "bool-n", "str-n"))
def test_torus_grid_rejects_sizes_that_are_not_integers(dim, n):
    # 300.5 used to give a grid of size 300.5 with 301 points, and True
    # passed as d = 1.
    with pytest.raises(ValueError, match="must be an integer"):
        torus_grid(dim, n)


def test_torus_grid_takes_numpy_integers():
    assert torus_grid(np.int64(2), np.int32(5)).size == 25


@pytest.mark.parametrize("dim,n", [(1, 7), (2, 5), (3, 4)])
def test_points_are_the_index_lattice(dim, n):
    # Index tuples in lexicographic order (last axis fastest), each
    # coordinate j / n: the lattice bit for bit, in the order the Kronecker
    # feature factors assume.
    expect = np.array(list(itertools.product(range(n), repeat=dim))) / n
    assert np.array_equal(torus_grid(dim, n).points, expect)


def test_grid_arrays_read_only():
    g = torus_grid(1, 10)
    with pytest.raises(ValueError):
        g.points[0] = 0.5
    assert g.points is g.points
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.n = 20


def test_grid_weights_are_one_over_the_size():
    # The measure is uniform by construction: one cell weight derived
    # from the size, at sizes where m copies of it do not sum to 1 exactly.
    for g in (torus_grid(1, 7), torus_grid(2, 3), torus_grid(3, 11), torus_grid(1, 999)):
        assert isinstance(g.weights, float)
        assert g.weights == 1.0 / g.size


def test_grid_rejects_empty_point_set():
    with pytest.raises(ValueError, match="at least one point"):
        torus_grid(1, 0)


def test_geodesic_dist_wraps():
    # 0.1 and 0.9 are 0.2 apart through the seam, not 0.8
    assert geodesic_dist(np.array([0.1]), np.array([0.9])) == pytest.approx(0.2)
    assert geodesic_dist(np.array([0.3]), np.array([0.3])) == 0.0
    assert torus_grid(1, 100).diameter == pytest.approx(0.5)


def test_geodesic_dist_2d_is_euclidean_of_wraps():
    a = np.array([0.1, 0.9])
    b = np.array([0.9, 0.1])
    # per-axis wrapped distances are both 0.2
    assert geodesic_dist(a, b) == pytest.approx(np.hypot(0.2, 0.2))


def test_dist_to_point_matches_pairwise():
    g = torus_grid(1, 50)
    center = np.array([0.37])
    d = dist_to_point(g, center)
    for j in (0, 13, 49):
        assert d[j] == pytest.approx(geodesic_dist(g.points[j], center))
