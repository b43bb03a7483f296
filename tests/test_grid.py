import numpy as np
import pytest

from bpgm import ball_mass, dirac_density, geodesic_dist, torus_grid
from bpgm.grid import Grid, dist_to_point, nearest_index


def test_torus_grid_basic():
    g = torus_grid(1, 300)
    assert g.size == 300
    assert g.points.shape == (300, 1)
    assert g.spacing == pytest.approx(1.0 / 300)
    assert np.sum(g.weights) == pytest.approx(1.0)
    assert np.all(g.weights == g.weights[0])


def test_torus_grid_2d_size():
    g = torus_grid(2, 20)
    assert g.size == 400
    assert g.points.shape == (400, 2)
    assert np.sum(g.weights) == pytest.approx(1.0)


@pytest.mark.parametrize("dim", [0, 4])
def test_torus_grid_rejects_bad_dim(dim):
    with pytest.raises(ValueError):
        torus_grid(dim, 10)


def test_grid_arrays_read_only():
    g = torus_grid(1, 10)
    with pytest.raises(ValueError):
        g.points[0] = 0.5
    with pytest.raises(ValueError):
        g.weights[0] = 0.0


def test_grid_weights_are_one_over_the_size():
    # The measure is uniform by construction: the weights derive from the
    # size, once per grid, at sizes whose weights do not sum to 1 exactly.
    for g in (torus_grid(1, 7), torus_grid(2, 3), torus_grid(3, 11), torus_grid(1, 999)):
        assert np.all(g.weights == 1.0 / g.size)
        assert g.weights is g.weights
    assert Grid(1, np.array([[0.0], [0.5]]), 0.5).weights.tolist() == [0.5, 0.5]


def test_grid_rejects_empty_point_set():
    with pytest.raises(ValueError, match="at least one point"):
        Grid(1, np.empty((0, 1)), 1.0)


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


def test_nearest_index_wraps_around():
    g = torus_grid(1, 100)
    assert nearest_index(g, np.array([0.0])) == 0
    assert nearest_index(g, np.array([0.999])) == 0
    assert nearest_index(g, np.array([0.503])) == 50


def test_ball_mass_counts_closed_ball():
    g = torus_grid(1, 300)
    # radius 0.1 catches indices -30..30: 61 points of weight 1/300
    assert ball_mass(g, np.zeros(1), 0.1) == pytest.approx(61.0 / 300.0)


def test_ball_mass_empty_ball_raises():
    g = torus_grid(1, 10)
    with pytest.raises(ValueError):
        ball_mass(g, np.array([0.05]), 1e-6)


def test_dirac_density_quadrature_mass():
    g = torus_grid(1, 300)
    f = dirac_density(g, np.zeros(1), weight=0.7)
    assert np.sum(g.weights * f) == pytest.approx(0.7)
    assert np.count_nonzero(f) == 1
    # the single cell carries weight / cell volume
    assert np.max(np.abs(f)) == pytest.approx(0.7 * 300)
