"""Discretized flat tori and densities on them.

Every domain is the unit flat torus T^d, side length 1 with opposite
faces identified; the circle S^1 with arc length is T^1 scaled by
2*pi. A Grid carries the sample points of a uniform lattice; the
quadrature weights w of the normalized reference measure are all 1/m,
so that sum(w * f) approximates (and for trigonometric polynomials
equals) the integral of f. A density on a grid is its value array f,
one float per lattice point: its mass is sum(w * f) and its total
variation norm sum(w * |f|).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform lattice on the unit flat torus T^d.

    Attributes
    ----------
    dim : int
        Dimension d.
    points : ndarray, shape (m, dim)
        Lattice coordinates in [0, 1).
    spacing : float
        Lattice spacing along one axis.
    """

    dim: int
    points: np.ndarray
    spacing: float

    def __post_init__(self):
        if self.points.ndim != 2 or self.points.shape[1] != self.dim:
            raise ValueError("points must have shape (m, dim)")
        if self.points.shape[0] == 0:
            raise ValueError("a grid needs at least one point")
        # Shared read-only state: grids are passed around freely.
        self.points.flags.writeable = False

    @property
    def size(self):
        return self.points.shape[0]

    @cached_property
    def weights(self):
        """Quadrature weights of the normalized uniform measure, all 1/m
        (read-only)."""
        weights = np.full(self.size, 1.0 / self.size)
        weights.flags.writeable = False
        return weights

    @property
    def diameter(self):
        """Largest geodesic distance between two points of the domain."""
        return 0.5 * np.sqrt(self.dim)


def torus_grid(dim, n):
    """Uniform n^dim lattice on the unit torus T^dim.

    Parameters
    ----------
    dim : int
        Dimension, 1 to 3.
    n : int
        Points per axis; the grid has m = n**dim points with weights 1/m.
    """
    if dim not in (1, 2, 3):
        raise ValueError(f"torus dimension must be 1, 2 or 3, got {dim}")
    if n < 1:
        raise ValueError(f"need at least one point per axis, got n={n}")
    axis = np.arange(n) / n
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    points = np.stack([c.ravel() for c in mesh], axis=1)
    return Grid(dim, points, 1.0 / n)


def geodesic_dist(x, y):
    """Geodesic distance between points of the torus.

    x and y are coordinate arrays broadcastable to a common shape
    (..., dim); returns distances of shape (...,). Each axis wraps with
    period 1.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    diff = np.abs(x - y) % 1.0
    diff = np.minimum(diff, 1.0 - diff)
    return np.sqrt(np.sum(diff**2, axis=-1))


def dist_to_point(grid, center):
    """Distances from every grid point to `center`, shape (m,)."""
    center = np.asarray(center, dtype=float).reshape(1, grid.dim)
    return geodesic_dist(grid.points, center)


def nearest_index(grid, point):
    """Index of the grid point closest to `point`."""
    return int(np.argmin(dist_to_point(grid, point)))


def ball_mass(grid, center, eps):
    """Reference mass of the closed geodesic ball of radius eps.

    Raises if the ball captures no grid point (eps below the lattice
    resolution near `center`).
    """
    if eps <= 0:
        raise ValueError(f"ball radius must be positive, got {eps}")
    mass = float(np.sum(grid.weights[dist_to_point(grid, center) <= eps]))
    if mass == 0.0:
        raise ValueError(
            f"ball of radius {eps} around {center} contains no grid point "
            f"(spacing {grid.spacing})"
        )
    return mass


def dirac_density(grid, point, weight=1.0):
    """Grid Dirac: the value array with all mass `weight` at the lattice
    point nearest to `point`."""
    values = np.zeros(grid.size)
    j = nearest_index(grid, point)
    values[j] = weight / grid.weights[j]
    return values
