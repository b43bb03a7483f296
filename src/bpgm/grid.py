"""Discretized periodic domains (flat torus, circle) and densities on them.

A Grid carries the sample points of a uniform lattice; the quadrature
weights w of the normalized reference measure are all 1/m, so that
sum(w * f) approximates (and for trigonometric polynomials equals)
the integral of f. A density on a grid is its value array f, one float
per lattice point: its mass is sum(w * f) and its total variation norm
sum(w * |f|).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Grid:
    """Uniform lattice on the unit flat torus T^d or the circle S^1.

    Attributes
    ----------
    kind : str
        "torus" (side length 1, opposite faces identified) or "circle"
        (angles in [0, 2*pi), arc-length metric).
    dim : int
        Intrinsic dimension. Always 1 for the circle.
    points : ndarray, shape (m, dim)
        Lattice coordinates. Torus coordinates live in [0, 1); circle
        points are angles in [0, 2*pi).
    spacing : float
        Lattice spacing along one axis.
    """

    kind: str
    dim: int
    points: np.ndarray
    spacing: float

    def __post_init__(self):
        if self.kind not in ("torus", "circle"):
            raise ValueError(f"unknown grid kind {self.kind!r}")
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
    def period(self):
        return 1.0 if self.kind == "torus" else TWO_PI

    @property
    def diameter(self):
        """Largest geodesic distance between two points of the domain."""
        if self.kind == "torus":
            return 0.5 * np.sqrt(self.dim)
        return np.pi


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
    return Grid("torus", dim, points, 1.0 / n)


def circle_grid(m):
    """Uniform m-point lattice on S^1, angles 2*pi*i/m."""
    if m < 1:
        raise ValueError(f"need at least one point, got m={m}")
    points = (TWO_PI * np.arange(m) / m).reshape(-1, 1)
    return Grid("circle", 1, points, TWO_PI / m)


def geodesic_dist(grid, x, y):
    """Geodesic distance between points of the domain.

    x and y are coordinate arrays broadcastable to a common shape
    (..., dim); returns distances of shape (...,). On the torus each
    axis wraps with period 1, on the circle the angle wraps with
    period 2*pi and distance is arc length.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    diff = np.abs(x - y) % grid.period
    diff = np.minimum(diff, grid.period - diff)
    if grid.kind == "torus":
        return np.sqrt(np.sum(diff**2, axis=-1))
    return np.sum(diff, axis=-1)  # dim == 1, arc length


def dist_to_point(grid, center):
    """Distances from every grid point to `center`, shape (m,)."""
    center = np.asarray(center, dtype=float).reshape(1, grid.dim)
    return geodesic_dist(grid, grid.points, center)


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
