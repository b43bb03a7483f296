"""Discretized flat tori and densities on them.

Every domain is the unit flat torus T^d, side length 1 with opposite
faces identified; the circle S^1 with arc length is T^1 scaled by
2*pi. A Grid is the uniform n^d lattice on it, and everything else
follows from (d, n): m = n^d points, spacing 1/n, and one cell weight
w = 1/m of the normalized reference measure, so that sum(w * f)
approximates (and for trigonometric polynomials equals) the integral
of f. A density on a grid is its value array f, one float per lattice
point: its mass is sum(w * f) and its total variation norm
sum(w * |f|).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform n^dim lattice on the unit flat torus T^dim; build it with
    `torus_grid`, which validates (dim, n).

    Attributes
    ----------
    dim : int
        Dimension d.
    n : int
        Points per axis.
    """

    dim: int
    n: int

    @property
    def size(self):
        return self.n**self.dim

    @property
    def spacing(self):
        """Lattice spacing along one axis."""
        return 1.0 / self.n

    @property
    def weights(self):
        """The cell weight 1/m of the normalized uniform measure: one
        scalar, the same at every point."""
        return 1.0 / self.size

    @property
    def diameter(self):
        """Largest geodesic distance between two points of the domain."""
        return 0.5 * np.sqrt(self.dim)

    @cached_property
    def points(self):
        """Lattice coordinates in [0, 1), shape (m, dim), the last axis
        fastest (read-only: grids are passed around freely)."""
        axis = np.arange(self.n) / self.n
        mesh = np.meshgrid(*([axis] * self.dim), indexing="ij")
        points = np.stack([c.ravel() for c in mesh], axis=1)
        points.flags.writeable = False
        return points


def torus_grid(dim, n):
    """Uniform n^dim lattice on the unit torus T^dim.

    Parameters
    ----------
    dim : int
        Dimension, 1 to 3.
    n : int
        Points per axis; the grid has m = n**dim points of weight 1/m.
    """
    for name, value in (("dimension", dim), ("points per axis", n)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"torus {name} must be an integer, got {value!r}")
    if dim not in (1, 2, 3):
        raise ValueError(f"torus dimension must be 1, 2 or 3, got {dim}")
    if n < 1:
        raise ValueError(f"need at least one point per axis, got n={n}")
    return Grid(dim, n)


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
