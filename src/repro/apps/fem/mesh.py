"""Triangular meshes for the FEM gas-dynamics code (paper §5.2).

The paper's two data sets factor exactly as structured triangulations of
a rectangle:

* small — 46 545 points, 92 160 elements = a 320 x 144 quad grid split
  into triangles (321 x 145 points);
* large — 263 169 points, 524 288 elements = 512 x 512 quads
  (513 x 513 points).

Both have the paper's stated "about two elements to every point" and an
average of six (maximum seven at boundaries handled as fewer) elements
meeting at each point.  A periodic variant (points glued across the
boundary) is provided for conservation tests.

The sizes are closed-form (:func:`rectangle_counts`), so the performance
model never builds a mesh; :func:`rectangle_mesh` materialises one only
for the numerics (solver, diagnostics, tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["TriMesh", "rectangle_counts", "rectangle_mesh", "small_mesh",
           "large_mesh", "SMALL_GRID", "LARGE_GRID"]

#: the paper's small data set as a quad grid: 321 x 145 points
SMALL_GRID = (320, 144)
#: the paper's large data set as a quad grid: 513 x 513 points
LARGE_GRID = (512, 512)


@dataclass(frozen=True)
class TriMesh:
    """An unstructured triangular mesh."""

    points: np.ndarray      #: (P, 2) vertex coordinates
    triangles: np.ndarray   #: (E, 3) vertex indices, counter-clockwise
    periodic: bool = False

    def __post_init__(self):
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise ValueError("points must be (P, 2)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValueError("triangles must be (E, 3)")
        if self.triangles.min() < 0 or \
                self.triangles.max() >= len(self.points):
            raise ValueError("triangle vertex index out of range")

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def n_elements(self) -> int:
        return len(self.triangles)

    def areas(self) -> np.ndarray:
        """Signed triangle areas (positive for CCW orientation)."""
        p = self.points[self.triangles]          # (E, 3, 2)
        if self.periodic:
            # unwrap vertices that cross the periodic seam
            p = _unwrap(p, self._extent())
        a, b, c = p[:, 0], p[:, 1], p[:, 2]
        return 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                      - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1]))

    def shape_gradients(self) -> Tuple[np.ndarray, np.ndarray]:
        """Gradients of the linear shape functions.

        Returns ``(bx, by)``, each (E, 3): the x / y derivative of vertex
        i's shape function on each element.
        """
        p = self.points[self.triangles]
        if self.periodic:
            p = _unwrap(p, self._extent())
        a, b, c = p[:, 0], p[:, 1], p[:, 2]
        area2 = ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                 - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1]))
        bx = np.stack([b[:, 1] - c[:, 1],
                       c[:, 1] - a[:, 1],
                       a[:, 1] - b[:, 1]], axis=1) / area2[:, None]
        by = np.stack([c[:, 0] - b[:, 0],
                       a[:, 0] - c[:, 0],
                       b[:, 0] - a[:, 0]], axis=1) / area2[:, None]
        return bx, by

    def lumped_mass(self) -> np.ndarray:
        """Lumped (diagonal) mass: one third of adjacent element areas."""
        mass = np.zeros(self.n_points)
        np.add.at(mass, self.triangles.ravel(),
                  np.repeat(self.areas() / 3.0, 3))
        return mass

    def elements_per_point(self) -> np.ndarray:
        """How many elements touch each point."""
        counts = np.zeros(self.n_points, dtype=int)
        np.add.at(counts, self.triangles.ravel(), 1)
        return counts

    def _extent(self) -> Tuple[float, float]:
        return (float(self.points[:, 0].max()) + self._dx(),
                float(self.points[:, 1].max()) + self._dy())

    def _dx(self) -> float:
        xs = np.unique(self.points[:, 0])
        return float(xs[1] - xs[0]) if len(xs) > 1 else 1.0

    def _dy(self) -> float:
        ys = np.unique(self.points[:, 1])
        return float(ys[1] - ys[0]) if len(ys) > 1 else 1.0


def _unwrap(p: np.ndarray, extent: Tuple[float, float]) -> np.ndarray:
    """Shift periodic-seam vertices so each triangle is geometrically small."""
    p = p.copy()
    for axis, length in enumerate(extent):
        ref = p[:, 0, axis][:, None]
        delta = p[:, :, axis] - ref
        p[:, :, axis] -= length * np.round(delta / length)
    return p


def rectangle_counts(nx: int, ny: int,
                     periodic: bool = False) -> Tuple[int, int]:
    """``(n_points, n_elements)`` of :func:`rectangle_mesh` without
    building it: ``(nx+1)(ny+1)`` (periodic: ``nx ny``) and ``2 nx ny``."""
    if nx < 1 or ny < 1:
        raise ValueError("mesh needs at least one quad per dimension")
    n_points = nx * ny if periodic else (nx + 1) * (ny + 1)
    return n_points, 2 * nx * ny


def rectangle_mesh(nx: int, ny: int, periodic: bool = False,
                   width: float = 1.0, height: float = 1.0) -> TriMesh:
    """A structured triangulation of a rectangle: ``2 nx ny`` triangles.

    Non-periodic: ``(nx+1)(ny+1)`` points.  Periodic: ``nx ny`` points
    with opposite edges identified.  Quads are visited x-major; each
    splits into ``(p00, p10, p11)`` and ``(p00, p11, p01)``.
    """
    rectangle_counts(nx, ny, periodic)   # validates the grid
    px, py = (nx, ny) if periodic else (nx + 1, ny + 1)
    if periodic:
        # the identified right/top edge points are omitted
        xs = np.arange(px) * (width / nx)
        ys = np.arange(py) * (height / ny)
    else:
        xs = np.linspace(0.0, width, px)
        ys = np.linspace(0.0, height, py)
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    points = np.column_stack([xg.ravel(), yg.ravel()])

    i, j = np.meshgrid(np.arange(nx, dtype=np.int64),
                       np.arange(ny, dtype=np.int64), indexing="ij")
    i1, j1 = i + 1, j + 1
    if periodic:
        i1 %= nx
        j1 %= ny
    p00, p10 = i * py + j, i1 * py + j
    p01, p11 = i * py + j1, i1 * py + j1
    tris = np.stack([p00, p10, p11, p00, p11, p01], axis=-1).reshape(-1, 3)
    return TriMesh(points, tris, periodic=periodic)


def small_mesh() -> TriMesh:
    """The paper's small data set: 46 545 points, 92 160 elements."""
    return rectangle_mesh(*SMALL_GRID)


def large_mesh() -> TriMesh:
    """The paper's large data set: 263 169 points, 524 288 elements."""
    return rectangle_mesh(*LARGE_GRID)
