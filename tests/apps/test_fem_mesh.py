"""Tests for mesh generation and Morton ordering."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.apps.fem import (
    LARGE_GRID,
    SMALL_GRID,
    TriMesh,
    element_permutation,
    large_mesh,
    large_problem,
    morton_decode,
    morton_encode,
    morton_order_mesh,
    point_permutation,
    rectangle_counts,
    rectangle_mesh,
    small1_problem,
    small2_problem,
    small_mesh,
)


def _loop_triangles(nx, ny, periodic):
    """The reference quad-by-quad triangulation rectangle_mesh must match."""
    py = ny if periodic else ny + 1

    def pid(i, j):
        if periodic:
            return (i % nx) * py + (j % ny)
        return i * py + j

    tris = []
    for i in range(nx):
        for j in range(ny):
            p00, p10 = pid(i, j), pid(i + 1, j)
            p01, p11 = pid(i, j + 1), pid(i + 1, j + 1)
            tris.append((p00, p10, p11))
            tris.append((p00, p11, p01))
    return np.array(tris, dtype=np.int64)


def _loop_points(nx, ny, periodic, width, height):
    if periodic:
        xs = np.arange(nx) * (width / nx)
        ys = np.arange(ny) * (height / ny)
    else:
        xs = np.linspace(0.0, width, nx + 1)
        ys = np.linspace(0.0, height, ny + 1)
    return np.array([(x, y) for x in xs for y in ys])


def test_paper_mesh_sizes_exact():
    small = small_mesh()
    assert small.n_points == 46545
    assert small.n_elements == 92160
    large = large_mesh()
    assert large.n_points == 263169
    assert large.n_elements == 524288


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("ny", [1, 2, 5, 7, 32])
@pytest.mark.parametrize("nx", [1, 2, 5, 7, 32])
def test_rectangle_mesh_matches_reference_loop(nx, ny, periodic):
    mesh = rectangle_mesh(nx, ny, periodic=periodic)
    expected = _loop_triangles(nx, ny, periodic)
    assert mesh.triangles.dtype == expected.dtype == np.int64
    assert np.array_equal(mesh.triangles, expected)
    assert np.array_equal(mesh.points,
                          _loop_points(nx, ny, periodic, 1.0, 1.0))
    assert (mesh.n_points, mesh.n_elements) == \
        rectangle_counts(nx, ny, periodic)


@pytest.mark.parametrize("periodic", [False, True])
def test_rectangle_mesh_custom_extent_matches_reference_loop(periodic):
    mesh = rectangle_mesh(6, 3, periodic=periodic, width=2.5, height=0.75)
    assert np.array_equal(mesh.triangles, _loop_triangles(6, 3, periodic))
    assert np.array_equal(mesh.points,
                          _loop_points(6, 3, periodic, 2.5, 0.75))


def test_rectangle_counts_closed_form():
    assert rectangle_counts(*SMALL_GRID) == (46545, 92160)
    assert rectangle_counts(*LARGE_GRID) == (263169, 524288)
    assert rectangle_counts(4, 3, periodic=True) == (12, 24)
    with pytest.raises(ValueError):
        rectangle_counts(0, 3)
    with pytest.raises(ValueError):
        rectangle_counts(3, 0, periodic=True)


def test_problem_factories_size_from_the_paper_meshes():
    """The factories never build a mesh; their counts are the meshes'."""
    small, large = small_mesh(), large_mesh()
    for problem, mesh in ((small1_problem(), small),
                          (small2_problem(), small),
                          (large_problem(), large)):
        assert (problem.n_points, problem.n_elements) == \
            (mesh.n_points, mesh.n_elements)


def test_two_elements_per_point_ratio():
    mesh = small_mesh()
    assert 1.9 <= mesh.n_elements / mesh.n_points <= 2.05


def test_average_six_elements_per_point():
    mesh = rectangle_mesh(32, 32, periodic=True)
    counts = mesh.elements_per_point()
    assert counts.mean() == pytest.approx(6.0)
    assert counts.max() <= 7


def test_areas_positive_and_sum_to_domain():
    mesh = rectangle_mesh(8, 8, width=2.0, height=1.0)
    areas = mesh.areas()
    assert np.all(areas > 0)
    assert areas.sum() == pytest.approx(2.0)


def test_periodic_areas_positive_and_sum_to_domain():
    mesh = rectangle_mesh(8, 8, periodic=True, width=1.0, height=1.0)
    areas = mesh.areas()
    assert np.all(areas > 0)
    assert areas.sum() == pytest.approx(1.0)


def test_shape_gradients_sum_to_zero():
    """Partition of unity: shape-function gradients cancel per element."""
    for periodic in (False, True):
        mesh = rectangle_mesh(6, 5, periodic=periodic)
        bx, by = mesh.shape_gradients()
        assert np.allclose(bx.sum(axis=1), 0.0, atol=1e-12)
        assert np.allclose(by.sum(axis=1), 0.0, atol=1e-12)


def test_shape_gradients_reproduce_linear_function():
    """grad(N) applied to nodal values of f = 2x + 3y gives (2, 3)."""
    mesh = rectangle_mesh(5, 7)
    f = 2.0 * mesh.points[:, 0] + 3.0 * mesh.points[:, 1]
    bx, by = mesh.shape_gradients()
    fe = f[mesh.triangles]
    assert np.allclose((bx * fe).sum(axis=1), 2.0)
    assert np.allclose((by * fe).sum(axis=1), 3.0)


def test_lumped_mass_sums_to_total_area():
    mesh = rectangle_mesh(9, 4, width=3.0, height=2.0)
    assert mesh.lumped_mass().sum() == pytest.approx(6.0)


def test_mesh_validation():
    with pytest.raises(ValueError):
        TriMesh(np.zeros((4, 3)), np.zeros((1, 3), dtype=int))
    with pytest.raises(ValueError):
        TriMesh(np.zeros((4, 2)), np.array([[0, 1, 9]]))
    with pytest.raises(ValueError):
        rectangle_mesh(0, 5)


# -- Morton ordering -----------------------------------------------------------

@given(i=st.integers(0, 2**21 - 1), j=st.integers(0, 2**21 - 1))
def test_morton_roundtrip(i, j):
    code = morton_encode(np.array([i]), np.array([j]))
    i2, j2 = morton_decode(code)
    assert (i2[0], j2[0]) == (i, j)


def test_morton_encode_rejects_bad_coords():
    with pytest.raises(ValueError):
        morton_encode(np.array([-1]), np.array([0]))
    with pytest.raises(ValueError):
        morton_encode(np.array([2**21]), np.array([0]))


def test_morton_is_strictly_monotonic_on_grid_diagonal():
    n = np.arange(100)
    codes = morton_encode(n, n)
    assert np.all(np.diff(codes) > 0)


def test_point_permutation_is_a_permutation():
    mesh = rectangle_mesh(13, 7)
    perm = point_permutation(mesh)
    assert sorted(perm) == list(range(mesh.n_points))
    eperm = element_permutation(mesh)
    assert sorted(eperm) == list(range(mesh.n_elements))


def test_morton_ordering_preserves_geometry():
    mesh = rectangle_mesh(10, 10)
    ordered = morton_order_mesh(mesh)
    assert ordered.n_points == mesh.n_points
    assert ordered.n_elements == mesh.n_elements
    assert ordered.areas().sum() == pytest.approx(mesh.areas().sum())
    assert np.all(ordered.areas() > 0)
    # same point set, different order
    assert np.allclose(np.sort(ordered.points.view("f8"), axis=0),
                       np.sort(mesh.points.view("f8"), axis=0))


def test_morton_ordering_improves_index_locality():
    """Successive elements reference nearby point indices after ordering
    — far closer than a random element order would."""
    mesh = rectangle_mesh(64, 64)
    ordered = morton_order_mesh(mesh)

    def mean_jump(m):
        mins = m.triangles.min(axis=1)
        return float(np.abs(np.diff(mins)).mean())

    rng = np.random.default_rng(13)
    shuffled = TriMesh(ordered.points,
                       ordered.triangles[rng.permutation(mesh.n_elements)])
    assert mean_jump(ordered) < 0.1 * mean_jump(shuffled)
