"""2-D unstructured FEM gas dynamics (paper §5.2).

Numerics: :func:`rectangle_mesh` / :func:`small_mesh` / :func:`large_mesh`
(the paper's exact mesh sizes), Morton ordering, and
:class:`GasDynamicsFEM` — a first-order lumped-mass Galerkin Euler solver.

Performance: :class:`FEMWorkload` with the paper's three Figure-7 curves
(:func:`small1_problem`, :func:`small2_problem`, :func:`large_problem`),
sized by the closed-form :func:`rectangle_counts` of :data:`SMALL_GRID` /
:data:`LARGE_GRID` — no mesh is built to model a run.
"""

from .driver import FEMSimulation
from .gasdyn import (
    FLOPS_PER_ELEMENT_UPDATE,
    FLOPS_PER_POINT_UPDATE,
    FEMState,
    GasDynamicsFEM,
    sod_tube,
    uniform_flow,
)
from .mesh import (
    LARGE_GRID,
    SMALL_GRID,
    TriMesh,
    large_mesh,
    rectangle_counts,
    rectangle_mesh,
    small_mesh,
)
from .morton import (
    element_permutation,
    morton_decode,
    morton_encode,
    morton_order_mesh,
    point_permutation,
)
from .workload import (
    C90_FEM_PROFILE,
    FEMProblem,
    FEMWorkload,
    large_problem,
    small1_problem,
    small2_problem,
)

__all__ = [
    "TriMesh", "rectangle_counts", "rectangle_mesh", "small_mesh",
    "large_mesh", "SMALL_GRID", "LARGE_GRID",
    "morton_encode", "morton_decode", "morton_order_mesh",
    "point_permutation", "element_permutation",
    "FEMState", "GasDynamicsFEM", "FEMSimulation", "uniform_flow",
    "sod_tube",
    "FLOPS_PER_POINT_UPDATE", "FLOPS_PER_ELEMENT_UPDATE",
    "FEMProblem", "FEMWorkload", "small1_problem", "small2_problem",
    "large_problem", "C90_FEM_PROFILE",
]
