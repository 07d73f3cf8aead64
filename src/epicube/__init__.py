"""Two-view epipolar geometry toolkit for cube-degenerate configurations."""

from . import exact, simulate
from .exceptions import (
    AtInfinity,
    CoincidentCenters,
    DegenerateInput,
    EpicubeError,
    NoQuadric,
    NoRealRoot,
    PencilOfQuadrics,
)
from .degeneracy import (
    CubeConfig,
    build_Z,
    is_combinatorial_cube,
    kernel_basis,
    numerical_rank,
    random_combinatorial_cube,
    unit_cube,
    veronese_matrix,
)
from .estimators import (
    PencilSolution,
    cube_eight_point,
    eight_point,
    fundamental_from_cameras,
    hartley_normalize,
    pencil_solve,
    seven_point,
)
from .projective import (
    canonical_fmatrix,
    epipolar_residual,
    focal_point,
    grassmann_angle,
    proj_equal,
    project_all,
)
from .quadrics import (
    PlaneChart,
    QuadricClass,
    classify,
    cube_quadric,
    delta1_coordinates,
    quadric_through_points,
    region_grid,
    ruled_region_delta1,
    unit_cube_quadric,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
