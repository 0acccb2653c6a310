"""Minkowski functionals, quadratic normal tensors and fiber orientation
of gray-value voxel images."""

from .errors import (
    DegenerateImageError,
    NumericalError,
    VolumeFormatError,
)
from .voxelgrid import (
    Ball,
    Cylinder,
    Laminate,
    ShapeUnion,
    VoxelGrid,
    color_steps,
    shape_in_box,
    voxelize,
)
from .gradient import SCHEMES
from .filters import BallKernel, GaussianKernel, Kernel, fft_convolve
from .minkowski import (
    DEFAULT_EPS_REL,
    MinkowskiSummary,
    SymTensor3,
    analyze,
    eigenvalue_ratio,
    relative_tensor_error,
    unit_trace,
)
from .analytic import (
    BodyQuantities,
    FiberSpec,
    ball_quantities,
    cylinder_quantities,
    fiber_system_tensors,
    steiner_volume,
)
from .convergence import ConvergenceRow, run_convergence
from .fiberorient import (
    OrientationResult,
    structure_tensor_orientation,
)
from .volio import load_volume, store_volume

__version__ = "0.1.0"
