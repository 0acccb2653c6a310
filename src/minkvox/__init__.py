"""Minkowski functionals, quadratic normal tensors and fiber orientation
of gray-value voxel images."""

from .errors import (
    DegenerateImageError,
    KernelSupportError,
    NumericalError,
    VolumeFormatError,
)
from .voxelgrid import (
    Ball,
    Cylinder,
    Laminate,
    ShapeUnion,
    VoxelGrid,
    color_set,
    color_steps,
    shape_in_box,
    voxelize,
)
from .gradient import SCHEMES
from .filters import (
    BallKernel,
    GaussianKernel,
    Kernel,
    fft_convolve,
    kernel_name,
    sample_kernel,
    support_radius,
)
from .minkowski import (
    DEFAULT_EPS_REL,
    MinkowskiSummary,
    SymTensor3,
    analyze,
    eigenvalue_ratio,
    estimate_surface_and_tensor,
    estimate_volume,
    quadratic_normal_tensor,
    relative_tensor_error,
    unit_trace,
)
from .analytic import (
    BallQuantities,
    FiberSpec,
    SymTensor4,
    SYM4_INDEX_ORDER,
    ball_quantities,
    cylinder_normal_tensor,
    cylinder_qnt,
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
