"""Toric resolutions of C^2 quotient singularities and moduli of
torus-fixed constellations, in exact rational arithmetic.

The public surface mirrors the pipeline: lattices (`lattice`), group actions
and surface resolutions (`surface`), the junior simplex and triangulations
(`junior`), McKay quivers and moduli fans (`quiver`), stability-space search
(`thetaspace`), and the CLI (`cli`).
"""

from .lattice import (
    Lattice,
    lattice_from_generators,
    primitive_point,
    triangle_grid,
)
from .surface import (
    AbelianAction,
    BoundaryDivisor,
    Resolution,
    boundary_divisor,
    build_action,
    build_N2,
    enumerate_admissible_resolutions,
    is_dominated_by_max,
    is_small,
    maximal_resolution,
    minimal_resolution,
    resolution_from_grid,
)
from .junior import (
    JuniorSimplex,
    PLSupportFunction,
    RegularityRefusal,
    Triangulation,
    amp_restriction_surjective,
    build_containing_triangulation,
    build_junior,
    is_basic,
    regularity_certificate,
)
from .quiver import (
    FixedConstellation,
    McKayQuiver,
    Theta,
    build_mckay_quiver,
    enumerate_fixed_stable,
    is_generic,
    make_theta,
    moduli_fan,
)
from .thetaspace import (
    RealizationReport,
    realize_resolution,
    sample_generic,
    verify_main_theorem,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianAction", "BoundaryDivisor", "FixedConstellation", "JuniorSimplex",
    "Lattice", "McKayQuiver", "PLSupportFunction", "RealizationReport",
    "RegularityRefusal", "Resolution", "Theta", "Triangulation",
    "amp_restriction_surjective", "boundary_divisor", "build_action",
    "build_containing_triangulation", "build_junior", "build_mckay_quiver",
    "build_N2", "enumerate_admissible_resolutions", "enumerate_fixed_stable",
    "is_basic", "is_dominated_by_max", "is_generic", "is_small",
    "lattice_from_generators", "make_theta", "maximal_resolution",
    "minimal_resolution", "moduli_fan", "primitive_point",
    "realize_resolution", "regularity_certificate", "resolution_from_grid",
    "sample_generic", "triangle_grid", "verify_main_theorem",
]
