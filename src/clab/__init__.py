"""Toric resolutions of C^2 quotient singularities and moduli of
torus-fixed constellations, in exact rational arithmetic.

The public surface mirrors the pipeline: lattices (`lattice`), group actions
and surface resolutions (`surface`), the junior simplex and triangulations
(`junior`), McKay quivers and moduli fans (`quiver`), stability-space search
(`thetaspace`), and the CLI (`cli`).
"""

from .lattice import (
    Lattice,
    is_member,
    lattice_from_generators,
    pair_determinant,
    primitive_in_lattice,
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
    lift_to_junior,
    nef_cone,
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
    ps_limit,
)
from .thetaspace import (
    RealizationReport,
    Wall,
    realize_resolution,
    sample_generic,
    verify_main_theorem,
    walls,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianAction", "BoundaryDivisor", "FixedConstellation", "JuniorSimplex",
    "Lattice", "McKayQuiver", "PLSupportFunction", "RealizationReport",
    "RegularityRefusal", "Resolution", "Theta", "Triangulation", "Wall",
    "amp_restriction_surjective", "boundary_divisor", "build_action",
    "build_containing_triangulation", "build_junior", "build_mckay_quiver",
    "build_N2", "enumerate_admissible_resolutions", "enumerate_fixed_stable",
    "is_basic", "is_dominated_by_max", "is_generic", "is_member", "is_small",
    "lattice_from_generators", "lift_to_junior", "make_theta",
    "maximal_resolution", "minimal_resolution", "moduli_fan", "nef_cone",
    "pair_determinant", "primitive_in_lattice", "ps_limit",
    "realize_resolution", "regularity_certificate", "sample_generic",
    "triangle_grid", "verify_main_theorem", "walls",
]
