"""Exact-arithmetic rich-line and vanishing-polynomial experiments."""

from .bounds import BoundReport, bound_terms, ratios
from .designs import (
    DesignMatrix,
    assemble_design,
    dependency_coeffs,
    rank_bound_report,
    tuple_cover,
    verify_design,
)
from .geometry import Hyperplane, Line, canonical_line, make_hyperplane
from .incidence import (
    IncidenceGraph,
    count_aps,
    incidences,
    lift_progressions,
    max_hyperplane_subset,
    rich_lines,
)
from .linalg import Matrix, bareiss_rank, rref_rank
from .pointsets import (
    PointSet,
    SizeCapError,
    cartesian_power,
    grid,
    index_prefix,
    pasted_grids,
    pointset_from,
    sumproduct_config,
)
from .refinement import dyadic_partition, refine
from .scalars import (
    FIELD_GAUSSIAN,
    FIELD_RATIONAL,
    GaussianRational,
    format_scalar,
    parse_scalar,
)
from .vanishing import (
    ap_hyperplane,
    certified_vanishing_poly,
    classify_flat_points,
    extract_hyperplane,
    find_vanishing_poly,
    hyperplane_from_product,
)
from .veronese import (
    MonomialBasis,
    Polynomial,
    monomial_basis,
    monomial_count,
    schwartz_zippel_count,
    veronese_matrix,
)

__version__ = "0.1.0"
