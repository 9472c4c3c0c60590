"""Exact Ehrhart polynomials, geometry and lattice-point counts for
partial permutohedra.

The partial permutohedron P(m, n) is the convex hull of the vectors in
{0, ..., n}^m whose nonzero entries are distinct.  This package computes
its Ehrhart polynomial for n >= m - 1 by six exact methods (``closed``,
``postnikov``, ``graphsum``, ``egf``, ``egf-tree`` and ``recurrence``),
independent but for two helpers shared by design: ``_exp_over_t``, shared
by ``egf`` and ``egf-tree``, and ``_census_sum``, the one sum that
``postnikov`` and ``graphsum`` take, each over its own census.  It
provides the polytope's vertices, facets, lift and Minkowski
decomposition, counts lattice points from the facets alone, and
enumerates the labelled multigraphs underlying the combinatorial
methods.  All arithmetic is exact rational.
"""

from .ehrhart import (
    METHOD_NAMES,
    coefficient_transfer_check,
    compute_ehrhart,
    ehrhart_closed,
    ehrhart_egf,
    ehrhart_egf_tree,
    ehrhart_graphsum,
    ehrhart_postnikov,
    ehrhart_recurrence,
    f_polynomial,
    f_polynomial_stable,
    tree_function,
    volume_closed,
)
from .errors import BudgetError
from .graphs import (
    EdgeMultiplicities,
    GraphStats,
    Multigraph,
    StructureCounts,
    component_cycle_check,
    enumerate_graphs,
    enumerate_sequences,
    find_sdr,
    from_multigraph,
    graph_census,
    satisfies_hall,
    sequence_census,
    structure_counts,
    to_multigraph,
)
from .polynomials import (
    LaurentPoly,
    Poly,
    double_factorial,
    eulerian,
    rising_binomial,
)
from .polytope import (
    FacetInequality,
    PartialPermutohedron,
    count_parking_functions,
    summands_support_value,
)
from .series import TruncatedSeries

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "EdgeMultiplicities",
    "FacetInequality",
    "GraphStats",
    "LaurentPoly",
    "METHOD_NAMES",
    "Multigraph",
    "PartialPermutohedron",
    "Poly",
    "StructureCounts",
    "TruncatedSeries",
    "coefficient_transfer_check",
    "component_cycle_check",
    "compute_ehrhart",
    "count_parking_functions",
    "double_factorial",
    "ehrhart_closed",
    "ehrhart_egf",
    "ehrhart_egf_tree",
    "ehrhart_graphsum",
    "ehrhart_postnikov",
    "ehrhart_recurrence",
    "enumerate_graphs",
    "enumerate_sequences",
    "eulerian",
    "f_polynomial",
    "f_polynomial_stable",
    "find_sdr",
    "from_multigraph",
    "graph_census",
    "rising_binomial",
    "satisfies_hall",
    "sequence_census",
    "structure_counts",
    "summands_support_value",
    "to_multigraph",
    "tree_function",
    "volume_closed",
]
