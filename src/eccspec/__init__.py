"""Eccentricity matrices, spectra and energies of graphs.

The library builds eccentricity (anti-adjacency) matrices from simple
undirected graphs, computes their spectra with a self-contained Householder
+ implicit-QL eigensolver, carries exact closed-form spectra for complete
multipartite graphs, and ships a verification harness that cross-checks every
closed form and bound against the numeric route.
"""

from .closed_form import (
    ClosedFormSpectrum,
    antipodal_product_spectrum,
    energy_bounds,
    equienergetic_pair,
    multipartite_spectrum_closed,
    radius_upper_bound,
)
from .eccentricity import EccentricityMatrix, ecc_via_complement, eccentricity_matrix
from .exact import Surd, quadratic_roots
from .graphs import (
    DistanceMatrix,
    Graph,
    MultipartiteSpec,
    all_pairs_distances,
    antipodal_class,
    as_spec,
    build_multipartite,
    complete,
    star,
    strong_product,
)
from .io import emit_edge_list, emit_graph6, parse_edge_list, parse_graph6
from .spectra import (
    Spectrum,
    energy,
    group_spectrum,
    matrix_spectrum,
    spectral_radius,
    symmetric_eigenvalues,
)
from .verification import (
    VerificationReport,
    enumerate_partitions,
    verify_bounds_and_extremals,
    verify_closed_forms,
    verify_equienergetic,
    verify_equienergetic_pair,
    verify_lemma2,
)

__version__ = "0.1.0"

__all__ = [
    "ClosedFormSpectrum",
    "DistanceMatrix",
    "EccentricityMatrix",
    "Graph",
    "MultipartiteSpec",
    "Spectrum",
    "Surd",
    "VerificationReport",
    "all_pairs_distances",
    "antipodal_class",
    "antipodal_product_spectrum",
    "as_spec",
    "build_multipartite",
    "complete",
    "ecc_via_complement",
    "eccentricity_matrix",
    "emit_edge_list",
    "emit_graph6",
    "energy",
    "energy_bounds",
    "enumerate_partitions",
    "equienergetic_pair",
    "group_spectrum",
    "matrix_spectrum",
    "multipartite_spectrum_closed",
    "parse_edge_list",
    "parse_graph6",
    "quadratic_roots",
    "radius_upper_bound",
    "spectral_radius",
    "star",
    "strong_product",
    "symmetric_eigenvalues",
    "verify_bounds_and_extremals",
    "verify_closed_forms",
    "verify_equienergetic",
    "verify_equienergetic_pair",
    "verify_lemma2",
]
