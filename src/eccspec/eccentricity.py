"""Eccentricity (anti-adjacency) matrices.

The eccentricity matrix keeps a distance entry d(u,v) only when it equals
min(ecc(u), ecc(v)) and zeroes it otherwise.  For connected graphs of diameter
2 whose maximum degree is below n-1 the matrix is exactly twice the adjacency
matrix of the complement, which gives a cheap independent construction route.
The defining rule is one kernel that zeroes a stack of distance matrices in
place; eccentricity_matrix applies it to a stack of one.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionViolatedError
from .graphs import Graph, all_pairs_distances, complement

PROVENANCE_DEFINITION = "definition"
PROVENANCE_COMPLEMENT = "complement"


@dataclass(frozen=True)
class EccentricityMatrix:
    """Integer eccentricity matrix plus the construction that produced it."""

    matrix: np.ndarray
    provenance: str


def _freeze(matrix: np.ndarray) -> np.ndarray:
    matrix.setflags(write=False)
    return matrix


def _eccentricity_stack(dist: np.ndarray) -> np.ndarray:
    """Turn a writable (k, n, n) distance stack into its eccentricity
    matrices in place, and return it.

    d(u,v) is at most both ecc(u) and ecc(v), so it equals their minimum
    exactly when it reaches one of them; every other entry is zeroed.
    """
    ecc = dist.max(axis=2)
    below = dist < ecc[:, :, None]
    below &= dist < ecc[:, None, :]
    np.copyto(dist, 0, where=below)
    return dist


def eccentricity_matrix(g: Graph) -> EccentricityMatrix:
    """Entry (u,v) is d(u,v) when d(u,v) = min(ecc(u), ecc(v)), else 0."""
    kept = _eccentricity_stack(all_pairs_distances(g).matrix[None].copy())[0]
    return EccentricityMatrix(_freeze(kept), PROVENANCE_DEFINITION)


def ecc_via_complement(g: Graph) -> EccentricityMatrix:
    """Shortcut 2*A(complement) for diameter-2 graphs with max degree < n-1."""
    dm = all_pairs_distances(g)
    if dm.diameter != 2:
        raise PreconditionViolatedError(
            f"shortcut needs diameter exactly 2, got {dm.diameter}"
        )
    if int(g.degrees().max()) == g.n - 1:
        raise PreconditionViolatedError("shortcut needs maximum degree < n-1")
    doubled = 2 * complement(g).adjacency.astype(np.int64)
    return EccentricityMatrix(_freeze(doubled), PROVENANCE_COMPLEMENT)
