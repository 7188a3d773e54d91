"""Eccentricity (anti-adjacency) matrices.

The eccentricity matrix keeps a distance entry d(u,v) only when it equals
min(ecc(u), ecc(v)) and zeroes it otherwise.  For connected graphs of diameter
2 whose maximum degree is below n-1 the matrix is exactly twice the adjacency
matrix of the complement, which gives a cheap independent construction route.
Each route is one kernel over a stack of equal-order graphs: the defining rule
zeroes a stack of Seidel distance matrices in place, and the complement route
confirms its preconditions on an adjacency stack with one graph square, the
kernel of Seidel's up pass.
eccentricity_matrix and ecc_via_complement apply them to a stack of one and
return the same read-only int64 EccentricityMatrix, whichever route built it;
verify_lemma2 applies both to the same stacks.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionViolatedError
from .graphs import Graph, _seidel, _square


@dataclass(frozen=True)
class EccentricityMatrix:
    """Read-only int64 eccentricity matrix of one graph."""

    matrix: np.ndarray


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
    """Entry (u,v) is d(u,v) when d(u,v) = min(ecc(u), ecc(v)), else 0.
    Raises DisconnectedGraphError when some pair is unreachable."""
    kept = _eccentricity_stack(_seidel(g.adjacency[None]))[0]
    return EccentricityMatrix(_freeze(kept))


def _complement_stack(adjacency: np.ndarray) -> np.ndarray:
    """Doubled complements 2*A(complement), int64, of a (k, n, n) adjacency
    stack whose members all have diameter 2 and maximum degree below n-1.

    One graph square (graphs._square) confirms that every member joins
    each pair within distance 2 and is not complete, which together mean
    diameter exactly 2; row sums bound the degrees.  The first member
    without diameter 2 goes through the Seidel kernel alone, so the errors
    come as for one graph: DisconnectedGraphError, then the diameter error,
    then the degree error.
    """
    count, n, _ = adjacency.shape
    degrees = adjacency.sum(axis=2)
    complete = degrees.min(axis=1) == n - 1
    near = np.count_nonzero(_square(adjacency), axis=(1, 2))  # ordered pairs within distance 2
    failed = np.flatnonzero(complete | (near < n * (n - 1)))
    if failed.size:
        diameter = int(_seidel(adjacency[failed[0], None]).max())
        raise PreconditionViolatedError(f"shortcut needs diameter exactly 2, got {diameter}")
    if (degrees.max(axis=1) == n - 1).any():
        raise PreconditionViolatedError("shortcut needs maximum degree < n-1")
    doubled = np.where(adjacency, np.int64(0), np.int64(2))
    doubled.reshape(count, n * n)[:, ::n + 1] = 0
    return doubled


def ecc_via_complement(g: Graph) -> EccentricityMatrix:
    """Shortcut 2*A(complement) for diameter-2 graphs with max degree < n-1."""
    doubled = _complement_stack(g.adjacency[None])[0]
    return EccentricityMatrix(_freeze(doubled))
