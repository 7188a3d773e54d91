"""Dense symmetric eigensolver and elementary spectral statistics.

The cyclic Jacobi solver here is the numeric authority everything else in the
library is checked against, so it favours robustness over speed: plain sweeps
over all index pairs, a convergence threshold fixed relative to the input
norm, and a hard sweep cap that turns non-convergence into a loud error.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailureError,
    EmptySpectrumError,
    InvalidPartitionError,
    NonSymmetricInputError,
)

JACOBI_SWEEP_CAP = 100
JACOBI_OFFDIAG_TOL = 1e-12
GROUPING_TOL_SCALE = 1e-8


def _offdiag_norm(a: np.ndarray) -> float:
    # sum only off-diagonal squares: subtracting the diagonal mass from the
    # total cancels catastrophically once the matrix is nearly diagonal
    upper = a[np.triu_indices(a.shape[0], 1)]
    return math.sqrt(2.0 * float(np.dot(upper, upper)))


def _jacobi_sweep(a: np.ndarray) -> None:
    n = a.shape[0]
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = a[p, q]
            if apq == 0.0:
                continue
            theta = (a[q, q] - a[p, p]) / (2.0 * apq)
            t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
            c = 1.0 / math.hypot(1.0, t)
            s = t * c
            col_p = a[:, p].copy()
            col_q = a[:, q].copy()
            a[:, p] = c * col_p - s * col_q
            a[:, q] = s * col_p + c * col_q
            row_p = a[p, :].copy()
            row_q = a[q, :].copy()
            a[p, :] = c * row_p - s * row_q
            a[q, :] = s * row_p + c * row_q
            a[p, q] = 0.0
            a[q, p] = 0.0


def symmetric_eigenvalues(matrix, sweep_cap: int = JACOBI_SWEEP_CAP) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, sorted descending.

    Cyclic Jacobi rotations run until the off-diagonal Frobenius norm drops
    below 1e-12 times the input norm.  The input must be exactly symmetric
    (inputs here are integer matrices, so no tolerance is warranted).
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonSymmetricInputError("expected a square matrix")
    if m.size and not np.array_equal(m, m.T):
        raise NonSymmetricInputError("matrix is not symmetric")
    n = m.shape[0]
    if n == 0:
        return np.empty(0)
    work = m.astype(np.float64, copy=True)
    norm = float(np.linalg.norm(work))
    if norm == 0.0:
        return np.zeros(n)
    stop = JACOBI_OFFDIAG_TOL * norm
    sweeps = 0
    while _offdiag_norm(work) >= stop:
        if sweeps >= sweep_cap:
            raise ConvergenceFailureError(
                f"off-diagonal mass survived {sweep_cap} sweeps; "
                "this should be impossible for symmetric input"
            )
        _jacobi_sweep(work)
        sweeps += 1
    return np.sort(np.diagonal(work))[::-1].copy()


@dataclass(frozen=True)
class Spectrum:
    """Descending eigenvalues plus their tolerance-clustered (value, mult) groups."""

    eigenvalues: tuple[float, ...]
    groups: tuple[tuple[float, int], ...]
    n: int


def group_spectrum(eigenvalues, tol: float) -> Spectrum:
    """Cluster eigenvalues whose adjacent gaps stay within tol.

    Each group reports the arithmetic mean of its members, which cancels the
    symmetric part of the solver noise.
    """
    eigs = sorted((float(x) for x in eigenvalues), reverse=True)
    groups: list[tuple[float, int]] = []
    block: list[float] = []
    for value in eigs:
        if block and (block[-1] - value) > tol:
            groups.append((sum(block) / len(block), len(block)))
            block = []
        block.append(value)
    if block:
        groups.append((sum(block) / len(block), len(block)))
    return Spectrum(tuple(eigs), tuple(groups), len(eigs))


def default_grouping_tol(matrix) -> float:
    return GROUPING_TOL_SCALE * max(1.0, float(np.linalg.norm(np.asarray(matrix, dtype=np.float64))))


def matrix_spectrum(matrix, tol: float | None = None) -> Spectrum:
    """Eigenvalues of a symmetric matrix grouped at tol (default 1e-8*max(1, norm))."""
    if tol is None:
        tol = default_grouping_tol(matrix)
    return group_spectrum(symmetric_eigenvalues(matrix), tol)


def energy(spectrum: Spectrum) -> float:
    """Sum of absolute eigenvalues."""
    return float(sum(abs(x) for x in spectrum.eigenvalues))


def spectral_radius(spectrum: Spectrum) -> float:
    """Largest absolute eigenvalue.

    Computed as max(|largest|, |smallest|) rather than assuming the top
    eigenvalue dominates; for eccentricity matrices of connected graphs the
    two coincide, which the tests assert separately.
    """
    if spectrum.n == 0:
        raise EmptySpectrumError("spectral radius of an empty spectrum")
    return max(abs(spectrum.eigenvalues[0]), abs(spectrum.eigenvalues[-1]))


def quotient_matrix(matrix, partition) -> tuple[np.ndarray, bool]:
    """Block-average quotient of a square matrix under an index partition.

    Returns (Q, is_equitable) where Q[i][j] is the average row sum of block
    (i, j) and the flag records whether every block has constant row sums.
    The constancy test uses exact equality, which is the right call for the
    integer matrices this library feeds in.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidPartitionError("matrix must be square")
    n = m.shape[0]
    classes = [np.asarray(sorted(int(i) for i in cls), dtype=np.intp) for cls in partition]
    if any(len(cls) == 0 for cls in classes):
        raise InvalidPartitionError("partition classes must be non-empty")
    flat = np.concatenate(classes) if classes else np.empty(0, dtype=np.intp)
    if len(flat) != n or not np.array_equal(np.sort(flat), np.arange(n)):
        raise InvalidPartitionError("classes must cover all indices exactly once")
    k = len(classes)
    q = np.empty((k, k), dtype=np.float64)
    equitable = True
    for i, ci in enumerate(classes):
        rows = m[ci]
        for j, cj in enumerate(classes):
            row_sums = rows[:, cj].sum(axis=1)
            if not (row_sums == row_sums[0]).all():
                equitable = False
            q[i, j] = float(row_sums.sum()) / len(ci)
    return q, equitable


def quotient_eigenvalues(q: np.ndarray, class_sizes) -> np.ndarray:
    """Eigenvalues of a quotient matrix of a symmetric matrix.

    Such a quotient is diagonally similar to a symmetric matrix via the
    square roots of the class sizes, so the Jacobi solver applies after
    rescaling (and re-symmetrising away float dust).
    """
    sizes = np.asarray(list(class_sizes), dtype=np.float64)
    scale = np.sqrt(sizes)
    sym = q * (scale[:, None] / scale[None, :])
    sym = (sym + sym.T) / 2.0
    return symmetric_eigenvalues(sym)

