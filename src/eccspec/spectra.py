"""Dense symmetric eigensolver and elementary spectral statistics.

The solver here is the numeric authority everything else in the library is
checked against.  It is self-contained (no LAPACK): Householder reduction to
tridiagonal form, then implicit QL with Wilkinson shifts (Golub & Van Loan
Sec. 8.3), with a hard per-eigenvalue iteration cap that turns
non-convergence into a loud error.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailureError,
    EmptySpectrumError,
    InvalidPartitionError,
    NonSymmetricInputError,
    PreconditionViolatedError,
)

QL_ITERATION_CAP = 100
GROUPING_TOL_SCALE = 1e-8
_EPS = math.ulp(1.0)  # float64 machine epsilon
_NEGLIGIBLE_SQ = _EPS * _EPS


def _tridiagonalize(a: np.ndarray) -> tuple[list[float], list[float]]:
    """Householder-reduce a in place; return its diagonal and subdiagonal.

    a is symmetric with its largest entry in [0.5, 1).  Step k reflects
    column k below the subdiagonal onto its first entry with H = I - vv^T,
    |v|^2 = 2, and applies H A H to the trailing block as the rank-2 update
    A - vw^T - wv^T with p = Av and w = p - (v.p / 2)v.  A column whose part
    below the subdiagonal has norm at most eps is left as it is: dropping it
    moves no eigenvalue by more than 2*eps*max|a|, which is within the
    rounding error of a reflection.
    """
    n = a.shape[0]
    sub: list[float] = []
    for k in range(n - 2):
        # column k below the diagonal, read as the (contiguous) row: every
        # update is symmetric, so the two stay equal
        x = a[k, k + 1:]
        x0 = float(x[0])
        tail = x[1:]
        tail_sq = float(tail @ tail)
        if tail_sq <= _NEGLIGIBLE_SQ:
            sub.append(x0)
            continue
        norm = math.sqrt(x0 * x0 + tail_sq)
        alpha = -math.copysign(norm, x0)
        # |x - alpha*e1|^2 = 2*norm*(norm + |x0|), with no cancellation
        length = math.sqrt(norm * (norm + abs(x0)))
        v = x / length
        v[0] = (x0 - alpha) / length
        trailing = a[k + 1:, k + 1:]
        p = trailing @ v
        w = p - (0.5 * float(v @ p)) * v
        trailing -= v[:, None] * w + w[:, None] * v
        sub.append(alpha)
    if n > 1:
        sub.append(float(a[n - 1, n - 2]))
    return a.diagonal().tolist(), sub


def _tridiagonal_ql(d: list[float], e: list[float], cap: int) -> list[float]:
    """Eigenvalues of the symmetric tridiagonal (d, e) by implicit QL (tqli).

    d is overwritten with the eigenvalues; e[i] couples d[i] and d[i + 1].
    An off-diagonal entry is dropped once it is below eps times its two
    neighbouring diagonal entries.
    """
    n = len(d)
    e.append(0.0)
    for l in range(n):
        iterations = 0
        while True:
            m = l
            while m < n - 1 and abs(e[m]) > _EPS * (abs(d[m]) + abs(d[m + 1])):
                m += 1
            if m == l:
                break
            if iterations >= cap:
                raise ConvergenceFailureError(
                    f"eigenvalue {l} did not converge in {cap} QL iterations; "
                    "this should be impossible for symmetric input"
                )
            iterations += 1
            # Wilkinson-type shift from the leading 2x2 block of [l, m]
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    # the chase split the block early: recover and retry
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    return d


def symmetric_eigenvalues(matrix, sweep_cap: int = QL_ITERATION_CAP) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, sorted descending.

    Householder tridiagonalisation followed by implicit QL; sweep_cap bounds
    the QL iterations spent on any one eigenvalue.  The working copy is
    scaled by an exact power of two so its largest entry lies in [0.5, 1):
    no intermediate overflows, no entry that matters underflows, and on
    integer input the result is bit-identical to the unscaled computation.
    The input must be exactly symmetric (inputs here are integer matrices,
    so no tolerance is warranted).
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonSymmetricInputError("expected a square matrix")
    if m.size and not np.array_equal(m, m.T):
        raise NonSymmetricInputError("matrix is not symmetric")
    n = m.shape[0]
    if n == 0:
        return np.empty(0)
    work = m.astype(np.float64)
    if not work.any():
        return np.zeros(n)
    exponent = math.frexp(float(np.abs(work).max()))[1]
    work = np.ldexp(work, -exponent)
    diagonal, subdiagonal = _tridiagonalize(work)
    eigs = sorted(_tridiagonal_ql(diagonal, subdiagonal, sweep_cap), reverse=True)
    return np.ldexp(np.array(eigs), exponent)


@dataclass(frozen=True)
class Spectrum:
    """Descending eigenvalues plus their tolerance-clustered (value, mult) groups."""

    eigenvalues: tuple[float, ...]
    groups: tuple[tuple[float, int], ...]
    n: int


def group_spectrum(eigenvalues, tol: float) -> Spectrum:
    """Cluster eigenvalues whose adjacent gaps stay within tol.

    Each group reports the arithmetic mean of its members, which cancels the
    symmetric part of the solver noise.  tol must be finite and >= 0: a NaN
    gap test never splits, so NaN would merge everything into one group.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise PreconditionViolatedError(f"grouping tolerance must be finite and >= 0, got {tol}")
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


def matrix_spectrum(matrix, tol: float | None = None) -> Spectrum:
    """Eigenvalues of a symmetric matrix grouped at tol (default 1e-8*max(1, norm))."""
    if tol is None:
        norm = float(np.linalg.norm(np.asarray(matrix, dtype=np.float64)))
        tol = GROUPING_TOL_SCALE * max(1.0, norm)
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
    With P the float64 class-indicator matrix, Q = P^T (M P) / class sizes,
    and the partition is equitable iff each row of M P equals its class
    head's.  Float64 accumulation makes bool input count rather than OR; the
    exact equality test is right for the integer matrices fed in here.
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
    sizes = np.array([len(cls) for cls in classes], dtype=np.intp)
    class_of = np.empty(n, dtype=np.intp)
    class_of[flat] = np.repeat(np.arange(len(classes)), sizes)
    indicator = np.zeros((n, len(classes)))
    indicator[np.arange(n), class_of] = 1.0
    block_sums = m @ indicator
    heads = np.array([cls[0] for cls in classes], dtype=np.intp)
    equitable = bool(np.array_equal(block_sums, block_sums[heads[class_of]]))
    return indicator.T @ block_sums / sizes[:, None], equitable

