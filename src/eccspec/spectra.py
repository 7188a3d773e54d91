"""Dense symmetric eigensolver and elementary spectral statistics.

The solver here is the numeric authority everything else in the library is
checked against.  It is self-contained (no LAPACK): Householder reduction to
tridiagonal form, then implicit QL with Wilkinson shifts (Golub & Van Loan
Sec. 8.3), with a hard per-eigenvalue iteration cap that turns
non-convergence into a loud error.  It takes one matrix or a stack of
equal-order matrices; the Householder steps run on the whole stack at once,
which is what makes the verification sweeps' many small solves cheap.
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


def _tridiagonalize(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Householder-reduce a stack a in place; return its diagonals and
    off-diagonals, shapes (k, n) and (k, n - 1).

    Every matrix is symmetric with its largest entry in [0.5, 1).  Step k
    reflects column k below the subdiagonal onto its first entry with
    H = I - vv^T, |v|^2 = 2, and applies H A H to the trailing block as the
    rank-2 update A - vw^T - wv^T with p = Av and w = p - (v.p / 2)v.  A
    matrix whose column has norm at most eps below the subdiagonal is left
    out of that step: dropping the column moves no eigenvalue by more than
    2*eps*max|a|, which is within the rounding error of a reflection.  The
    stacked products are numpy's per-matrix BLAS calls (dot and gemv), so
    each matrix gets the same bits as it would alone.
    """
    count, n, _ = a.shape
    for k in range(n - 2):
        # row k past the diagonal, shape (count, 1, n - k - 1), stands for
        # column k below it: every update is symmetric, so the two stay equal
        x = a[:, k, None, k + 1:]
        tail = x[..., 1:]
        tail_sq = tail @ tail.swapaxes(1, 2)
        active = tail_sq[:, 0, 0] > _NEGLIGIBLE_SQ
        reflected = np.count_nonzero(active)
        if reflected == count:
            rows = slice(None)
        elif reflected:
            rows = np.flatnonzero(active)
            x, tail_sq = x[rows], tail_sq[rows]
        else:
            continue
        x0 = x[..., :1]
        norm = np.sqrt(x0 * x0 + tail_sq)
        alpha = np.copysign(norm, -x0)
        # |x - alpha*e1|^2 = 2*norm*(norm + |x0|), with no cancellation
        length = np.sqrt(norm * (norm + np.abs(x0)))
        v = x / length
        v[..., :1] = (x0 - alpha) / length
        column = v.swapaxes(1, 2)
        trailing = a[rows, k + 1:, k + 1:]
        p = trailing @ column
        w = p - (0.5 * (v @ p)) * column
        trailing -= column * w.swapaxes(1, 2) + w * v
        if reflected < count:
            a[rows, k + 1:, k + 1:] = trailing  # fancy indexing made a copy
        # row k is finished: its first entry past the diagonal becomes the
        # off-diagonal entry, and the rest is never read again
        a[rows, k, k + 1] = alpha[:, 0, 0]
    return np.diagonal(a, axis1=1, axis2=2), np.diagonal(a, 1, axis1=1, axis2=2)


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
    """All eigenvalues of a symmetric matrix, or of each matrix in a stack,
    sorted descending.

    matrix is one (n, n) matrix or a stack (k, n, n); the result has shape
    (n,) or (k, n), as for numpy.linalg.eigvalsh.  Householder
    tridiagonalisation runs once per column for the whole stack, then
    implicit QL runs on each tridiagonal; sweep_cap bounds the QL iterations
    spent on any one eigenvalue.  A single matrix is solved as a stack of
    one, and each matrix of a stack gets the same bits as it would alone.
    Each working copy is scaled by an exact power of two so its largest
    entry lies in [0.5, 1): no intermediate overflows, no entry that matters
    underflows, and on integer input the result is bit-identical to the
    unscaled computation.  A zero matrix is left out of every Householder
    step and gives zeros.  The input must be exactly symmetric (inputs here
    are integer matrices, so no tolerance is warranted).
    """
    m = np.asarray(matrix)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise NonSymmetricInputError("expected a square matrix or a stack of square matrices")
    if m.size and not np.array_equal(m, m.swapaxes(-1, -2)):
        raise NonSymmetricInputError("matrix is not symmetric")
    stack = m if m.ndim == 3 else m[None]
    if not stack.size:
        return np.empty(m.shape[:-1])
    work = stack.astype(np.float64)
    exponents = np.frexp(np.abs(work).max(axis=(1, 2)))[1]
    work = np.ldexp(work, -exponents[:, None, None])
    diagonals, subdiagonals = _tridiagonalize(work)
    eigs = [
        sorted(_tridiagonal_ql(d, e, sweep_cap), reverse=True)
        for d, e in zip(diagonals.tolist(), subdiagonals.tolist())
    ]
    return np.ldexp(np.array(eigs), exponents[:, None]).reshape(m.shape[:-1])


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


def _grouping_tol(frobenius_sq: float) -> float:
    # the default grouping tolerance 1e-8*max(1, ||M||_F), from ||M||_F^2
    return GROUPING_TOL_SCALE * max(1.0, math.sqrt(frobenius_sq))


def matrix_spectrum(matrix, tol: float | None = None) -> Spectrum:
    """Eigenvalues of a symmetric matrix grouped at tol (default 1e-8*max(1, norm))."""
    if tol is None:
        flat = np.asarray(matrix, dtype=np.float64).ravel(order="K")
        tol = _grouping_tol(float(flat @ flat))
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

