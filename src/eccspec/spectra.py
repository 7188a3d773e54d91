"""Dense symmetric eigensolver and elementary spectral statistics.

The solver here is the numeric authority everything else in the library is
checked against.  It is self-contained (no LAPACK): Householder reduction to
tridiagonal form, then implicit QL with Wilkinson shifts (Golub & Van Loan
Sec. 8.3), with a hard per-eigenvalue iteration cap that turns
non-convergence into a loud error.  It takes one matrix or a stack of
equal-order matrices.  Before the solve, exactly equal adjacent twin rows
are deflated: each class of twins gives one eigenvalue, repeated, and the
solver sees only the small symmetric quotient over the classes, read off by
`_twin_quotient`, the kernel that also gives Theorem 1's exact check its
integer quotients.  The eccentricity matrix of a complete multipartite
graph, as the library lays it out, deflates to one row per large class and
one for the clique of singletons.  The Householder steps run on all the
quotients of one order at once, which is what makes the verification
sweeps' many small solves cheap.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailureError,
    EmptySpectrumError,
    NonSymmetricInputError,
    PreconditionViolatedError,
)

QL_ITERATION_CAP = 100
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
        update = column * w.swapaxes(1, 2)
        update += w * v
        trailing -= update
        if reflected < count:
            a[rows, k + 1:, k + 1:] = trailing  # fancy indexing made a copy
        # row k is finished: its first entry past the diagonal becomes the
        # off-diagonal entry, and the rest is never read again
        a[rows, k, k + 1] = alpha[:, 0, 0]
    return np.diagonal(a, axis1=1, axis2=2), np.diagonal(a, 1, axis1=1, axis2=2)


def _tridiagonal_ql(d: list[float], e: list[float]) -> list[float]:
    """Eigenvalues of the symmetric tridiagonal (d, e) by implicit QL (tqli).

    d is overwritten with the eigenvalues; e[i] couples d[i] and d[i + 1].
    An off-diagonal entry is dropped once it is below eps times its two
    neighbouring diagonal entries.  Each eigenvalue gets at most
    QL_ITERATION_CAP iterations; the module constant is read at call time.
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
            if iterations >= QL_ITERATION_CAP:
                raise ConvergenceFailureError(
                    f"eigenvalue {l} did not converge in {QL_ITERATION_CAP} QL iterations; "
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


def _scale(work: np.ndarray) -> np.ndarray:
    # scale each matrix of a float64 stack in place by an exact power of two,
    # so its largest |entry| lies in [0.5, 1), and return the exponents
    largest = np.maximum(work.max(axis=(1, 2)), -work.min(axis=(1, 2)))  # no copy for np.abs
    exponents = np.frexp(largest)[1]
    np.ldexp(work, -exponents[:, None, None], out=work)
    return exponents


def _solve_stack(work: np.ndarray) -> np.ndarray:
    """Eigenvalues (k, n), each row unsorted, of a stack (k, n, n) of finite
    symmetric float64 matrices; the stack is overwritten.

    Each matrix is scaled (_scale), the whole stack is Householder-reduced
    at once, QL solves each tridiagonal, and the eigenvalues are scaled back.
    """
    exponents = _scale(work)
    diagonals, subdiagonals = _tridiagonalize(work)
    eigs = [_tridiagonal_ql(d, e) for d, e in zip(diagonals.tolist(), subdiagonals.tolist())]
    return np.ldexp(np.array(eigs), exponents[:, None])


def _twin_quotient(stack: np.ndarray):
    """The runs of adjacent twin rows in each symmetric matrix of a stack
    (k, n, n), n >= 1, and the quotient over them: (sizes, values,
    quotient, rowsums).

    Rows r and r + 1 are twins when M[r, r] == M[r + 1, r + 1] and
    M[r, w] == M[r + 1, w] for every other column w.  Then rows r and r + 1
    of M - lam*I are equal for lam = M[r, r] - M[r, r + 1], and
    e_r - e_{r + 1} is an exact eigenvector for lam.  Two overlapping pairs
    share their lam, so a maximal run of twin pairs is one class T whose
    rows of M - lam*I are all equal: T holds |T| - 1 copies of lam, and each
    row of T has the same sum over every class, so the classes are
    equitable.  Rows are compared exactly, in the stack's own dtype.

    Class T of matrix i is the next sizes[i, T] rows, from row 0, and
    classes of size 0 pad each matrix to the stack's most.  With h the
    first row of T, values[i, T] = M[h, h] - M[h, h + 1] is T's lam,
    quotient[i, T, U] = M[h, h_U], and rowsums[i, T] is a row's sum over T,
    M[h, h] + (|T| - 1) M[h, h + 1], or M[h, h] itself, signed zero and
    all, for a class of one.  The rest of the spectrum is that of the
    quotient weighted by |U|, or by sqrt(|T| |U|) to keep it symmetric,
    with rowsums on its diagonal.  A stack with no twins at all is its own
    quotient: stack itself, not a copy.
    """
    count, n, _ = stack.shape
    same = stack[:, :-1] == stack[:, 1:]  # row r against row r + 1, column by column
    pairs = np.arange(n - 1)
    # the two columns of a pair hold its diagonal and its coupling, compared apart
    same[:, pairs, pairs] = same[:, pairs, pairs + 1] = True
    diagonal = np.diagonal(stack, axis1=1, axis2=2)
    starts = np.ones((count, n), dtype=bool)
    starts[:, 1:] = ~(same.all(axis=2) & (diagonal[:, :-1] == diagonal[:, 1:]))
    classes = np.cumsum(starts, axis=1) - 1  # the class of each row
    width = int(classes[:, -1].max(initial=0)) + 1  # one, for an empty stack
    member = np.arange(count)[:, None]
    sizes = np.bincount((classes + width * member).ravel(), minlength=count * width).reshape(count, width)
    heads = np.zeros((count, width), dtype=np.intp)  # a padded class reads row 0
    owners, rows = np.nonzero(starts)
    heads[owners, classes[starts]] = rows
    own = stack[member, heads, heads]
    coupling = stack[member, heads, np.minimum(heads + 1, n - 1)]
    twins = sizes.max(initial=0) > 1
    quotient = stack[member[:, :, None], heads[:, :, None], heads[:, None, :]] if twins else stack
    return sizes, own - coupling, quotient, np.where(sizes > 1, own + (sizes - 1) * coupling, own)


def symmetric_eigenvalues(matrix) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, or of each matrix in a stack,
    sorted descending.

    matrix is one (n, n) matrix or a stack (k, n, n); the result has shape
    (n,) or (k, n), as for numpy.linalg.eigvalsh.  Each working copy is
    scaled by an exact power of two so its largest entry lies in [0.5, 1):
    no intermediate overflows, no entry that matters underflows, and on
    integer input the result is bit-identical to the unscaled computation.
    Adjacent twin rows are then deflated exactly (_twin_quotient): K twin
    classes give |T| - 1 copies of each class's eigenvalue and the K
    eigenvalues of the K x K symmetric quotient.  The quotients of one
    order K are solved together: Householder tridiagonalisation runs once
    per column for all of them, then implicit QL runs on each tridiagonal;
    QL_ITERATION_CAP bounds the QL iterations spent on any one eigenvalue.
    A quotient that is already diagonal, as with every twin class
    uncoupled from the rest, gives its diagonal with no solve.  A single
    matrix is solved as a stack of one, and each matrix of a stack gets the
    same bits as it would alone.  A zero matrix gives zeros.  The input
    must be real, finite and exactly symmetric (inputs here are integer
    matrices, so no tolerance is warranted); complex, non-numeric or
    non-finite entries raise PreconditionViolatedError.
    """
    m = np.asarray(matrix)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise NonSymmetricInputError("expected a square matrix or a stack of square matrices")
    if np.iscomplexobj(m):
        raise PreconditionViolatedError("the eigensolver needs a real matrix")
    try:
        work = (m if m.ndim == 3 else m[None]).astype(np.float64)
    except (TypeError, ValueError) as exc:
        # an object or string array whose entries are not real numbers
        raise PreconditionViolatedError("the eigensolver needs real numeric entries") from exc
    if not np.isfinite(work).all():
        raise PreconditionViolatedError("the eigensolver needs finite entries")
    if m.size and not np.array_equal(m, m.swapaxes(-1, -2)):
        raise NonSymmetricInputError("matrix is not symmetric")
    if not work.size:
        return np.empty(m.shape[:-1])
    exponents = _scale(work)
    sizes, values, quotients, rowsums = _twin_quotient(work)
    if quotients is not work:  # a copy, symmetrised in place
        quotients *= np.sqrt(sizes[:, :, None] * sizes[:, None, :])  # zero where padded
    width = sizes.shape[1]
    diagonal = quotients.reshape(len(work), width * width)[:, ::width + 1]  # a view
    diagonal[:] = 0.0
    coupled = quotients.any(axis=(1, 2))
    # a quotient with no entry off its diagonal has its row sums as its
    # eigenvalues; the others are solved with those of their order
    diagonal[:] = found = rowsums
    orders = (sizes > 0).sum(axis=1)
    for order in sorted(set(orders[coupled].tolist())):
        rows = np.flatnonzero(coupled & (orders == order))
        # a group that is the whole stack at full width is solved in place
        whole = len(rows) == len(quotients) and order == width
        found[rows, :order] = _solve_stack(quotients if whole else quotients[rows, :order, :order])
    # each class's run of rows takes |T| - 1 copies of its value, and one
    # quotient eigenvalue in its last row
    flat = sizes.ravel()
    eigs = np.repeat(values, flat)
    eigs[np.cumsum(flat)[flat > 0] - 1] = found.ravel()[flat > 0]
    eigs = np.sort(eigs.reshape(work.shape[:2]), axis=1)[:, ::-1]
    return np.ldexp(eigs, exponents[:, None]).reshape(m.shape[:-1])


@dataclass(frozen=True)
class Spectrum:
    """Descending eigenvalues plus their tolerance-clustered (value, mult) groups."""

    eigenvalues: tuple[float, ...]
    groups: tuple[tuple[float, int], ...]
    n: int


def _splits(eigs: np.ndarray, tols: np.ndarray) -> np.ndarray:
    # whether each row of a descending stack (k, n) ends a group after column j
    return eigs[:, :-1] - eigs[:, 1:] > tols[:, None]


def group_spectrum(eigenvalues, tol: float) -> Spectrum:
    """Cluster eigenvalues, sorted descending, into groups that end where
    the gap to the next value exceeds tol (_splits, which the verification
    sweeps run on whole stacks).

    Each group reports the arithmetic mean of its members, their correctly
    rounded math.fsum sum over the count, which cancels the symmetric part
    of the solver noise and gives the same bits on every Python.  tol must
    be finite and >= 0 and the eigenvalues finite, or
    PreconditionViolatedError is raised: a NaN gap test never splits, so a
    NaN in either would merge everything into one group.
    """
    row = sorted((float(x) for x in eigenvalues), reverse=True)
    tols = np.array([tol], dtype=np.float64)
    if not (math.isfinite(tols[0]) and tols[0] >= 0):
        raise PreconditionViolatedError(f"grouping tolerance must be finite and >= 0, got {tols[0]}")
    if not all(map(math.isfinite, row)):
        raise PreconditionViolatedError("eigenvalues to group must be finite")
    bounds = [0, *(np.flatnonzero(_splits(np.array([row]), tols)) + 1).tolist(), len(row)] if row else []
    groups = tuple((math.fsum(row[a:b]) / (b - a), b - a) for a, b in zip(bounds, bounds[1:]))
    return Spectrum(tuple(row), groups, len(row))


def grouping_tol(frobenius_sq):
    # the default grouping tolerance 1e-8*max(1, ||M||_F), from ||M||_F^2;
    # elementwise on an array of squared norms
    return 1e-8 * np.maximum(1.0, np.sqrt(frobenius_sq))


def matrix_spectrum(matrix, tol: float | None = None) -> Spectrum:
    """Eigenvalues of a symmetric matrix grouped at tol (default 1e-8*max(1, norm))."""
    eigs = symmetric_eigenvalues(matrix)
    if tol is None:
        flat = np.asarray(matrix, dtype=np.float64).ravel(order="K")
        tol = grouping_tol(float(flat @ flat))
    return group_spectrum(eigs, tol)


def _energies(eigs: np.ndarray) -> list[float]:
    # energy() of each row of a stack (k, n) of eigenvalues
    return [math.fsum(row) for row in np.abs(eigs).tolist()]


def _radii(eigs: np.ndarray) -> list[float]:
    # spectral_radius() of each row of a descending stack (k, n), n >= 1
    return np.maximum(np.abs(eigs[:, 0]), np.abs(eigs[:, -1])).tolist()


def energy(spectrum: Spectrum) -> float:
    """Sum of absolute eigenvalues, correctly rounded by math.fsum, so the
    same on every Python."""
    return _energies(np.array([spectrum.eigenvalues]))[0]


def spectral_radius(spectrum: Spectrum) -> float:
    """Largest absolute eigenvalue.

    Computed as max(|largest|, |smallest|) rather than assuming the top
    eigenvalue dominates; for eccentricity matrices of connected graphs the
    two coincide, which the tests assert separately.
    """
    if spectrum.n == 0:
        raise EmptySpectrumError("spectral radius of an empty spectrum")
    return _radii(np.array([spectrum.eigenvalues]))[0]
