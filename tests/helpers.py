"""Independent oracles for the tests: slow but obviously-correct routines
that never touch the library's own code paths, and the hypothesis
strategies that more than one test module draws from."""

import itertools
import math
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st


@st.composite
def adjacencies(draw, max_order, connected=False, min_order=None):
    # a random upper triangle; connected graphs also get a random spanning
    # tree, each vertex joined to an earlier one
    n = draw(st.integers(min_order or (2 if connected else 1), max_order))
    upper = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    adj = np.zeros((n, n), dtype=bool)
    adj[np.triu_indices(n, 1)] = upper
    if connected:
        for v in range(1, n):
            adj[draw(st.integers(0, v - 1)), v] = True
    return adj | adj.T


def same_order_stacks(max_order):
    # (k, n, n) stacks of connected graphs of one order, whose diameters
    # differ from member to member
    return st.integers(2, max_order).flatmap(
        lambda n: st.lists(adjacencies(n, connected=True, min_order=n), min_size=1, max_size=6)
    ).map(np.stack)


def square_int_matrices(max_order=5, bound=20):
    # square integer matrices as lists of rows, of order 1..max_order
    return st.integers(1, max_order).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(-bound, bound), min_size=k, max_size=k), min_size=k, max_size=k
        )
    )


@st.composite
def descending_stacks(draw):
    # k rows of n descending values with per-row tolerances; dyadic values
    # and gaps keep every difference exact, so ties (gap 0) and gaps exactly
    # equal to tol are planted as drawn, and tol 0 is among the tolerances
    k, n = draw(st.integers(1, 5)), draw(st.integers(0, 8))
    tols = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1e-8]), min_size=k, max_size=k))
    rows = []
    for tol in tols:
        value = draw(st.integers(-64, 64)) / 4
        row = []
        for _ in range(n):
            row.append(value)
            value -= draw(st.sampled_from([0.0, 0.0, tol, 0.25, 0.5, 1.0, 3.0]))
        rows.append(row)
    return np.array(rows, dtype=np.float64).reshape(k, n), np.array(tols)


def partitions_by_brute_force(n: int, smallest: int = 1) -> list[tuple[int, ...]]:
    """The partitions of n into two or more parts, each >= smallest, in
    reverse lexicographic order: the set of every partition of each m <= n,
    built by adding one part to a partition of a smaller m and sorting, then
    sorted as tuples at the end."""
    table = [{()}]
    for m in range(1, n + 1):
        table.append({tuple(sorted((part, *rest), reverse=True))
                      for part in range(smallest, m + 1) for rest in table[m - part]})
    return sorted((parts for parts in table[n] if len(parts) >= 2), reverse=True)


def compensated_sum(values, start=0):
    """The builtin sum() as Python 3.12 and later run it on floats: each
    addition's rounding error goes into a second float (Neumaier's
    compensation), which is added back at the end when it is finite.  Any
    other input goes to the builtin."""
    values = list(values)
    if not values or type(start) not in (int, float) or any(type(x) is not float for x in values):
        return sum(values, start)
    total, compensation = float(start), 0.0
    for x in values:
        t = total + x
        compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def group_rows_by_loop(eigs, tols) -> list[tuple[tuple[float, ...], tuple[tuple[float, int], ...]]]:
    """(eigenvalues, groups) of each descending row, one value at a time: a
    value further than its row's tol below the previous one starts a new
    group, and each group reports the sum of its members, added exactly as
    fractions and then rounded once to a float, over their count."""
    out = []
    for row, tol in zip(np.asarray(eigs).tolist(), np.asarray(tols).tolist()):
        groups, block = [], []
        for value in row:
            if block and block[-1] - value > tol:
                groups.append((float(sum(map(Fraction, block))) / len(block), len(block)))
                block = []
            block.append(value)
        if block:
            groups.append((float(sum(map(Fraction, block))) / len(block), len(block)))
        out.append((tuple(row), tuple(groups)))
    return out


def floyd_warshall_distances(adjacency) -> np.ndarray:
    """All-pairs shortest paths by relaxation; UNREACHABLE marks missing paths."""
    adjacency = np.asarray(adjacency, dtype=bool)
    n = adjacency.shape[0]
    dist = np.full((n, n), UNREACHABLE, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    dist[adjacency] = 1
    for k in range(n):
        dist = np.minimum(dist, dist[:, k][:, None] + dist[k, :][None, :])
    return dist


UNREACHABLE = 10**9


def random_adjacency(n: int, p: float, rng) -> np.ndarray:
    upper = np.triu(rng.random((n, n)) < p, 1)
    return upper | upper.T


def eccentricity_by_definition(adjacency) -> np.ndarray:
    """Apply the defining rule entry by entry on top of Floyd-Warshall."""
    dist = floyd_warshall_distances(adjacency)
    assert dist.max() < UNREACHABLE, "oracle needs a connected graph"
    n = dist.shape[0]
    ecc = dist.max(axis=1)
    out = np.zeros_like(dist)
    for u in range(n):
        for v in range(n):
            if u != v and dist[u, v] == min(ecc[u], ecc[v]):
                out[u, v] = dist[u, v]
    return out


def jacobi_eigenvalues(matrix) -> np.ndarray:
    """Descending eigenvalues by cyclic Jacobi rotations on a float copy.

    Sweeps run until the off-diagonal Frobenius norm drops below 1e-12 times
    the input norm, at most 100 of them.  Slow (a Python double loop per sweep) but independent of
    both LAPACK and the library's Householder + QL solver.
    """
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        return np.zeros(n)

    def offdiag_norm():
        # sum only off-diagonal squares: subtracting the diagonal mass from
        # the total cancels catastrophically once a is nearly diagonal
        upper = a[np.triu_indices(n, 1)]
        return math.sqrt(2.0 * float(np.dot(upper, upper)))

    for _ in range(100):
        if offdiag_norm() < 1e-12 * norm:
            return np.sort(np.diagonal(a))[::-1].copy()
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
    raise AssertionError("Jacobi oracle did not converge in 100 sweeps")


def quotient_matrix_loop(matrix, partition) -> tuple[np.ndarray, bool]:
    """Block-average quotient and equitability flag, one block at a time.

    Q[i][j] is the mean row sum of block (i, j); the flag records whether
    every block has constant row sums.  Sums stay in the input's integer
    dtype (bool counts as 0/1), so the result is exact.
    """
    m = np.asarray(matrix)
    classes = [np.asarray(sorted(int(i) for i in cls), dtype=np.intp) for cls in partition]
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


def twin_classes_by_loop(matrix) -> list[tuple[int, int]]:
    """(head, size) of each run of adjacent twin rows, one row pair at a
    time: rows r - 1 and r are twins when their diagonal entries are equal
    and they agree in every column outside {r - 1, r}.  Entries are
    compared as Python numbers, exactly, whatever the input's dtype."""
    rows = np.asarray(matrix).tolist()
    n = len(rows)
    runs = []
    for r in range(n):
        if r and rows[r - 1][r - 1] == rows[r][r] and all(
                rows[r - 1][w] == rows[r][w] for w in range(n) if w not in (r - 1, r)):
            head, size = runs[-1]
            runs[-1] = (head, size + 1)
        else:
            runs.append((r, 1))
    return runs


def split_square_by_trial_division(r: int) -> tuple[int, int]:
    """(k, s) with r = k*k * s and s squarefree, by trial division up to sqrt(r)."""
    k = 1
    d = 2
    while d * d <= r:
        while r % (d * d) == 0:
            r //= d * d
            k *= d
        d += 1
    return k, r


def surd_bracket(x, k: int) -> tuple[Fraction, Fraction]:
    """Rationals lo <= x.a + x.b*sqrt(x.r) <= hi, from the integer square
    root of x.r at k bits below the point: isqrt(r * 4**k) / 2**k <= sqrt(r)."""
    root = math.isqrt(x.r * 4**k)
    lo, hi = x.a + x.b * Fraction(root, 2**k), x.a + x.b * Fraction(root + 1, 2**k)
    return min(lo, hi), max(lo, hi)


def compare_surds_by_bracketing(x, y) -> int:
    """-1, 0 or 1 as x <, == or > y, for Surds in normal form.

    Two values are equal only when their normal forms are; otherwise k
    doubles until the brackets of x and y separate.
    """
    if (x.a, x.b, x.r) == (y.a, y.b, y.r):
        return 0
    k = 1
    while True:
        (x_lo, x_hi), (y_lo, y_hi) = surd_bracket(x, k), surd_bracket(y, k)
        if x_hi < y_lo:
            return -1
        if y_hi < x_lo:
            return 1
        k *= 2


def char_poly_by_leibniz(matrix) -> list[int]:
    """det(xI - A) of an integer matrix, leading coefficient first, as the
    Leibniz sum over permutations of sign * prod_i (x[i == s(i)] - A[i, s(i)])."""
    a = [[int(x) for x in row] for row in np.asarray(matrix)]
    k = len(a)
    total = [0] * (k + 1)  # lowest power first
    for perm in itertools.permutations(range(k)):
        inversions = sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
        term = [-1 if inversions % 2 else 1]
        for i, j in enumerate(perm):
            factor = [-a[i][j], 1] if i == j else [-a[i][j]]
            product = [0] * (len(term) + len(factor) - 1)
            for u, tu in enumerate(term):
                for v, fv in enumerate(factor):
                    product[u + v] += tu * fv
            term = product
        for power, coeff in enumerate(term):
            total[power] += coeff
    return total[::-1]


def det_by_elimination(matrix) -> int:
    """Determinant of an integer matrix by Gaussian elimination over
    Fractions, swapping in the first nonzero pivot of each column."""
    a = [[Fraction(int(x)) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(len(a)):
        pivot = next((r for r in range(col, len(a)) if a[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, len(a)):
            factor = a[r][col] / a[col][col]
            a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    assert det.denominator == 1
    return int(det)


def antipodal_fibre_size_loop(adjacency):
    """Fibre size of "equal or at diameter distance", vertex by vertex.

    Each unseen vertex u takes its related vertices as a fibre; the result is
    None when some member's row differs from u's (the relation is not
    transitive) or when two fibres differ in size.  Needs a connected graph.
    """
    dist = floyd_warshall_distances(adjacency)
    assert dist.max() < UNREACHABLE, "oracle needs a connected graph"
    rel = dist == dist.max()
    np.fill_diagonal(rel, True)
    n = rel.shape[0]
    seen = np.zeros(n, dtype=bool)
    size = None
    for u in range(n):
        if seen[u]:
            continue
        members = np.flatnonzero(rel[u])
        if not (rel[members] == rel[u]).all():
            return None
        if size is None:
            size = len(members)
        elif len(members) != size:
            return None
        seen[members] = True
    return int(size)


def strong_product_by_edge_rule(a, b) -> np.ndarray:
    """Adjacency of the strong product, pair by pair: (v, w) ~ (v', w') iff
    each coordinate is equal or adjacent and not both are equal; vertex
    (v, w) is v * len(b) + w."""
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    na, nb = len(a), len(b)
    out = np.zeros((na * nb, na * nb), dtype=bool)
    for v, w, v2, w2 in itertools.product(range(na), range(nb), range(na), range(nb)):
        near_v = v == v2 or a[v, v2]
        near_w = w == w2 or b[w, w2]
        out[v * nb + w, v2 * nb + w2] = near_v and near_w and (v, w) != (v2, w2)
    return out
