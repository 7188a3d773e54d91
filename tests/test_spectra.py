"""Eigensolver, spectrum grouping, energy, radius, quotients."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import eccspec as es
from eccspec import spectra
from helpers import (descending_stacks, group_rows_by_loop, jacobi_eigenvalues,
                     quotient_matrix_loop, twin_classes_by_loop)
from eccspec.errors import (
    ConvergenceFailureError,
    EmptySpectrumError,
    NonSymmetricInputError,
    PreconditionViolatedError,
)


def ecc(parts):
    return es.eccentricity_matrix(es.build_multipartite(parts)).matrix


# eigensolver


def test_rotated_diagonal_recovers_eigenvalues():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    m = q @ np.diag([3.0, 1.0, -2.0]) @ q.T
    m = (m + m.T) / 2
    eigs = es.symmetric_eigenvalues(m)
    assert np.allclose(eigs, [3.0, 1.0, -2.0], atol=1e-12)


def test_complete_graph_spectrum():
    eigs = es.symmetric_eigenvalues(ecc([1, 1, 1, 1]))
    assert np.allclose(eigs, [3, -1, -1, -1], atol=1e-12)


def test_split_graph_spectrum_exact_values():
    eigs = es.symmetric_eigenvalues(ecc([2, 1, 1]))
    expected = [(3 + math.sqrt(17)) / 2, (3 - math.sqrt(17)) / 2, -1.0, -2.0]
    assert np.allclose(eigs, sorted(expected, reverse=True), atol=1e-12)


@pytest.mark.parametrize("n", [2, 5, 20, 40])
def test_matches_lapack_on_random_integer_matrices(n):
    rng = np.random.default_rng(n)
    m = rng.integers(-5, 6, size=(n, n))
    m = np.triu(m) + np.triu(m, 1).T
    eigs = es.symmetric_eigenvalues(m)
    ref = np.sort(np.linalg.eigvalsh(m.astype(float)))[::-1]
    assert np.max(np.abs(eigs - ref)) < 1e-10 * max(1.0, np.linalg.norm(m))


def test_zero_and_tiny_matrices():
    assert es.symmetric_eigenvalues(np.zeros((3, 3))).tolist() == [0, 0, 0]
    assert es.symmetric_eigenvalues(np.array([[7]])).tolist() == [7]


def test_non_symmetric_input_is_rejected():
    with pytest.raises(NonSymmetricInputError):
        es.symmetric_eigenvalues(np.array([[0, 1], [0, 0]]))
    with pytest.raises(NonSymmetricInputError):
        es.symmetric_eigenvalues(np.ones((2, 3)))


@pytest.mark.parametrize(
    "matrix",
    [[[math.inf, 1], [1, 0]], [[math.nan, 1], [1, 0]], np.array([[0, 1j], [1j, 0]]),
     np.array([[0, 1j], [1j, 0]], dtype=object), np.array([[0, "a"], ["a", 0]], dtype=object)],
    ids=["inf", "nan", "complex", "object-complex", "object-string"],
)
def test_non_finite_or_complex_input_is_a_precondition_error(matrix):
    # raised before the symmetry test, which reads NaN as asymmetric, and
    # before a cast that would drop the imaginary part with only a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionViolatedError):
            es.symmetric_eigenvalues(matrix)
        with pytest.raises(PreconditionViolatedError):
            es.matrix_spectrum(matrix)


def test_exact_fraction_input_is_solved_as_its_float_copy():
    exact = np.array([[Fraction(1, 2), 1], [1, Fraction(-3, 4)]], dtype=object)
    assert np.array_equal(es.symmetric_eigenvalues(exact),
                          es.symmetric_eigenvalues(exact.astype(np.float64)))


def test_sweep_cap_raises_convergence_failure(monkeypatch):
    # [[0, 1], [1, 1]] has no twin rows, so QL runs on it whole
    monkeypatch.setattr(spectra, "QL_ITERATION_CAP", 0)
    with pytest.raises(ConvergenceFailureError):
        es.symmetric_eigenvalues(np.array([[0, 1], [1, 1]]))
    # every row of K_5's matrix is a twin of the next: its quotient is the
    # 1 x 1 matrix [[4]], which needs no QL iteration
    assert es.symmetric_eigenvalues(ecc([1] * 5)).tolist() == [4, -1, -1, -1, -1]


def test_zero_test_does_not_underflow():
    # the Frobenius norm of this matrix underflows to 0
    eigs = es.symmetric_eigenvalues(np.array([[0.0, 1e-300], [1e-300, 0.0]]))
    assert eigs.tolist() == pytest.approx([1e-300, -1e-300], rel=1e-12, abs=0)


def random_symmetric_integers(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.integers(-5, 6, size=(n, n))
    return np.triu(m) + np.triu(m, 1).T


@pytest.mark.parametrize("exponent", [600, -600])
def test_power_of_two_scaling_is_exact(exponent):
    m = random_symmetric_integers(12, 7)
    scaled = es.symmetric_eigenvalues(np.ldexp(m.astype(float), exponent))
    assert np.array_equal(scaled, np.ldexp(es.symmetric_eigenvalues(m), exponent))


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-300])
def test_extreme_scales_match_lapack(scale):
    m = random_symmetric_integers(12, 8)
    ref = np.sort(np.linalg.eigvalsh(m.astype(float)))[::-1]
    eigs = es.symmetric_eigenvalues(m * scale) / scale
    assert np.max(np.abs(eigs - ref)) < 1e-10 * np.linalg.norm(m)


# differential: the solver against the Jacobi oracle and LAPACK


def assert_matches_both_oracles(m):
    m = np.asarray(m)
    eigs = es.symmetric_eigenvalues(m)
    bound = 1e-10 * max(1.0, float(np.linalg.norm(m)))
    lapack = np.sort(np.linalg.eigvalsh(m.astype(float)))[::-1]
    assert np.max(np.abs(eigs - jacobi_eigenvalues(m))) < bound
    assert np.max(np.abs(eigs - lapack)) < bound
    return eigs, bound


def test_every_connected_partition_up_to_ten():
    checked = 0
    for n in range(2, 11):
        for spec in es.enumerate_partitions(n):
            assert_matches_both_oracles(ecc(spec))
            checked += 1
    assert checked == 128  # sum of p(n) - 1 over n = 2..10


@pytest.mark.parametrize("n", [2, 3, 6])
def test_antipodal_product_keeps_its_zero_multiplicity(n):
    g = es.strong_product(es.build_multipartite([n, n]), es.complete(2))
    eigs, bound = assert_matches_both_oracles(es.eccentricity_matrix(g).matrix)
    assert int(np.sum(np.abs(eigs) < bound)) == 2 * n


@pytest.mark.parametrize(
    "m",
    [
        np.diag([3.0, -1.0, 0.0, 7.0, -1.0]),
        np.diag([2.0, 1.0, 0.0, -4.0]) + np.diag([1.0, 0.5, 3.0], 1) + np.diag([1.0, 0.5, 3.0], -1),
        np.outer([1.0, -2.0, 3.0, 0.0, 5.0], [1.0, -2.0, 3.0, 0.0, 5.0]),
        np.ones((6, 6), dtype=int),
    ],
    ids=["diagonal", "tridiagonal", "rank-1", "all-ones"],
)
def test_structured_inputs(m):
    assert_matches_both_oracles(m)


@pytest.mark.parametrize("n", [3, 8, 17, 33, 72])
def test_random_integer_matrices_against_both_oracles(n):
    assert_matches_both_oracles(random_symmetric_integers(n, 100 + n))


# stacks: one call per stack, the same bits as one call per matrix


def bits(eigs):
    # compare float arrays bit for bit, signed zeros included
    return np.ascontiguousarray(eigs).view(np.int64)


def assert_stack_matches_singles(stack):
    stacked = es.symmetric_eigenvalues(stack)
    assert stacked.shape == np.shape(stack)[:2]
    for matrix, row in zip(stack, stacked):
        assert np.array_equal(bits(row), bits(es.symmetric_eigenvalues(matrix)))
    return stacked


def test_stacked_solves_match_single_solves_on_the_sweep_matrices():
    # every connected partition with n <= 16, one stack per order, and the
    # order-24 specs of the equal-order sweep (every class of size >= 2)
    orders = {n: es.enumerate_partitions(n) for n in range(2, 17)}
    orders[24] = [s for s in es.enumerate_partitions(24) if min(s.parts) >= 2]
    assert len(orders[24]) == 319
    for specs in orders.values():
        assert_stack_matches_singles(np.stack([ecc(spec) for spec in specs]))


def test_mixed_stacks_match_single_solves():
    dense = random_symmetric_integers(9, 3)
    diagonal = np.diag([4, -1, 0, 7, 2, 2, -3, 1, 5])  # every column is skipped
    block = np.zeros((9, 9), dtype=int)
    block[:4, :4] = random_symmetric_integers(4, 4)    # skipped from column 3 on
    assert_stack_matches_singles(np.stack([diagonal, dense, block, dense.T]))

    zero = np.zeros((9, 9), dtype=int)
    eigs = assert_stack_matches_singles(np.stack([dense, zero, diagonal]))
    assert bits(eigs[1]).tolist() == [0] * 9  # +0.0, as a zero matrix alone gives

    scaled = np.stack([dense, np.ldexp(dense.astype(float), 600),
                       np.ldexp(dense.astype(float), -600), block])
    eigs = assert_stack_matches_singles(scaled)
    assert np.array_equal(eigs[1], np.ldexp(eigs[0], 600))
    assert np.array_equal(eigs[2], np.ldexp(eigs[0], -600))

    # twin quotients of orders K = 4, 3, 1 and 2 (diagonal, so never
    # solved), the zero-padded block's class of 5 zero rows, and no twins
    twins = [ecc(parts) for parts in [(3, 3, 2, 1), (4, 2, 1, 1, 1), (1,) * 9, (5, 4)]]
    assert_stack_matches_singles(np.stack([*twins, dense, block, twins[0]]))


# deflation of adjacent twin rows


@st.composite
def twin_stacks(draw):
    # stacks of one order whose members are built from adjacent classes:
    # class T has diagonal a_T and coupling b_T inside, and one entry c_TU
    # towards every row of class U; neighbouring classes may merge
    n = draw(st.integers(1, 9))
    ints = st.integers(-4, 4)
    members = []
    for _ in range(draw(st.integers(1, 4))):
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
        labels = np.repeat(np.arange(len(cuts) + 1), np.diff([0, *cuts, n]))
        c = len(cuts) + 1
        couplings = np.array(draw(st.lists(ints, min_size=c * c, max_size=c * c))).reshape(c, c)
        couplings = np.triu(couplings) + np.triu(couplings, 1).T
        m = couplings[np.ix_(labels, labels)]
        np.fill_diagonal(m, np.array(draw(st.lists(ints, min_size=c, max_size=c)))[labels])
        members.append(m)
    return np.stack(members)


@given(twin_stacks())
def test_deflated_stacks_match_the_jacobi_oracle(stack):
    for matrix, eigs in zip(stack, es.symmetric_eigenvalues(stack)):
        bound = 1e-10 * max(1.0, float(np.linalg.norm(matrix)))
        assert np.abs(eigs - jacobi_eigenvalues(matrix)).max() < bound


def test_a_deflated_matrix_near_overflow_is_scaled_exactly():
    # the quotient is built from the scaled working copy
    m = ecc([3, 3, 1])
    with np.errstate(over="raise"):
        huge = es.symmetric_eigenvalues(np.ldexp(m.astype(float), 1020))
    assert np.isfinite(huge).all()
    assert np.array_equal(huge, np.ldexp(es.symmetric_eigenvalues(m), 1020))


def test_a_relabelling_with_no_adjacent_twins_keeps_the_spectrum():
    # K_{4,4,3,1,1} laid out class by class deflates to a 4 x 4 quotient;
    # interleaving its classes leaves no twin pair adjacent, so that copy is
    # solved whole, and both give the same 12-digit groups
    m = ecc([4, 4, 3, 1, 1])
    order = [0, 4, 1, 5, 2, 6, 3, 7, 8, 11, 9, 12, 10]
    relabelled = m[np.ix_(order, order)]
    assert spectra._twin_quotient(m[None].astype(float))[0].tolist() == [[4, 4, 3, 2]]
    assert spectra._twin_quotient(relabelled[None].astype(float))[0].tolist() == [[1] * 13]

    def digits(matrix):
        return [(f"{value:.12g}", mult) for value, mult in es.matrix_spectrum(matrix).groups]

    assert digits(relabelled) == digits(m)


def test_one_asymmetric_matrix_rejects_the_stack():
    stack = np.stack([np.eye(3), np.eye(3), np.eye(3)])
    stack[1, 0, 2] = 1.0
    with pytest.raises(NonSymmetricInputError):
        es.symmetric_eigenvalues(stack)


@pytest.mark.parametrize("shape", [(0, 4, 4), (3, 0, 0), (0, 0, 0)])
def test_empty_stacks_keep_their_shape(shape):
    assert es.symmetric_eigenvalues(np.zeros(shape)).shape == shape[:2]


@pytest.mark.parametrize("shape", [(2, 2, 3, 3), (3,), (2, 3, 4)])
def test_other_shapes_are_rejected(shape):
    with pytest.raises(NonSymmetricInputError):
        es.symmetric_eigenvalues(np.zeros(shape))


def test_sweep_cap_raises_convergence_failure_on_a_stack(monkeypatch):
    stack = np.stack([np.diag([1.0, 2.0]), np.array([[0.0, 1.0], [1.0, 1.0]])])
    monkeypatch.setattr(spectra, "QL_ITERATION_CAP", 0)
    with pytest.raises(ConvergenceFailureError):
        es.symmetric_eigenvalues(stack)
    monkeypatch.setattr(spectra, "QL_ITERATION_CAP", 1)
    eigs = es.symmetric_eigenvalues(stack)
    root = math.sqrt(5)
    assert eigs.tolist() == [[2, 1], pytest.approx([(1 + root) / 2, (1 - root) / 2], abs=1e-12)]


# grouping


def test_group_spectrum_merges_adjacent_values():
    s = es.group_spectrum([3.0000000001, 2.9999999999, -6.0], tol=1e-8)
    assert s.groups == ((3.0, 2), (-6.0, 1))
    assert s.n == 3


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
def test_group_spectrum_rejects_a_bad_tolerance(tol):
    with pytest.raises(PreconditionViolatedError):
        es.group_spectrum([1.0, 1.0, -2.0], tol=tol)
    with pytest.raises(PreconditionViolatedError):
        es.matrix_spectrum(ecc([2, 2]), tol=tol)


def test_group_spectrum_zero_tolerance_groups_only_equal_values():
    s = es.group_spectrum([2.0, 2.0, 1.0, -3.0], tol=0)
    assert s.groups == ((2.0, 2), (1.0, 1), (-3.0, 1))


def test_group_spectrum_empty():
    s = es.group_spectrum([], tol=1e-8)
    assert s.groups == () and s.n == 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_group_spectrum_rejects_non_finite_eigenvalues(bad):
    # a NaN gap test never splits, so NaN would merge everything into one group
    with pytest.raises(PreconditionViolatedError):
        es.group_spectrum([3.0, bad, 1.0], tol=1e-8)
    with pytest.raises(PreconditionViolatedError):
        es.group_spectrum(np.array([2.0, bad]), tol=1e-8)


@given(descending_stacks())
def test_group_stack_matches_the_row_loop(stack):
    # each row of a stack grouped on its own, at its own tolerance
    eigs, tols = stack
    grouped = [es.group_spectrum(row, tol) for row, tol in zip(eigs, tols)]
    assert [(s.eigenvalues, s.groups) for s in grouped] == group_rows_by_loop(eigs, tols)
    assert all(s.n == eigs.shape[1] for s in grouped)


@pytest.mark.parametrize("tol", [None, "nan"])
def test_group_spectrum_reads_a_non_number_tolerance_as_nan(tol):
    with pytest.raises(PreconditionViolatedError):
        es.group_spectrum([1.0, 1.0, -2.0], tol=tol)


def test_star_spectrum_groups():
    s = es.matrix_spectrum(ecc([3, 1]))
    values = [v for v, _ in s.groups]
    mults = [m for _, m in s.groups]
    assert mults == [1, 1, 2]
    assert values == pytest.approx([2 + math.sqrt(7), 2 - math.sqrt(7), -2], abs=1e-12)


# energy and radius


def test_energy_examples():
    assert es.energy(es.matrix_spectrum(ecc([1, 1, 1, 1]))) == pytest.approx(6)
    assert es.energy(es.matrix_spectrum(ecc([2, 2]))) == pytest.approx(8)
    assert es.energy(es.matrix_spectrum(ecc([2, 1, 1]))) == pytest.approx(3 + math.sqrt(17))


def test_energy_is_twice_the_positive_part_when_trace_vanishes():
    for parts in ([3, 2], [2, 2, 1], [4, 1], [3, 1, 1, 1]):
        s = es.matrix_spectrum(ecc(parts))
        positive = sum(x for x in s.eigenvalues if x > 0)
        assert es.energy(s) == pytest.approx(2 * positive, abs=1e-9)


def test_energy_and_group_means_are_correctly_rounded_sums():
    # a left-to-right float sum of ten 0.1s is 0.9999999999999999 before
    # Python 3.12 and 1.0 after; math.fsum is 1.0 on every version
    s = es.group_spectrum([0.1] * 10, 0.0)
    assert es.energy(s) == 1.0
    assert s.groups == ((0.1, 10),)


def test_spectral_radius_examples():
    assert es.spectral_radius(es.matrix_spectrum(ecc([3, 1]))) == pytest.approx(2 + math.sqrt(7))
    assert es.spectral_radius(es.matrix_spectrum(ecc([1, 1, 1, 1]))) == pytest.approx(3)
    assert es.spectral_radius(es.matrix_spectrum(ecc([2, 2]))) == pytest.approx(2)


def test_spectral_radius_is_the_top_eigenvalue_for_these_matrices():
    # Perron root: nonnegative irreducible input, asserted rather than assumed
    for parts in ([3, 2, 2], [5, 1], [2, 2, 2, 1]):
        s = es.matrix_spectrum(ecc(parts))
        assert es.spectral_radius(s) == pytest.approx(s.eigenvalues[0], abs=1e-12)


def test_energy_dominates_twice_radius():
    for parts in ([3, 2], [4, 2, 1], [2, 2, 2]):
        s = es.matrix_spectrum(ecc(parts))
        assert es.energy(s) >= 2 * es.spectral_radius(s) - 1e-9


def test_empty_spectrum_has_no_radius():
    with pytest.raises(EmptySpectrumError):
        es.spectral_radius(es.group_spectrum([], tol=1e-8))


# twin classes, and the exact quotient over them


@st.composite
def nudged_twin_stacks(draw):
    # a twin stack as int64, or as float64 scaled by a non-dyadic factor;
    # one symmetric pair of entries may move by one unit or one ulp, which
    # must split any twin pair that it touches
    stack = draw(twin_stacks())
    if draw(st.booleans()):
        stack = stack * 0.1
    if draw(st.booleans()):
        i = draw(st.integers(0, len(stack) - 1))
        r, w = draw(st.integers(0, stack.shape[1] - 1)), draw(st.integers(0, stack.shape[1] - 1))
        moved = stack[i, r, w] + 1 if stack.dtype == np.int64 else np.nextafter(stack[i, r, w], np.inf)
        stack[i, r, w] = stack[i, w, r] = moved
    return stack


def runs_of(sizes):
    # the rows of each class, from its size: classes run in order from row 0
    bounds = np.cumsum([0, *sizes])
    return [range(a, b) for a, b in zip(bounds.tolist(), bounds[1:].tolist()) if b > a]


@given(nudged_twin_stacks())
def test_twin_classes_match_the_row_by_row_oracle(stack):
    sizes = spectra._twin_quotient(stack)[0]
    runs = [twin_classes_by_loop(matrix) for matrix in stack]
    width = max(map(len, runs))
    assert sizes.shape == (len(stack), width)
    for own, member_sizes in zip(runs, sizes.tolist()):
        # padded with classes of size 0; the heads follow from the sizes
        assert member_sizes == [size for _, size in own] + [0] * (width - len(own))
        assert [run.start for run in runs_of(member_sizes)] == [head for head, _ in own]


@given(twin_stacks(), st.sampled_from([np.int64, np.float64]))
def test_twin_quotient_matches_entries_read_row_by_row(stack, dtype):
    stack = stack.astype(dtype)
    sizes, values, quotient, rowsums = spectra._twin_quotient(stack)
    assert values.dtype == quotient.dtype == rowsums.dtype == dtype
    for i, matrix in enumerate(stack.tolist()):
        classes = [range(head, head + size) for head, size in twin_classes_by_loop(stack[i])]
        assert sizes[i].tolist() == [len(rows) for rows in classes] + [0] * (len(sizes[i]) - len(classes))
        for t, rows in enumerate(classes):
            for r in rows:
                # every row of a class shows the class's value and row sum,
                # and the quotient row as its entries at each class's first
                # row (its own diagonal, for its own class)
                if len(rows) > 1:
                    assert values[i, t] == matrix[r][r] - matrix[r][r + 1 if r + 1 in rows else r - 1]
                assert rowsums[i, t] == sum(matrix[r][w] for w in rows)
                assert [quotient[i, t, u] for u in range(len(classes))] == [
                    matrix[r][r] if other is rows else matrix[r][other.start] for other in classes]


def test_twin_quotient_is_the_stack_itself_without_twins():
    # a stack with no twin anywhere is solved in place, as its own quotient;
    # one twin pair anywhere in the stack makes the quotient a copy
    m = ecc([4, 4, 3, 1, 1])
    order = [0, 4, 1, 5, 2, 6, 3, 7, 8, 11, 9, 12, 10]
    free = np.stack([m[np.ix_(order, order)]] * 2).astype(np.float64)
    assert spectra._twin_quotient(free)[2] is free
    mixed = np.stack([free[0], m.astype(np.float64)])
    quotient = spectra._twin_quotient(mixed)[2]
    assert quotient.shape == (2, 13, 13) and not np.shares_memory(quotient, mixed)


def test_a_class_of_one_keeps_the_sign_of_a_zero_diagonal():
    sizes, _, _, rowsums = spectra._twin_quotient(np.array([[[-0.0, 1.0], [1.0, 2.0]]]))
    assert sizes.tolist() == [[1, 1]]
    assert np.signbit(rowsums).tolist() == [[True, False]]


def test_twin_classes_compare_int64_rows_exactly():
    # 2**53 and 2**53 + 1 are two int64 values but one float64: rows 0 and 1
    # differ only there, so they are twins only after a cast
    big = 2**53
    m = np.array([[0, 1, big], [1, 0, big + 1], [big, big + 1, 0]], dtype=np.int64)
    assert spectra._twin_quotient(m[None])[0].tolist() == [[1, 1, 1]]
    assert spectra._twin_quotient(m[None].astype(np.float64))[0].tolist() == [[2, 1]]


def twin_quotient(m):
    # the block sums over the twin classes _twin_quotient reads off m
    (sizes,) = spectra._twin_quotient(m[None])[0].tolist()
    return quotient_matrix_loop(m, runs_of(sizes))


def test_split_graph_quotient_is_equitable():
    m = ecc([3, 1, 1])  # independent set of 3 joined to a clique of 2
    assert [part.tolist() for part in spectra._twin_quotient(m[None])] == [
        [[3, 2]], [[-2, -1]], [[[0, 1], [1, 0]]], [[4, 1]]]
    q, equitable = twin_quotient(m)
    assert equitable
    assert q.tolist() == [[4, 2], [3, 1]]


def test_equitable_quotient_spectrum_sits_inside_full_spectrum():
    for parts in ([3, 1, 1], [4, 1], [2, 2, 1], [3, 2, 1, 1]):
        m = ecc(parts)
        q, equitable = twin_quotient(m)
        assert equitable
        full = es.symmetric_eigenvalues(m)
        for lam in np.linalg.eigvals(q).real:
            assert np.min(np.abs(full - lam)) < 1e-8
