"""Eigensolver, spectrum grouping, energy, radius, quotients."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import eccspec as es
from helpers import jacobi_eigenvalues, quotient_matrix_loop
from eccspec.errors import (
    ConvergenceFailureError,
    EmptySpectrumError,
    InvalidPartitionError,
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


def test_sweep_cap_raises_convergence_failure():
    with pytest.raises(ConvergenceFailureError):
        es.symmetric_eigenvalues(np.array([[0, 1], [1, 0]]), sweep_cap=0)


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
        for spec in es.enumerate_partitions(n, connected_only=True):
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
    orders = {n: es.enumerate_partitions(n, connected_only=True) for n in range(2, 17)}
    orders[24] = [s for s in es.enumerate_partitions(24, connected_only=True) if min(s.parts) >= 2]
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


def test_sweep_cap_raises_convergence_failure_on_a_stack():
    stack = np.stack([np.diag([1.0, 2.0]), np.array([[0.0, 1.0], [1.0, 0.0]])])
    with pytest.raises(ConvergenceFailureError):
        es.symmetric_eigenvalues(stack, sweep_cap=0)
    eigs = es.symmetric_eigenvalues(stack, sweep_cap=1)
    assert eigs.tolist() == [[2, 1], pytest.approx([1, -1], abs=1e-12)]


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


# quotient matrices


def test_split_graph_quotient_is_equitable():
    m = ecc([3, 1, 1])  # independent set of 3 joined to a clique of 2
    q, equitable = es.quotient_matrix(m, [[0, 1, 2], [3, 4]])
    assert equitable
    assert q.tolist() == [[4.0, 2.0], [3.0, 1.0]]


def test_bool_adjacency_quotient_counts_neighbours():
    # a bool-by-bool product would OR the block entries instead of counting
    adjacency = es.build_multipartite([3, 2]).adjacency
    assert adjacency.dtype == bool
    q, equitable = es.quotient_matrix(adjacency, [[0, 1, 2], [3, 4]])
    assert equitable
    assert q.tolist() == [[0.0, 2.0], [3.0, 0.0]]


@given(st.data())
def test_quotient_matches_the_block_loop(data):
    n = data.draw(st.integers(min_value=1, max_value=7))
    labels = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    classes = data.draw(st.permutations(
        [[v for v in range(n) if labels[v] == c] for c in sorted(set(labels))]))
    if data.draw(st.booleans()):
        m = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n)))
        m = m.reshape(n, n)
    else:
        # constant on every block, hence equitable
        block = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n)))
        m = block.reshape(n, n)[np.ix_(labels, labels)]
    m = m.astype(data.draw(st.sampled_from([np.int64, bool])))
    q, equitable = es.quotient_matrix(m, classes)
    q_loop, equitable_loop = quotient_matrix_loop(m, classes)
    assert np.array_equal(q, q_loop)
    assert equitable == equitable_loop


def test_all_singletons_quotient_returns_the_matrix():
    m = ecc([2, 2])
    q, equitable = es.quotient_matrix(m, [[0], [1], [2], [3]])
    assert equitable
    assert np.array_equal(q, m.astype(float))


def test_path_block_partition_is_not_equitable():
    g = es.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    m = es.eccentricity_matrix(g).matrix
    _, equitable = es.quotient_matrix(m, [[0, 1], [2, 3]])
    assert not equitable


def test_quotient_partition_validation():
    m = ecc([2, 2])
    with pytest.raises(InvalidPartitionError):
        es.quotient_matrix(m, [[0, 1], [1, 2, 3]])
    with pytest.raises(InvalidPartitionError):
        es.quotient_matrix(m, [[0, 1], [2]])
    with pytest.raises(InvalidPartitionError):
        es.quotient_matrix(m, [[0, 1], [], [2, 3]])


def test_equitable_quotient_spectrum_sits_inside_full_spectrum():
    for parts in ([3, 1, 1], [4, 1], [2, 2, 1], [3, 2, 1, 1]):
        spec = es.as_spec(parts)
        m = ecc(parts)
        classes = []
        start = 0
        for size in spec.parts:
            classes.append(list(range(start, start + size)))
            start += size
        q, equitable = es.quotient_matrix(m, classes)
        assert equitable
        full = es.symmetric_eigenvalues(m)
        for lam in np.linalg.eigvals(q).real:
            assert np.min(np.abs(full - lam)) < 1e-8

