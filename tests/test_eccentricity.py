"""Eccentricity matrix construction and the doubled-complement shortcut."""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings

import eccspec as es
import eccspec.eccentricity as eccentricity
import eccspec.graphs as graphs
from eccspec.errors import DisconnectedGraphError, PreconditionViolatedError
from helpers import (
    UNREACHABLE,
    adjacencies,
    eccentricity_by_definition,
    floyd_warshall_distances,
    random_adjacency,
    same_order_stacks,
)


def path_graph(n):
    return es.Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def test_complete_graph_matrix_is_all_ones_off_diagonal():
    em = es.eccentricity_matrix(es.complete(4))
    expected = np.ones((4, 4), dtype=np.int64) - np.eye(4, dtype=np.int64)
    assert np.array_equal(em.matrix, expected)
    assert em.matrix.dtype == np.int64 and not em.matrix.flags.writeable


def test_split_graph_rows_match_the_defining_rule():
    g = es.build_multipartite([2, 1, 1])
    em = es.eccentricity_matrix(g)
    assert np.array_equal(em.matrix, eccentricity_by_definition(g.adjacency))
    assert em.matrix.tolist() == [
        [0, 2, 1, 1],
        [2, 0, 1, 1],
        [1, 1, 0, 1],
        [1, 1, 1, 0],
    ]


def test_star_matrix_equals_distance_matrix():
    g = es.build_multipartite([3, 1])
    em = es.eccentricity_matrix(g)
    assert np.array_equal(em.matrix, es.all_pairs_distances(g).matrix)


@pytest.mark.parametrize("n", range(4, 11))
def test_matrix_equals_distances_exactly_for_split_type_specs(n):
    # with at most one class of size >= 2 every distance survives the rule;
    # a second large class breaks it, since cross-class neighbours sit at
    # distance 1 while both endpoints have eccentricity 2
    for spec in es.enumerate_partitions(n):
        g = es.build_multipartite(spec)
        em = es.eccentricity_matrix(g)
        dist = es.all_pairs_distances(g).matrix
        large = sum(1 for x in spec.parts if x >= 2)
        if large <= 1:
            assert np.array_equal(em.matrix, dist), spec
        else:
            assert not np.array_equal(em.matrix, dist), spec
            assert (em.matrix <= dist).all()


def test_doubled_complement_on_k22():
    em = es.ecc_via_complement(es.build_multipartite([2, 2]))
    assert em.matrix.dtype == np.int64 and not em.matrix.flags.writeable
    assert em.matrix.tolist() == [
        [0, 2, 0, 0],
        [2, 0, 0, 0],
        [0, 0, 0, 2],
        [0, 0, 2, 0],
    ]


def test_doubled_complement_on_octahedron_has_one_entry_per_row():
    em = es.ecc_via_complement(es.build_multipartite([2, 2, 2]))
    assert (np.count_nonzero(em.matrix, axis=1) == 1).all()
    assert set(np.unique(em.matrix)) == {0, 2}


def test_shortcut_agrees_with_definition_on_multipartite_specs():
    for n in range(4, 13):
        for spec in es.enumerate_partitions(n):
            if min(spec.parts) < 2:
                continue
            g = es.build_multipartite(spec)
            assert np.array_equal(
                es.ecc_via_complement(g).matrix, es.eccentricity_matrix(g).matrix
            ), spec


def test_shortcut_agrees_with_definition_on_random_diameter_two_graphs():
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 10:
        n = int(rng.integers(5, 14))
        adj = random_adjacency(n, 0.5, rng)
        dist = floyd_warshall_distances(adj)
        if dist.max() != 2 or adj.sum(axis=1).max() == n - 1:
            continue
        g = es.Graph(adj)
        assert np.array_equal(
            es.ecc_via_complement(g).matrix, es.eccentricity_matrix(g).matrix
        )
        checked += 1


def test_shortcut_preconditions():
    with pytest.raises(PreconditionViolatedError):
        es.ecc_via_complement(es.build_multipartite([3, 1]))  # centre has degree n-1
    with pytest.raises(PreconditionViolatedError):
        es.ecc_via_complement(path_graph(4))  # diameter 3
    with pytest.raises(DisconnectedGraphError):
        es.ecc_via_complement(es.build_multipartite([4]))


@settings(max_examples=150, deadline=None)
@given(same_order_stacks(12))
def test_complement_stack_doubles_each_complement(stack):
    # the members of diameter 2 with no dominating vertex, against the
    # defining rule on Floyd-Warshall distances
    n = stack.shape[1]
    keep = [floyd_warshall_distances(adj).max() == 2 and adj.sum(axis=1).max() < n - 1
            for adj in stack]
    assume(any(keep))
    members = stack[keep]
    doubled = eccentricity._complement_stack(members)
    assert doubled.dtype == np.int64
    for adj, row in zip(members, doubled):
        assert np.array_equal(row, eccentricity_by_definition(adj))


# order-6 members the shortcut refuses, with the error each raises alone:
# two triangles, a path, K_6, and two with a vertex of degree n-1
BAD_MEMBERS = [
    pytest.param(es.Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
                 DisconnectedGraphError, "graph is disconnected", id="disconnected"),
    pytest.param(path_graph(6), PreconditionViolatedError, "shortcut needs diameter exactly 2, got 5",
                 id="diameter5"),
    pytest.param(es.complete(6), PreconditionViolatedError, "shortcut needs diameter exactly 2, got 1",
                 id="complete"),
    pytest.param(es.build_multipartite([5, 1]), PreconditionViolatedError,
                 "shortcut needs maximum degree < n-1", id="star"),
    pytest.param(es.build_multipartite([2, 2, 1, 1]), PreconditionViolatedError,
                 "shortcut needs maximum degree < n-1", id="dominating"),
]


@pytest.mark.parametrize("bad,error,message", BAD_MEMBERS)
@pytest.mark.parametrize("position", range(4))
def test_complement_stack_raises_as_its_bad_member_alone(bad, error, message, position):
    with pytest.raises(error, match=re.escape(message)):
        es.ecc_via_complement(bad)
    good = [es.build_multipartite(parts).adjacency for parts in ([4, 2], [3, 3], [2, 2, 2])]
    good.insert(position, bad.adjacency)
    with pytest.raises(error, match=re.escape(message)):
        eccentricity._complement_stack(np.stack(good))


def test_matrix_invariants_on_random_connected_graphs():
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 10:
        n = int(rng.integers(2, 30))
        adj = random_adjacency(n, 0.3, rng)
        if floyd_warshall_distances(adj).max() >= UNREACHABLE:
            continue
        g = es.Graph(adj)
        em = es.eccentricity_matrix(g)
        dm = es.all_pairs_distances(g)
        assert np.array_equal(em.matrix, em.matrix.T)
        assert (np.diagonal(em.matrix) == 0).all()
        assert em.matrix.min() >= 0 and em.matrix.max() <= dm.diameter
        assert (np.count_nonzero(em.matrix, axis=1) >= 1).all()
        nz = em.matrix != 0
        assert np.array_equal(em.matrix[nz], dm.matrix[nz])
        checked += 1


@settings(max_examples=150, deadline=None)
@given(adjacencies(12, connected=True))
def test_matrix_matches_the_definition_on_random_connected_graphs(adj):
    matrix = es.eccentricity_matrix(es.Graph(adj)).matrix
    assert np.array_equal(matrix, eccentricity_by_definition(adj))


@settings(max_examples=150, deadline=None)
@given(same_order_stacks(12))
def test_matrix_stack_matches_the_definition_and_each_stack_of_one(stack):
    matrices = eccentricity._eccentricity_stack(graphs._seidel(stack))
    for adj, row in zip(stack, matrices):
        assert np.array_equal(row, eccentricity_by_definition(adj))
        alone = es.eccentricity_matrix(es.Graph(adj)).matrix
        assert row.dtype == alone.dtype and row.tobytes() == alone.tobytes()
        assert not alone.flags.writeable


def test_single_vertex_matrix_is_zero():
    em = es.eccentricity_matrix(es.complete(1))
    assert em.matrix.tolist() == [[0]]
