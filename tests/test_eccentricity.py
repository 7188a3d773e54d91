"""Eccentricity matrix construction and the doubled-complement shortcut."""

import numpy as np
import pytest
from hypothesis import given, settings

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
    assert em.provenance == "definition"


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
    for spec in es.enumerate_partitions(n, connected_only=True):
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
    assert em.provenance == "complement"
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
        for spec in es.enumerate_partitions(n, connected_only=True):
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
