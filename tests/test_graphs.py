"""Graph construction, multipartite generators, distances, antipodal fibres."""

import numpy as np
import pytest
from hypothesis import given, settings

import eccspec as es
import eccspec.graphs as graphs
from eccspec.errors import (
    DisconnectedGraphError,
    InvalidSpecError,
    OrderTooLargeError,
    PreconditionViolatedError,
    SelfLoopError,
    VertexOutOfRangeError,
)
from eccspec.graphs import MAX_ORDER
from helpers import (
    UNREACHABLE,
    adjacencies,
    antipodal_fibre_size_loop,
    floyd_warshall_distances,
    random_adjacency,
    same_order_stacks,
    strong_product_by_edge_rule,
)


def path_graph(n):
    return es.Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return es.Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


# generators


def test_multipartite_triangle():
    g = es.build_multipartite([1, 1, 1])
    assert g.n == 3 and len(g.edges()) == 3


def test_multipartite_star():
    g = es.build_multipartite([3, 1])
    assert len(g.edges()) == 3
    assert sorted(g.adjacency.sum(axis=1).tolist()) == [1, 1, 1, 3]


def test_multipartite_four_cycle_edges_by_class_membership():
    # independent oracle: enumerate edges straight from class labels
    labels = [0, 0, 1, 1]
    expected = {
        (u, v)
        for u in range(4)
        for v in range(u + 1, 4)
        if labels[u] != labels[v]
    }
    g = es.build_multipartite([2, 2])
    assert set(g.edges()) == expected
    assert len(g.edges()) == 4
    assert all(d == 2 for d in g.adjacency.sum(axis=1))


@pytest.mark.parametrize("parts", [[4, 3, 1], [2, 2, 2], [5, 1, 1], [3, 3, 2, 1]])
def test_degree_of_class_members(parts):
    spec = es.as_spec(parts)
    g = es.build_multipartite(spec)
    labels = np.repeat(np.arange(spec.p), spec.parts)
    for v in range(g.n):
        assert g.adjacency.sum(axis=1)[v] == spec.n - spec.parts[labels[v]]


def test_spec_canonicalises_and_compares():
    assert es.MultipartiteSpec((1, 3)).parts == (3, 1)
    assert es.as_spec([2, 1, 2]) == es.MultipartiteSpec((2, 2, 1))
    spec = es.as_spec([4, 2, 1])
    assert spec.n == 7 and spec.p == 3


@pytest.mark.parametrize("parts", [[], [0], [2, 0], [-1, 3]])
def test_spec_rejects_bad_parts(parts):
    with pytest.raises(InvalidSpecError):
        es.as_spec(parts)


@pytest.mark.parametrize("parts", [(2.5, 1), ("3", 1), (True, True)])
def test_spec_rejects_parts_that_are_not_integers(parts):
    with pytest.raises(InvalidSpecError):
        es.MultipartiteSpec(parts)
    with pytest.raises(InvalidSpecError):
        es.multipartite_spectrum_closed(list(parts))


def test_spec_accepts_numpy_integers():
    spec = es.MultipartiteSpec((np.int64(3), np.int32(1)))
    assert spec.parts == (3, 1)
    assert all(type(x) is int for x in spec.parts)


def test_multipartite_stack_rows_follow_the_class_rule():
    # the edgeless single class [7] included
    specs = [es.MultipartiteSpec((7,)), *es.enumerate_partitions(7)]
    stack = graphs._multipartite_adjacency(specs)
    assert stack.shape == (len(specs), 7, 7) and stack.dtype == bool
    for spec, row in zip(specs, stack):
        label = [c for c, size in enumerate(spec.parts) for _ in range(size)]
        assert row.tolist() == [[label[u] != label[v] for v in range(7)] for u in range(7)]


def test_convenience_generators_delegate():
    assert es.star(5) == es.build_multipartite([4, 1])
    assert len(es.complete(4).edges()) == 6


# complement


@pytest.mark.parametrize("n", range(2, 11))
def test_complement_of_multipartite_is_disjoint_cliques(n):
    # the non-adjacent pairs of K_{n1,...,np}, each vertex with itself
    # included, are the pairs inside one class; the edgeless single class
    # [n] is one clique
    for spec in [es.MultipartiteSpec((n,)), *es.enumerate_partitions(n)]:
        labels = np.repeat(np.arange(spec.p), spec.parts)
        expected = labels[:, None] == labels[None, :]
        assert np.array_equal(~es.build_multipartite(spec).adjacency, expected)


# strong product


def test_strong_product_of_edges_is_k4():
    k2 = es.complete(2)
    assert es.strong_product(k2, k2) == es.complete(4)


def test_strong_product_k22_k2_is_five_regular_on_eight_vertices():
    g = es.strong_product(es.build_multipartite([2, 2]), es.complete(2))
    assert g.n == 8
    assert all(d == 5 for d in g.adjacency.sum(axis=1))


def test_strong_product_with_single_vertex_is_identity():
    g = es.build_multipartite([3, 2])
    assert es.strong_product(g, es.complete(1)) == g


def test_strong_product_vertex_count():
    g = es.strong_product(path_graph(3), cycle_graph(5))
    assert g.n == 15


@pytest.mark.parametrize(
    "g,h",
    [
        (path_graph(3), path_graph(4)),
        (es.build_multipartite([2, 2]), es.complete(2)),
        (cycle_graph(5), path_graph(2)),
    ],
)
def test_strong_product_distances_take_coordinate_maximum(g, h):
    product = es.strong_product(g, h)
    dg = floyd_warshall_distances(g.adjacency)
    dh = floyd_warshall_distances(h.adjacency)
    dp = floyd_warshall_distances(product.adjacency)
    expected = np.maximum(np.kron(dg, np.ones((h.n, h.n), dtype=np.int64)),
                          np.kron(np.ones((g.n, g.n), dtype=np.int64), dh))
    assert np.array_equal(dp, expected)


@settings(max_examples=60, deadline=None)
@given(adjacencies(5), adjacencies(5))
def test_strong_product_matches_the_edge_rule(a, b):
    product = es.strong_product(es.Graph(a), es.Graph(b))
    assert np.array_equal(product.adjacency, strong_product_by_edge_rule(a, b))


# distances


def test_path_distances_and_eccentricities():
    dm = es.all_pairs_distances(path_graph(3))
    assert dm.matrix.max() == 2
    assert dm.eccentricities.tolist() == [2, 1, 2]
    assert dm.diameter == 2


def test_complete_graph_distances_all_one():
    dm = es.all_pairs_distances(es.complete(5))
    off = dm.matrix[~np.eye(5, dtype=bool)]
    assert (off == 1).all()


def test_multipartite_diameter_two_and_singleton_eccentricity_one():
    dm = es.all_pairs_distances(es.build_multipartite([3, 2, 1]))
    assert dm.diameter == 2
    # the singleton class occupies the final vertex slot
    assert dm.eccentricities.tolist() == [2, 2, 2, 2, 2, 1]


def test_distances_match_floyd_warshall_and_triangle_inequality():
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 8:
        n = int(rng.integers(4, 50))
        adj = random_adjacency(n, 0.15, rng)
        oracle = floyd_warshall_distances(adj)
        if oracle.max() >= UNREACHABLE:
            continue
        dm = es.all_pairs_distances(es.Graph(adj))
        assert np.array_equal(dm.matrix, oracle)
        assert np.array_equal(dm.matrix, dm.matrix.T)
        assert (np.diagonal(dm.matrix) == 0).all()
        for k in range(n):
            assert (dm.matrix <= dm.matrix[:, k][:, None] + dm.matrix[k][None, :]).all()
        checked += 1


@pytest.mark.parametrize("parts", [[256, 2], [512, 2]])
def test_distances_survive_more_than_255_common_neighbours(parts):
    # the two vertices of the small class share 256 or 512 neighbours
    g = es.build_multipartite(parts)
    dm = es.all_pairs_distances(g)
    assert np.array_equal(dm.matrix, floyd_warshall_distances(g.adjacency))
    assert dm.diameter == 2


def test_path_distances_match_floyd_warshall():
    g = path_graph(60)
    dm = es.all_pairs_distances(g)
    assert np.array_equal(dm.matrix, floyd_warshall_distances(g.adjacency))
    assert dm.diameter == 59


def test_distance_outputs_are_read_only():
    dm = es.all_pairs_distances(path_graph(5))
    assert not dm.matrix.flags.writeable and not dm.eccentricities.flags.writeable


def test_disconnected_graph_is_rejected():
    with pytest.raises(DisconnectedGraphError):
        es.all_pairs_distances(es.build_multipartite([4]))


@settings(max_examples=200, deadline=None)
@given(adjacencies(16))
def test_distances_match_floyd_warshall_on_any_graph(adj):
    oracle = floyd_warshall_distances(adj)
    if oracle.max() >= UNREACHABLE:
        with pytest.raises(DisconnectedGraphError, match="graph is disconnected"):
            es.all_pairs_distances(es.Graph(adj))
        return
    dm = es.all_pairs_distances(es.Graph(adj))
    assert dm.matrix.dtype == np.int64
    assert np.array_equal(dm.matrix, oracle)
    assert dm.eccentricities.tolist() == oracle.max(axis=1).tolist()
    assert dm.diameter == oracle.max()


@settings(max_examples=150, deadline=None)
@given(same_order_stacks(12))
def test_distance_stack_matches_floyd_warshall_and_each_stack_of_one(stack):
    dist = graphs._seidel(stack)
    assert dist.shape == stack.shape and dist.dtype == np.int64
    for adj, row in zip(stack, dist):
        assert np.array_equal(row, floyd_warshall_distances(adj))
        alone = es.all_pairs_distances(es.Graph(adj)).matrix
        assert row.dtype == alone.dtype and row.tobytes() == alone.tobytes()


@given(same_order_stacks(12))
def test_graph_square_joins_exactly_the_pairs_within_distance_two(stack):
    near = graphs._square(stack)
    assert near.shape == stack.shape and near.dtype == bool
    for adj, row in zip(stack, near):
        expected = floyd_warshall_distances(adj) <= 2
        np.fill_diagonal(expected, False)
        assert np.array_equal(row, expected)


def test_stack_members_of_different_diameters_share_levels():
    # diameters 8, 4, 2 and 1: the smaller ones ride through complete levels
    n = 9
    members = [path_graph(n), cycle_graph(n), es.star(n), es.complete(n)]
    dist = graphs._seidel(np.stack([g.adjacency for g in members]))
    assert dist.max(axis=(1, 2)).tolist() == [8, 4, 2, 1]
    for g, row in zip(members, dist):
        assert np.array_equal(row, floyd_warshall_distances(g.adjacency))


@pytest.mark.parametrize("position", range(3))
def test_a_stack_with_one_disconnected_member_is_rejected(position):
    # the path's levels keep the stack growing after the isolated vertex's
    # member has stopped
    n = 9
    members = [path_graph(n).adjacency, es.complete(n).adjacency]
    members.insert(position, es.Graph.from_edges(n, [(i, i + 1) for i in range(n - 2)]).adjacency)
    with pytest.raises(DisconnectedGraphError, match="graph is disconnected"):
        graphs._seidel(np.stack(members))


def test_long_paths_and_cycles_by_their_closed_distances():
    n = 300
    offset = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    path = es.all_pairs_distances(path_graph(n))
    assert np.array_equal(path.matrix, offset)
    assert path.diameter == n - 1
    cycle = es.all_pairs_distances(cycle_graph(n))
    assert np.array_equal(cycle.matrix, np.minimum(offset, n - offset))
    assert cycle.diameter == n // 2


def test_single_vertex_has_distance_zero():
    dm = es.all_pairs_distances(es.complete(1))
    assert dm.matrix.tolist() == [[0]]
    assert dm.eccentricities.tolist() == [0] and dm.diameter == 0


def test_path_with_an_isolated_vertex_is_rejected():
    g = es.Graph.from_edges(6, [(i, i + 1) for i in range(4)])
    with pytest.raises(DisconnectedGraphError):
        es.all_pairs_distances(g)


def test_float32_products_stay_exact_up_to_the_order_bound():
    # every distance product entry is at most (n - 1)^2, and float32 holds
    # every integer up to 2^24 but not 2^24 + 1: a MAX_ORDER above 4096 fails
    # here until the distance products move to a wider type
    assert (MAX_ORDER - 1) ** 2 < 2 ** 24
    assert float(np.float32(2 ** 24 + 1)) != 2 ** 24 + 1


# antipodal structure


@pytest.mark.parametrize("a,copies", [(2, 2), (2, 3), (3, 3)])
def test_balanced_multipartite_is_a_antipodal(a, copies):
    assert es.antipodal_class(es.build_multipartite([a] * copies)) == a


def test_complete_graph_forms_one_fibre_of_size_n():
    assert es.antipodal_class(es.complete(5)) == 5


def test_path_four_has_unequal_fibres():
    assert es.antipodal_class(path_graph(4)) is None


def test_unbalanced_and_odd_cycles_are_not_antipodal():
    assert es.antipodal_class(es.build_multipartite([3, 2])) is None
    assert es.antipodal_class(cycle_graph(5)) is None


def test_even_cycle_is_antipodal():
    assert es.antipodal_class(cycle_graph(6)) == 2


@settings(max_examples=150, deadline=None)
@given(adjacencies(12, connected=True))
def test_antipodal_class_matches_the_loop_oracle_on_random_graphs(adj):
    assert es.antipodal_class(es.Graph(adj)) == antipodal_fibre_size_loop(adj)


def test_antipodal_class_matches_the_loop_oracle_on_multipartite_specs():
    fibred = 0
    for n in range(2, 11):
        for spec in es.enumerate_partitions(n):
            g = es.build_multipartite(spec)
            size = es.antipodal_class(g)
            assert size == antipodal_fibre_size_loop(g.adjacency), spec
            fibred += size is not None
    # the balanced specs and the complete graphs
    assert fibred == sum(len({*s.parts}) == 1 for n in range(2, 11)
                         for s in es.enumerate_partitions(n))


def test_antipodal_needs_two_vertices():
    with pytest.raises(PreconditionViolatedError):
        es.antipodal_class(es.complete(1))


# validation


def test_graph_rejects_bad_adjacency():
    with pytest.raises(ValueError):
        es.Graph(np.ones((2, 3), dtype=bool))
    with pytest.raises(ValueError):
        es.Graph(np.array([[0, 1], [0, 0]], dtype=bool))
    with pytest.raises(ValueError):
        es.Graph(np.array([[1]], dtype=bool))
    with pytest.raises(ValueError):
        es.Graph(np.zeros((0, 0), dtype=bool))


def test_from_edges_validates():
    with pytest.raises(ValueError):
        es.Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        es.Graph.from_edges(3, [(1, 1)])
    g = es.Graph.from_edges(3, [(0, 1), (1, 0)])
    assert len(g.edges()) == 1


def test_from_edges_raises_the_typed_edge_errors():
    with pytest.raises(VertexOutOfRangeError):
        es.Graph.from_edges(3, [(0, 1), (-1, 2)])
    with pytest.raises(SelfLoopError):
        es.Graph.from_edges(3, [(2, 2)])


def test_generators_bound_the_order_but_closed_forms_do_not():
    with pytest.raises(OrderTooLargeError):
        es.build_multipartite([MAX_ORDER, 1])
    with pytest.raises(OrderTooLargeError):
        es.strong_product(es.complete(65), es.complete(64))
    with pytest.raises(OrderTooLargeError):
        es.Graph.from_edges(MAX_ORDER + 1, [])
    with pytest.raises(OrderTooLargeError):
        es.Graph(np.zeros((MAX_ORDER + 1, MAX_ORDER + 1), dtype=bool))
    closed = es.multipartite_spectrum_closed([MAX_ORDER, 1])
    assert sum(m for _, m in closed.entries) == MAX_ORDER + 1
