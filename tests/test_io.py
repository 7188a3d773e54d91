"""Edge-list and graph6 serialisation."""

import numpy as np
import pytest
from hypothesis import example, given, settings

import eccspec as es
from eccspec.errors import (
    Graph6FormatError,
    InvalidByteError,
    MalformedHeaderError,
    OrderTooLargeError,
    SelfLoopError,
    TruncatedPayloadError,
    VertexOutOfRangeError,
)
from eccspec.graphs import MAX_ORDER
from helpers import adjacencies, random_adjacency


# edge lists


def test_parse_four_cycle():
    g = es.parse_edge_list("4 4\n0 1\n1 2\n2 3\n3 0")
    assert len(g.edges()) == 4
    assert all(d == 2 for d in g.adjacency.sum(axis=1))


def test_parse_single_edge():
    assert es.parse_edge_list("2 1\n0 1") == es.complete(2)


def test_parse_tolerates_duplicates_and_blank_lines():
    g = es.parse_edge_list("2 2\n\n0 1\n1 0\n")
    assert len(g.edges()) == 1


def test_parse_vertex_out_of_range():
    with pytest.raises(VertexOutOfRangeError):
        es.parse_edge_list("3 1\n0 3")


def test_parse_self_loop():
    with pytest.raises(SelfLoopError):
        es.parse_edge_list("3 1\n1 1")


@pytest.mark.parametrize(
    "text",
    ["", "3", "a b", "0 0", "3 2\n0 1", "3 1\n0 1\n1 2", "3 1\n0 1 2", "3 1\nx y"],
)
def test_parse_malformed_edge_lists(text):
    with pytest.raises(MalformedHeaderError):
        es.parse_edge_list(text)


def test_edge_list_round_trip():
    rng = np.random.default_rng(11)
    for n in (1, 2, 7, 15):
        g = es.Graph(random_adjacency(n, 0.4, rng))
        assert es.parse_edge_list(es.emit_edge_list(g)) == g


# graph6


def test_parse_known_strings():
    assert es.parse_graph6("A_") == es.complete(2)
    assert len(es.parse_graph6("A?").edges()) == 0
    star = es.parse_graph6("D?{")  # 5 vertices, centre last
    assert star.n == 5
    assert sorted(star.adjacency.sum(axis=1).tolist()) == [1, 1, 1, 1, 4]
    assert star.edges() == [(0, 4), (1, 4), (2, 4), (3, 4)]


def test_parse_strips_the_optional_header():
    assert es.parse_graph6(">>graph6<<A_") == es.complete(2)


def test_round_trip_all_multipartite_graphs_up_to_eight():
    for n in range(2, 9):
        # the edgeless single class [n] included
        for spec in [es.MultipartiteSpec((n,)), *es.enumerate_partitions(n)]:
            g = es.build_multipartite(spec)
            assert es.parse_graph6(es.emit_graph6(g)) == g


def test_round_trip_random_graphs():
    rng = np.random.default_rng(12)
    for n in (1, 2, 3, 10, 12):
        for _ in range(5):
            g = es.Graph(random_adjacency(n, 0.5, rng))
            assert es.parse_graph6(es.emit_graph6(g)) == g


def test_round_trip_long_order_form():
    rng = np.random.default_rng(13)
    g = es.Graph(random_adjacency(70, 0.1, rng))
    encoded = es.emit_graph6(g)
    assert encoded.startswith("~")
    assert es.parse_graph6(encoded) == g


def _complete_adjacency(n):
    return ~np.eye(n, dtype=bool)


# orders 1..70 cross graph6's "~" long-order form at 63; the examples pin
# both sides of that boundary
@settings(max_examples=50, deadline=None)
@given(adjacencies(70))
@example(_complete_adjacency(62))
@example(_complete_adjacency(63))
@example(np.zeros((64, 64), dtype=bool))
def test_both_formats_round_trip_random_graphs(adj):
    g = es.Graph(adj)
    encoded = es.emit_graph6(g)
    assert encoded.startswith("~") == (g.n >= 63)
    assert es.parse_graph6(encoded) == g
    assert es.parse_edge_list(es.emit_edge_list(g)) == g


def test_invalid_bytes_are_rejected():
    with pytest.raises(InvalidByteError):
        es.parse_graph6("A" + chr(20))
    with pytest.raises(InvalidByteError):
        es.parse_graph6(chr(200) + "?")


def test_payload_length_must_match():
    with pytest.raises(TruncatedPayloadError):
        es.parse_graph6("D?")      # too short for n=5
    with pytest.raises(TruncatedPayloadError):
        es.parse_graph6("A_?")     # extra byte
    with pytest.raises(TruncatedPayloadError):
        es.parse_graph6("")


def test_vertexless_encoding_is_rejected():
    with pytest.raises(Graph6FormatError):
        es.parse_graph6("?")


def test_edge_list_order_is_bounded_before_allocation():
    assert es.parse_edge_list(f"{MAX_ORDER} 0\n").n == MAX_ORDER
    with pytest.raises(OrderTooLargeError):
        es.parse_edge_list(f"{MAX_ORDER + 1} 0\n")


def test_graph6_order_is_bounded_before_the_payload_check():
    # a long-form order field above the bound and no payload: the order
    # guard fires, not the payload-length check
    n = MAX_ORDER + 1
    order_field = "~" + "".join(chr(63 + ((n >> shift) & 63)) for shift in (12, 6, 0))
    with pytest.raises(OrderTooLargeError):
        es.parse_graph6(order_field)
