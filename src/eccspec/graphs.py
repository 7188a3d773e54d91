"""Simple undirected graphs and the generators used throughout the library.

Vertices are always 0..n-1 and adjacency is a dense symmetric boolean matrix.
That keeps every operation a couple of numpy expressions; the library targets
desk-scale graphs (n up to a few thousand), where O(n^2) storage is irrelevant
next to the dense distance and eccentricity matrices built on top.  Every
route that allocates an n x n matrix from an order it was given checks that
order against MAX_ORDER first.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DisconnectedGraphError,
    InvalidSpecError,
    OrderTooLargeError,
    PreconditionViolatedError,
    SelfLoopError,
    VertexOutOfRangeError,
)

# Largest order a graph may have.  Dense storage keeps a handful of n x n
# matrices alive at once (adjacency, distances, the eccentricity matrix): at
# this order the eccentricity matrix of a diameter-2 graph peaks at about
# 600 MB.  Closed forms of multipartite specs build no graph and need no bound.
MAX_ORDER = 4096


def _check_order(n: int) -> None:
    if n > MAX_ORDER:
        raise OrderTooLargeError(f"order {n} exceeds the maximum of {MAX_ORDER} vertices")


class Graph:
    """Simple undirected graph with a read-only dense adjacency matrix."""

    __slots__ = ("n", "adjacency")

    def __init__(self, adjacency):
        adj = np.array(adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if adj.shape[0] == 0:
            raise ValueError("graphs have at least one vertex")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        if bool(np.diagonal(adj).any()):
            raise ValueError("self-loops are not allowed")
        adj.setflags(write=False)
        self.n = int(adj.shape[0])
        self.adjacency = adj

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build a graph on n vertices from (u, v) pairs; duplicates are fine.

        Raises OrderTooLargeError above MAX_ORDER vertices, and
        VertexOutOfRangeError or SelfLoopError, both ValueErrors.
        """
        _check_order(n)
        adj = np.zeros((n, n), dtype=bool)
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRangeError(f"edge ({u}, {v}) outside 0..{n - 1}")
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            adj[u, v] = adj[v, u] = True
        return cls(adj)

    @property
    def num_edges(self) -> int:
        return int(self.adjacency.sum()) // 2

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)

    def edges(self) -> list[tuple[int, int]]:
        us, vs = np.nonzero(np.triu(self.adjacency))
        return list(zip(us.tolist(), vs.tolist()))

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.adjacency, other.adjacency)

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.num_edges})"


@dataclass(frozen=True)
class MultipartiteSpec:
    """A partition n1 >= n2 >= ... >= np >= 1 naming the graph K_{n1,...,np}.

    The constructor sorts, so equality of specs is set-equality of partitions.
    """

    parts: tuple[int, ...]

    def __post_init__(self):
        try:
            parts = tuple(sorted((operator.index(x) for x in self.parts), reverse=True))
        except TypeError as exc:
            raise InvalidSpecError(f"parts must be integers: {self.parts!r}") from exc
        if not parts:
            raise InvalidSpecError("parts list is empty")
        if parts[-1] <= 0:
            raise InvalidSpecError(f"all parts must be >= 1, got {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def p(self) -> int:
        return len(self.parts)

    def __str__(self):
        return "K_{" + ",".join(str(x) for x in self.parts) + "}"


def as_spec(parts) -> MultipartiteSpec:
    """Accept a MultipartiteSpec or any iterable of class sizes."""
    if isinstance(parts, MultipartiteSpec):
        return parts
    return MultipartiteSpec(tuple(parts))


def build_multipartite(parts) -> Graph:
    """Complete multipartite graph: u ~ v exactly when they sit in different classes.

    Vertices are laid out class by class, largest class first.
    """
    spec = as_spec(parts)
    _check_order(spec.n)
    labels = np.repeat(np.arange(spec.p), spec.parts)
    return Graph(labels[:, None] != labels[None, :])


def complete(n: int) -> Graph:
    return build_multipartite([1] * n)


def star(n: int) -> Graph:
    """Star on n vertices: n-1 leaves joined to one centre."""
    return build_multipartite([n - 1, 1])


def complement(g: Graph) -> Graph:
    adj = ~g.adjacency
    np.fill_diagonal(adj, False)
    return Graph(adj)


def strong_product(g: Graph, h: Graph) -> Graph:
    """Strong product: (v1,w1) ~ (v2,w2) when each coordinate is equal or
    adjacent, excluding the fully-equal pair.  Vertex (v, w) maps to v*h.n + w.
    """
    _check_order(g.n * h.n)
    closed = np.kron(g.adjacency | np.eye(g.n, dtype=bool), h.adjacency | np.eye(h.n, dtype=bool))
    np.fill_diagonal(closed, False)
    return Graph(closed)


@dataclass(frozen=True)
class DistanceMatrix:
    """Exact shortest-path distances with per-vertex eccentricities."""

    matrix: np.ndarray
    eccentricities: np.ndarray
    diameter: int


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """Distances between all pairs by Seidel's algorithm (JCSS 1995).

    Up: level k + 1 joins the vertices at distance at most 2 in level k,
    one squaring each, until a level is complete: ceil(log2(d)) products
    for diameter d.  Down: the top stored level squares to the complete
    graph, so its distances are 1 on its edges and 2 off them, with no
    product.  Each lower level A takes D to 2D minus the indicator of
    (D A)_uv < D_uv deg(v), one product each.  That is 2 ceil(log2(d)) - 1
    products in all, one for a diameter-2 graph, against d - 1 for a
    breadth-first search.  Levels are kept as bool; products run in float32.

    Raises DisconnectedGraphError when some pair is unreachable, since the
    eccentricity (and everything downstream of it) is undefined there.
    """
    # Every product entry is a sum of at most n - 1 non-negative integers,
    # each at most n - 1, so at most (MAX_ORDER - 1)^2 < 2^24: float32 holds
    # it, and D_uv deg(v), exactly.
    all_edges = g.n * (g.n - 1)
    levels = [g.adjacency]
    edges = int(np.count_nonzero(g.adjacency))
    while edges < all_edges:
        reach = levels[-1].astype(np.float32)
        up = (reach @ reach > 0) | levels[-1]
        del reach
        np.fill_diagonal(up, False)
        grown = int(np.count_nonzero(up))
        # squaring only adds edges, so a level that stops growing short of
        # the complete graph has a pair no path joins
        if grown == edges:
            raise DisconnectedGraphError(
                "graph is disconnected; eccentricities are undefined"
            )
        levels.append(up)
        edges = grown
    # the complete level has distance 1 between every pair; each level below
    # doubles the distances and takes 1 off those its parity test finds odd
    dist = levels.pop().astype(np.float32)
    if levels:
        dist = 2 * dist - levels.pop()
    for level in reversed(levels):
        adj = level.astype(np.float32)
        odd = dist @ adj < dist * adj.sum(axis=0)
        del adj
        dist *= 2
        dist -= odd
    dist = dist.astype(np.int64)
    dist.setflags(write=False)
    ecc = dist.max(axis=1)
    ecc.setflags(write=False)
    return DistanceMatrix(dist, ecc, int(ecc.max()))


def antipodal_class(g: Graph) -> int | None:
    """Common fibre size when "equal or at diameter distance" is an equivalence
    relation with equally sized classes; None otherwise.

    For complete graphs every pair is at diameter distance 1, so the single
    fibre has size n and the result is n.
    """
    if g.n < 2:
        raise PreconditionViolatedError("antipodal structure needs at least two vertices")
    dm = all_pairs_distances(g)
    rel = dm.matrix == dm.diameter
    np.fill_diagonal(rel, True)
    # rel is reflexive and symmetric; it is transitive exactly when the
    # vertices sharing each distinct row are that row's members
    rows, counts = np.unique(rel, axis=0, return_counts=True)
    if (rows.sum(axis=1) != counts).any() or counts.min() != counts.max():
        return None
    return int(counts[0])
