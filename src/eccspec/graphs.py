"""Simple undirected graphs and the generators used throughout the library.

Vertices are always 0..n-1 and adjacency is a dense symmetric boolean matrix.
That keeps every operation a couple of numpy expressions; the library targets
desk-scale graphs (n up to a few thousand), where O(n^2) storage is irrelevant
next to the dense distance and eccentricity matrices built on top.  Every
route that allocates an n x n matrix from an order it was given checks that
order against MAX_ORDER first.

Multipartite adjacency and all-pairs distances each have one kernel that
takes a stack (k, n, n) of equal-order graphs, so the verification sweeps
build and measure a chunk of specs in one call; build_multipartite and
all_pairs_distances are stacks of one.  The graph square `_square` is each
step of Seidel's up pass and the complement route's diameter-2 check.
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
# this order `eccmx` on a diameter-2 graph peaks at about 295 MB (263 MB in
# eccentricity_matrix).  Closed forms of multipartite specs need no bound.
MAX_ORDER = 4096


def check_order(n: int) -> None:
    if n > MAX_ORDER:
        raise OrderTooLargeError(f"order {n} exceeds the maximum of {MAX_ORDER} vertices")


class Graph:
    """Simple undirected graph with a read-only dense adjacency matrix."""

    __slots__ = ("n", "adjacency")

    def __init__(self, adjacency):
        adj = np.array(adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        check_order(adj.shape[0])
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
        check_order(n)
        adj = np.zeros((n, n), dtype=bool)
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRangeError(f"edge ({u}, {v}) outside 0..{n - 1}")
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            adj[u, v] = adj[v, u] = True
        return cls(adj)

    def edges(self) -> list[tuple[int, int]]:
        us, vs = np.nonzero(np.triu(self.adjacency))
        return list(zip(us.tolist(), vs.tolist()))

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.adjacency, other.adjacency)

    def __repr__(self):
        return f"Graph(n={self.n}, edges={np.count_nonzero(self.adjacency) // 2})"


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
        # bool passes operator.index, but True is no class size
        if any(isinstance(x, bool) for x in self.parts):
            raise InvalidSpecError(f"parts must be integers, not booleans: {self.parts!r}")
        if not parts:
            raise InvalidSpecError("parts list is empty")
        if parts[-1] <= 0:
            raise InvalidSpecError(f"all parts must be >= 1, got {parts}")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def _from_sorted(cls, parts: tuple[int, ...]) -> "MultipartiteSpec":
        # a spec from a tuple of ints already sorted non-increasing and
        # positive, with no second sort or check
        spec = object.__new__(cls)
        object.__setattr__(spec, "parts", parts)
        return spec

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


def _multipartite_adjacency(specs) -> np.ndarray:
    """Adjacency stack (k, n, n) of k specs of one order n: u ~ v exactly
    when their class labels differ.  Vertices are laid out class by class,
    largest class first; each class of the stack has its own label.
    """
    n = specs[0].n
    check_order(n)
    sizes = [size for spec in specs for size in spec.parts]
    labels = np.repeat(np.arange(len(sizes)), sizes).reshape(len(specs), n)
    return labels[:, :, None] != labels[:, None, :]


def build_multipartite(parts) -> Graph:
    """Complete multipartite graph: u ~ v exactly when they sit in different classes.

    Vertices are laid out class by class, largest class first.
    """
    return Graph(_multipartite_adjacency([as_spec(parts)])[0])


def complete(n: int) -> Graph:
    return build_multipartite([1] * n)


def star(n: int) -> Graph:
    """Star on n vertices: n-1 leaves joined to one centre."""
    return build_multipartite([n - 1, 1])


def strong_product(g: Graph, h: Graph) -> Graph:
    """Strong product: (v1,w1) ~ (v2,w2) when each coordinate is equal or
    adjacent, excluding the fully-equal pair.  Vertex (v, w) maps to v*h.n + w.
    """
    check_order(g.n * h.n)
    closed = np.kron(g.adjacency | np.eye(g.n, dtype=bool), h.adjacency | np.eye(h.n, dtype=bool))
    np.fill_diagonal(closed, False)
    return Graph(closed)


@dataclass(frozen=True)
class DistanceMatrix:
    """Exact shortest-path distances with per-vertex eccentricities."""

    matrix: np.ndarray
    eccentricities: np.ndarray
    diameter: int


def _square(adjacency: np.ndarray) -> np.ndarray:
    """The pairs of distinct vertices at distance at most 2 in each graph of
    a (k, n, n) adjacency stack, as a bool stack.  The one float32 product
    is exact: each entry counts at most n - 1 < 2^24 common neighbours."""
    count, n, _ = adjacency.shape
    reach = adjacency.astype(np.float32)
    near = reach @ reach > 0
    near |= adjacency
    near.reshape(count, n * n)[:, ::n + 1] = False
    return near


def _seidel(adjacency: np.ndarray) -> np.ndarray:
    """Distance stack (k, n, n) int64 of a (k, n, n) adjacency stack, by
    Seidel's algorithm (JCSS 1995).

    Up: level k + 1 joins the vertices at distance at most 2 in level k,
    one _square each, until every member's level is complete: ceil(log2(d))
    products for the largest diameter d.  A complete level squares to
    itself, so members of smaller diameter share the levels above theirs.
    Down: the top stored level squares to the complete graph, so its
    distances are 1 on its edges and 2 off them, with no product.  Each
    lower level A takes D to 2D minus the indicator of (D A)_uv < D_uv
    deg(v), one product each.  That is 2 ceil(log2(d)) - 1 products in all,
    one for a diameter-2 graph, against d - 1 for a breadth-first search.
    Levels are kept as bool; products run in float32 and are exact, so each
    member gets the distances it would get alone.

    Raises DisconnectedGraphError when some member has an unreachable pair.
    """
    # a down-pass product entry sums at most n - 1 integers in [0, n - 1]:
    # below (MAX_ORDER - 1)^2 < 2^24, as is D_uv deg(v), so float32 is exact
    count, n, _ = adjacency.shape
    all_edges = count * n * (n - 1)
    levels = [adjacency]
    edges = np.count_nonzero(adjacency)
    while edges < all_edges:
        up = _square(levels[-1])
        grown = np.count_nonzero(up)
        # squaring only adds edges, and a complete member stays complete, so
        # a stack that stops growing short of complete has a member with a
        # pair no path joins
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
    while levels:
        adj = levels.pop().astype(np.float32)
        product = dist @ adj
        np.multiply(dist, adj.sum(axis=1, keepdims=True), out=adj)
        odd = product < adj
        del adj, product
        dist *= 2
        dist -= odd
    return dist.astype(np.int64)


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """Distances between all pairs by Seidel's algorithm, as a stack of one.

    Raises DisconnectedGraphError when some pair is unreachable, since the
    eccentricity (and everything downstream of it) is undefined there.
    """
    dist = _seidel(g.adjacency[None])[0]
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
