"""The benchmark's own graph generators, text encoders and oracles.

Everything here is independent of eccspec: inputs are generated as plain
edge lists and handed to the program only as part lists, edge-list text,
graph6 strings or argv, and the oracles recompute distances with a plain BFS
and spectra with LAPACK (numpy.linalg.eigvalsh).
"""

import hashlib
from collections import deque

import numpy as np


# ---------------------------------------------------------------- generators

def multipartite_edges(parts):
    """Edges of K_{parts}, classes laid out largest first, one after another."""
    labels = [c for c, size in enumerate(sorted(parts, reverse=True)) for _ in range(size)]
    n = len(labels)
    return n, [(u, v) for u in range(n) for v in range(u + 1, n) if labels[u] != labels[v]]


def product_edges(k):
    """Edges of the strong product K_{k,k} x K_2; vertex (v, w) is 2*v + w."""
    n_base, base = multipartite_edges([k, k])
    adjacent = set(base)
    n = 2 * n_base
    edges = []
    for v1 in range(n_base):
        for v2 in range(v1, n_base):
            near = v1 == v2 or (v1, v2) in adjacent
            if not near:
                continue
            for w1 in range(2):
                for w2 in range(2):
                    a, b = 2 * v1 + w1, 2 * v2 + w2
                    if a < b:
                        edges.append((a, b))
    return n, edges


def gnp_connected(rng, n, p):
    """G(n, p) conditioned on being connected (rejection sampling)."""
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        if _is_connected(n, edges):
            return edges


def path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n):
    return path_edges(n) + [(n - 1, 0)]


def grid_edges(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return edges


def tree_with_diameter(rng, n, diameter):
    """A random tree on n vertices whose diameter is exactly `diameter`.

    A spine path 0..diameter is grown into a tree by attaching each further
    vertex to a random existing vertex whose hair stays short enough never
    to lengthen the spine: a vertex hanging off spine index i sits at most
    min(i, diameter - i) from the spine.
    """
    if not 2 <= diameter < n:
        raise ValueError(f"need 2 <= diameter < n, got n={n} diameter={diameter}")
    edges = path_edges(diameter + 1)
    root = list(range(diameter + 1))             # spine index each vertex hangs off
    depth = [0] * (diameter + 1)
    eligible = [v for v in range(diameter + 1) if min(v, diameter - v) >= 1]
    for v in range(diameter + 1, n):
        parent = rng.choice(eligible)
        edges.append((parent, v))
        root.append(root[parent])
        depth.append(depth[parent] + 1)
        if depth[v] < min(root[v], diameter - root[v]):
            eligible.append(v)
    return edges


def add_chords(rng, n, edges, count, diameter):
    """Add `count` chords between vertices 3..8 apart, keeping the diameter.

    Chords only shorten distances, so the diameter is unchanged as long as
    the two spine ends 0 and `diameter` stay `diameter` apart.
    """
    edges = list(edges)
    added = 0
    while added < count:
        u = rng.randrange(n)
        dist = bfs_from(n, _adjacency_lists(n, edges), u)
        candidates = [v for v in range(n) if 3 <= dist[v] <= 8]
        if not candidates:
            continue
        v = rng.choice(candidates)
        trial = edges + [(u, v)]
        if bfs_from(n, _adjacency_lists(n, trial), 0)[diameter] != diameter:
            continue
        edges = trial
        added += 1
    return edges


def relabel(rng, n, edges):
    """Apply a random vertex permutation and edge order."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) for u, v in edges]
    out = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in out]
    rng.shuffle(out)
    return out


def random_partition(rng, n, min_parts=2):
    """A random partition of n with at least `min_parts` classes."""
    while True:
        cuts = sorted(rng.sample(range(1, n), rng.randint(min_parts - 1, n - 1)))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        if len(parts) >= min_parts:
            return sorted(parts, reverse=True)


def mixed_partition(rng, n, large_classes, singles):
    """A partition of n with `large_classes` classes of size >= 2 and
    `singles` singleton classes; the spare vertices land in random classes."""
    rest = n - singles - 2 * large_classes
    if rest < 0:
        raise ValueError("not enough vertices for the requested classes")
    sizes = [2] * large_classes
    for _ in range(rest):
        sizes[rng.randrange(large_classes)] += 1
    return sorted(sizes, reverse=True) + [1] * singles


def all_partitions(n):
    """Every partition of n, largest part first."""
    def rec(remaining, cap):
        if remaining == 0:
            yield []
            return
        for k in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - k, k):
                yield [k] + rest
    return list(rec(n, n))


# ------------------------------------------------------------------ encoders

def edge_list_text(n, edges):
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def graph6(n, edges):
    """graph6 encoding: order field, then the upper triangle packed column by
    column, six bits per byte offset by 63."""
    if not 1 <= n <= 258047:
        raise ValueError("graph6 covers 1 <= n <= 258047")
    order = chr(63 + n) if n <= 62 else "~" + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (u, v) in present else 0 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    chunks = [bits[i:i + 6] for i in range(0, len(bits), 6)]
    return order + "".join(chr(63 + int("".join(map(str, c)), 2)) for c in chunks)


# ------------------------------------------------------------------- oracles

def _adjacency_lists(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs_from(n, adj, source):
    dist = [-1] * n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def _is_connected(n, edges):
    return min(bfs_from(n, _adjacency_lists(n, edges), 0)) >= 0


def eccentricity_matrix(n, edges):
    """Eccentricity matrix by definition, from one BFS per vertex."""
    adj = _adjacency_lists(n, edges)
    dist = np.array([bfs_from(n, adj, s) for s in range(n)], dtype=np.int64)
    if (dist < 0).any():
        raise ValueError("graph is disconnected")
    ecc = dist.max(axis=1)
    keep = dist == np.minimum(ecc[:, None], ecc[None, :])
    return np.where(keep, dist, 0)


def eigenvalues(matrix):
    """LAPACK eigenvalues, descending."""
    return np.linalg.eigvalsh(np.asarray(matrix, dtype=np.float64))[::-1]


def digest(matrix):
    """Content hash of an integer matrix, independent of its dtype."""
    m = np.ascontiguousarray(matrix, dtype=np.int64)
    return hashlib.sha1(repr(m.shape).encode() + m.tobytes()).hexdigest()


def partition_count(n, min_part=1):
    """Number of partitions of n into parts >= min_part (dynamic programme)."""
    ways = [1] + [0] * n
    for part in range(min_part, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]
