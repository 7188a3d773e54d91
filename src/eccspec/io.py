"""Graph serialisation: a plain edge-list text format and graph6.

Edge lists start with a header line "n m" followed by m lines "u v" with
0-based endpoints; duplicate edges are tolerated.  graph6 follows the nauty
convention: an order field (one byte for n <= 62, '~' plus three bytes up to
n = 258047), then the strict upper triangle packed column by column, six bits
per printable byte offset by 63.
"""

import numpy as np

from .errors import (
    Graph6FormatError,
    InvalidByteError,
    MalformedHeaderError,
    TruncatedPayloadError,
)
from .graphs import Graph, check_order

GRAPH6_HEADER = ">>graph6<<"
_G6_LONG_LIMIT = 258047


def parse_edge_list(text: str) -> Graph:
    """Parse the "n m" + edge-lines format into a Graph."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise MalformedHeaderError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise MalformedHeaderError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise MalformedHeaderError(f"header must be two integers, got {lines[0]!r}") from exc
    if n < 1 or m < 0:
        raise MalformedHeaderError(f"need n >= 1 and m >= 0, got n={n} m={m}")
    if len(lines) - 1 != m:
        raise MalformedHeaderError(f"header promises {m} edges, found {len(lines) - 1} lines")
    edges = []
    for ln in lines[1:]:
        tokens = ln.split()
        if len(tokens) != 2:
            raise MalformedHeaderError(f"edge line must be 'u v', got {ln!r}")
        try:
            edges.append((int(tokens[0]), int(tokens[1])))
        except ValueError as exc:
            raise MalformedHeaderError(f"edge line must be two integers, got {ln!r}") from exc
    return Graph.from_edges(n, edges)


def emit_edge_list(g: Graph) -> str:
    """Serialise a graph in the edge-list format parse_edge_list reads."""
    edges = g.edges()
    lines = [f"{g.n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def _triangle_order(n: int) -> tuple[np.ndarray, np.ndarray]:
    # graph6 bit order: pairs (u, v) for v = 1..n-1, u = 0..v-1, which is the
    # row-major strict lower triangle transposed
    vs, us = np.tril_indices(n, -1)
    return us, vs


def parse_graph6(line: str) -> Graph:
    """Decode a single graph6 string (optional '>>graph6<<' prefix allowed)."""
    s = line.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise TruncatedPayloadError("empty graph6 string")
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise InvalidByteError("graph6 strings are printable ASCII") from exc
    for byte in data:
        if not 63 <= byte <= 126:
            raise InvalidByteError(f"byte {byte} outside the graph6 window 63..126")
    n, idx = _read_order(data)
    if n < 1:
        raise Graph6FormatError("graphs with no vertices are not supported")
    check_order(n)
    bits_needed = n * (n - 1) // 2
    payload = data[idx:]
    expected = (bits_needed + 5) // 6
    if len(payload) != expected:
        raise TruncatedPayloadError(
            f"n={n} needs {expected} payload bytes, got {len(payload)}"
        )
    values = np.frombuffer(payload, dtype=np.uint8).astype(np.int64) - 63
    bits = ((values[:, None] >> np.arange(5, -1, -1)) & 1).ravel()[:bits_needed]
    adj = np.zeros((n, n), dtype=bool)
    us, vs = _triangle_order(n)
    adj[us, vs] = bits.astype(bool)
    adj |= adj.T
    return Graph(adj)


def _read_order(data: bytes) -> tuple[int, int]:
    first = data[0]
    if first != 126:
        return first - 63, 1
    if len(data) >= 2 and data[1] == 126:
        raise Graph6FormatError("graphs beyond 258047 vertices are not supported")
    if len(data) < 4:
        raise TruncatedPayloadError("extended order field needs three bytes")
    n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
    return n, 4


def emit_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string."""
    n = g.n
    if n <= 62:
        prefix = chr(63 + n)
    elif n <= _G6_LONG_LIMIT:
        prefix = "~" + chr(63 + (n >> 12)) + chr(63 + ((n >> 6) & 63)) + chr(63 + (n & 63))
    else:
        raise Graph6FormatError("graphs beyond 258047 vertices are not supported")
    us, vs = _triangle_order(n)
    bits = g.adjacency[us, vs].astype(np.uint8)
    pad = (-len(bits)) % 6
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    groups = bits.reshape(-1, 6)
    weights = 1 << np.arange(5, -1, -1)
    values = groups @ weights
    return prefix + "".join(chr(63 + int(v)) for v in values)
