"""Text formats: graph6 lines and plain edge lists.

graph6 is the standard one-line ASCII encoding for small simple graphs
(sparse6 and digraph6 are out of scope). The header encodes n; the body
packs the upper triangle of the adjacency matrix column by column, i.e. bits
(0,1), (0,2), (1,2), (0,3), ... six bits per byte, each byte offset by 63.

The edge-list format is lines "u v" of nonnegative integers, with an
optional first line "n <count>" declaring the vertex count. Duplicate edges
are ignored.
"""

from __future__ import annotations

from .errors import EdgeListError, Graph6Error
from .graph import Graph

_MAX_1BYTE = 62
_MAX_4BYTE = 258047
_MAX_8BYTE = 68719476735  # 2^36 - 1


def _decode_header(data: bytes) -> tuple[int, int]:
    """Return (n, body_start_offset)."""
    if not data:
        raise Graph6Error("empty graph6 line", 0)
    b0 = data[0]
    if b0 != 126:
        if not 63 <= b0 <= 126:
            raise Graph6Error(f"invalid header byte {b0}", 0)
        return b0 - 63, 1
    # a multi-byte header must not fit a shorter one: n > short_max
    if len(data) >= 2 and data[1] == 126:  # "~~" and six bytes
        start, end, short_max = 2, 8, _MAX_4BYTE
    else:  # "~" and three bytes
        start, end, short_max = 1, 4, _MAX_1BYTE
    if len(data) < end:
        raise Graph6Error(f"truncated {end}-byte length header", len(data))
    n = 0
    for i in range(start, end):
        if not 63 <= data[i] <= 126:
            raise Graph6Error(f"invalid header byte {data[i]}", i)
        n = (n << 6) | (data[i] - 63)
    if n <= short_max:
        raise Graph6Error(f"non-canonical multi-byte header for n={n}", 0)
    return n, end


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line into a Graph. The line becomes the label."""
    text = line.rstrip("\r\n")
    try:
        data = text.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error("non-ASCII byte", exc.start) from None
    n, start = _decode_header(data)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) < start + nbytes:
        raise Graph6Error(
            f"body truncated: need {nbytes} bytes, have {len(data) - start}",
            len(data),
        )
    if len(data) > start + nbytes:
        raise Graph6Error("trailing garbage after graph body", start + nbytes)

    rows = [0] * n
    bit_index = 0
    u, v = 0, 1  # next upper-triangle cell, column-major: (0,1),(0,2),(1,2),...
    for i in range(start, start + nbytes):
        byte = data[i]
        if not 63 <= byte <= 126:
            raise Graph6Error(f"invalid body byte {byte}", i)
        group = byte - 63
        for k in range(5, -1, -1):
            if bit_index >= nbits:
                break  # padding bits ignored; re-encoding is canonical
            if (group >> k) & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            bit_index += 1
            u += 1
            if u == v:
                u, v = 0, v + 1
    return Graph(n, tuple(rows), label=text)


def to_graph6(g: Graph) -> str:
    """Encode a Graph as a canonical graph6 line (no trailing newline)."""
    n = g.n
    if n <= _MAX_1BYTE:
        header = [n + 63]
    elif n <= _MAX_4BYTE:
        header = [126, 63 + ((n >> 12) & 63), 63 + ((n >> 6) & 63), 63 + (n & 63)]
    elif n <= _MAX_8BYTE:
        header = [126, 126] + [63 + ((n >> s) & 63) for s in range(30, -1, -6)]
    else:
        raise ValueError(f"n={n} exceeds the graph6 header range")

    body = []
    group, filled = 0, 0
    for v in range(1, n):
        for u in range(v):
            group = (group << 1) | ((g.adj[u] >> v) & 1)
            filled += 1
            if filled == 6:
                body.append(group + 63)
                group, filled = 0, 0
    if filled:
        body.append((group << (6 - filled)) + 63)
    return bytes(header + body).decode("ascii")


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format into a Graph.

    Vertex count is the declared "n <count>" if present, else max id + 1.
    """
    declared_n = None
    edges: list[tuple[int, int]] = []
    max_id = -1
    saw_line = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        tokens = stripped.split()
        if not saw_line and tokens[0] == "n":
            saw_line = True
            if len(tokens) != 2:
                raise EdgeListError('header must be "n <count>"', line_no)
            try:
                declared_n = int(tokens[1])
            except ValueError:
                raise EdgeListError(f"unparsable count {tokens[1]!r}", line_no) from None
            if declared_n < 0:
                raise EdgeListError(f"negative vertex count {declared_n}", line_no)
            continue
        saw_line = True
        if len(tokens) != 2:
            raise EdgeListError(f'expected "u v", got {stripped!r}', line_no)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListError(f"unparsable token in {stripped!r}", line_no) from None
        if u < 0 or v < 0:
            raise EdgeListError(f"negative vertex id in {stripped!r}", line_no)
        if u == v:
            raise EdgeListError(f"self-loop {u} {v}", line_no)
        if declared_n is not None and (u >= declared_n or v >= declared_n):
            raise EdgeListError(
                f"vertex id exceeds declared count {declared_n}", line_no
            )
        edges.append((u, v))
        max_id = max(max_id, u, v)
    n = declared_n if declared_n is not None else max_id + 1
    return Graph.from_edges(n, edges)
