"""Deterministic constructions of named graph families.

Vertex numbering is fixed and documented per generator so downstream
witnesses are reproducible.
"""

from __future__ import annotations

from .graph import Graph


def path(n: int) -> Graph:
    """P_n with vertices 0-1-...-(n-1); path(1) is K1."""
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)], label=f"P{n}")


def cycle(n: int) -> Graph:
    """C_n with vertices 0-1-...-(n-1)-0; needs n >= 3."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return Graph.from_edges(n, edges, label=f"C{n}")


def star(p: int) -> Graph:
    """K_{1,p}: center 0, leaves 1..p."""
    if p < 1:
        raise ValueError(f"star needs p >= 1, got {p}")
    return complete_multipartite([1, p])


def complete(n: int) -> Graph:
    """K_n."""
    if n < 1:
        raise ValueError(f"complete needs n >= 1, got {n}")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.from_edges(n, edges, label=f"K{n}")


def complete_multipartite(parts: list[int]) -> Graph:
    """Complete multipartite graph; part i occupies a contiguous id block.

    Vertices 0..parts[0]-1 form the first part, the next block the second,
    and so on; edges join every pair of vertices from distinct parts.
    """
    if not parts:
        raise ValueError("need at least one part")
    for size in parts:
        if size < 1:
            raise ValueError(f"zero-size part in {parts}")
    n = sum(parts)
    block = []
    start = 0
    for size in parts:
        block.append(range(start, start + size))
        start += size
    edges = [
        (u, v)
        for i in range(len(parts))
        for j in range(i + 1, len(parts))
        for u in block[i]
        for v in block[j]
    ]
    label = "K" + ",".join(str(s) for s in parts)
    return Graph.from_edges(n, edges, label=label)


def three_stars_triangle(p: int) -> Graph:
    """Three stars K_{1,p} whose centers 0,1,2 are joined into a triangle.

    Center i owns leaves 3 + i*p .. 3 + (i+1)*p - 1; total 3p + 3 vertices.
    """
    if p < 1:
        raise ValueError(f"three_stars_triangle needs p >= 1, got {p}")
    edges = [(0, 1), (0, 2), (1, 2)]
    for c in range(3):
        for leaf in range(3 + c * p, 3 + (c + 1) * p):
            edges.append((c, leaf))
    return Graph.from_edges(3 * p + 3, edges, label=f"3xK1,{p}+C3")
