"""Immutable simple undirected graphs with bit-packed adjacency rows.

Vertex ids are dense 0..n-1. `adj[v]` is the open neighborhood of v as a
bitmask. Graphs are value objects: equality and hashing ignore the `label`
field, which only carries provenance (e.g. the source graph6 line). The
hash and `vertex_mask` are computed once, at construction, since every memo
lookup hashes its graph; unpickling goes through the constructor too.

Edit operations return new graphs. Vertex deletion and induced subgraphs
compact ids order-preservingly and return the kept-id table alongside, so
vertex sets computed in the smaller graph can be translated back.

Edge deletion, vertex deletion and subdivision are memoised, each memo
bounded by one graph's working set (MEMO_SIZE): graphs are immutable, so
every caller of an edit can share one copy of its result.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .bitset import VertexSet, iter_bits, members

Edge = tuple[int, int]

MEMO_SIZE = 256  # 8 vertices: 28 edges x 6 subdivisions, or x 8 properties


def memo_by_edge(fn):
    """lru_cache(MEMO_SIZE) for fn(g, e, ...), keyed on the normalised
    edge: [u, v], (u, v) and (v, u) share one entry."""
    cached = functools.lru_cache(maxsize=MEMO_SIZE)(fn)

    @functools.wraps(fn)
    def memoised(g, e, *args, **kwargs):
        u, v = e
        return cached(g, (u, v) if u < v else (v, u), *args, **kwargs)

    memoised.cache_info, memoised.cache_clear = cached.cache_info, cached.cache_clear
    return memoised


@dataclass(frozen=True)
class Graph:
    n: int
    adj: tuple[int, ...]
    label: str = field(default="", compare=False)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"vertex count must be >= 0, got {self.n}")
        if not isinstance(self.adj, tuple):
            object.__setattr__(self, "adj", tuple(self.adj))
        if len(self.adj) != self.n:
            raise ValueError(f"adjacency has {len(self.adj)} rows for n={self.n}")
        full = (1 << self.n) - 1
        adj = self.adj
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"adjacency row {v} references vertices >= n")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
            while row:
                low = row & -row
                u = low.bit_length() - 1
                if not (adj[u] >> v) & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
                row ^= low
        object.__setattr__(self, "vertex_mask", full)
        object.__setattr__(self, "_hash", hash((self.n, self.adj)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return type(self), (self.n, self.adj, self.label)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Edge], label: str = "") -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop ({u},{v})")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows), label)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[Edge]:
        """All edges as (u, v) pairs with u < v, lexicographically sorted."""
        out = []
        for u in range(self.n):
            higher = self.adj[u] >> (u + 1)
            for off in iter_bits(higher):
                out.append((u, u + 1 + off))
        return out

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            return False
        return bool((self.adj[u] >> v) & 1)

    def relabel(self, label: str) -> "Graph":
        return Graph(self.n, self.adj, label)

    def __repr__(self):  # pragma: no cover - debugging aid
        tag = f" {self.label!r}" if self.label else ""
        return f"Graph(n={self.n}, m={self.edge_count()}{tag})"


def check_vertex(g: Graph, v: int) -> None:
    """ValueError unless v is a vertex of g."""
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range for n={g.n}")


def check_set(g: Graph, S: VertexSet) -> None:
    """ValueError unless every member of S is a vertex of g."""
    if S & ~g.vertex_mask:
        raise ValueError("set contains vertices outside the graph")


def check_edge(g: Graph, e: Edge) -> Edge:
    """e as (u, v) with u < v; ValueError unless it is an edge of g."""
    u, v = e
    check_vertex(g, u)
    check_vertex(g, v)
    if u == v:
        raise ValueError(f"({u},{v}) is a self-loop, not an edge")
    if not g.has_edge(u, v):
        raise ValueError(f"edge ({u},{v}) not present")
    return (u, v) if u < v else (v, u)


@memo_by_edge
def delete_edge(g: Graph, e: Edge) -> Graph:
    u, v = check_edge(g, e)
    rows = list(g.adj)
    rows[u] &= ~(1 << v)
    rows[v] &= ~(1 << u)
    return Graph(g.n, tuple(rows))


def add_edge(g: Graph, e: Edge) -> Graph:
    """Inverse of delete_edge; rejects self-loops and existing edges."""
    u, v = e
    check_vertex(g, u)
    check_vertex(g, v)
    if u == v:
        raise ValueError(f"({u},{v}) is a self-loop")
    if g.has_edge(u, v):
        raise ValueError(f"edge ({u},{v}) already present")
    rows = list(g.adj)
    rows[u] |= 1 << v
    rows[v] |= 1 << u
    return Graph(g.n, tuple(rows))


@functools.lru_cache(maxsize=MEMO_SIZE)
def delete_vertex(g: Graph, v: int) -> tuple[Graph, tuple[int, ...]]:
    """Remove v, compacting ids order-preservingly.

    Returns (graph, kept) where kept[new_id] = old_id; for w != v the new id
    of w is w - 1 if w > v else w.
    """
    check_vertex(g, v)
    return induced_subgraph(g, g.vertex_mask & ~(1 << v))


@memo_by_edge
def subdivide_edge(g: Graph, e: Edge, t: int) -> Graph:
    """Replace edge (u,v) by the path u, x1, ..., xt, v.

    The new vertices x1..xt get ids n, n+1, ..., n+t-1 in path order starting
    from the smaller endpoint of the normalized edge.
    """
    if t < 1:
        raise ValueError(f"subdivision count must be >= 1, got {t}")
    u, v = check_edge(g, e)
    n = g.n
    rows = list(g.adj) + [0] * t
    rows[u] &= ~(1 << v)
    rows[v] &= ~(1 << u)
    chain = [u] + list(range(n, n + t)) + [v]
    for a, b in zip(chain, chain[1:]):
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return Graph(n + t, tuple(rows))


def private_neighbors(g: Graph, x: int, X: VertexSet) -> VertexSet:
    """Vertices y (x itself allowed) whose closed neighborhood meets X in exactly {x}."""
    check_vertex(g, x)
    xbit = 1 << x
    if not X & xbit:
        raise ValueError(f"vertex {x} is not a member of the given set")
    out = 0
    for y in range(g.n):
        if ((g.adj[y] | (1 << y)) & X) == xbit:
            out |= 1 << y
    return out


def components_within(g: Graph, S: VertexSet) -> list[VertexSet]:
    """Connected components of the subgraph induced by S, as masks in g ids."""
    comps = []
    rem = S
    while rem:
        comp = rem & -rem
        frontier = comp
        while frontier:
            grow = 0
            for v in iter_bits(frontier):
                grow |= g.adj[v]
            frontier = grow & S & ~comp
            comp |= frontier
        comps.append(comp)
        rem &= ~comp
    return comps


def components(g: Graph) -> list[VertexSet]:
    return components_within(g, g.vertex_mask)


def induced_subgraph(g: Graph, S: VertexSet) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by S, relative vertex order preserved.

    Returns (graph, kept) with kept[new_id] = old_id. S = 0 yields the empty
    graph.
    """
    check_set(g, S)
    kept = tuple(members(S))
    new_id = {old: i for i, old in enumerate(kept)}
    rows = []
    for old in kept:
        row = 0
        for w in iter_bits(g.adj[old] & S):
            row |= 1 << new_id[w]
        rows.append(row)
    return Graph(len(kept), tuple(rows)), kept


def translate_set(S: VertexSet, kept: Sequence[int]) -> VertexSet:
    """Map a vertex set expressed in compacted ids back to original ids."""
    out = 0
    for b in iter_bits(S):
        out |= 1 << kept[b]
    return out
