"""Canonical forms of small graphs by partition refinement.

Two graphs are isomorphic exactly when their canonical relabellings are
equal. The relabelling is found the way McKay and Piperno describe
("Practical graph isomorphism II", J. Symb. Comput. 60, 2014), without
their automorphism machinery: refine the degree partition until it is
equitable, individualise each vertex of the first cell that still needs
splitting in turn, refine again, and recurse until the order of the
vertices is fixed. Each such leaf orders the vertices; the least relabelled
adjacency over all leaves is the canonical one.

Every step depends only on the graph and the ordered partition, so
isomorphic graphs reach the same set of relabelled adjacencies. Twins
(u and v with N(u) - v = N(v) - u) keep the search small on symmetric
graphs: swapping two twins is an automorphism that fixes every other
vertex, so a cell of pairwise twins needs no splitting (every order of it
gives the same adjacency), and of the twins in a cell being split only the
first is tried.

The search may start from an ordered colouring instead of the one cell of
all vertices. The cells keep their order through refinement, so a vertex of
the first cell is relabelled before any vertex of the second, and two
coloured graphs get the same adjacency exactly when an isomorphism maps
each cell to the cell in the same position. With [{u}, {v}, rest] this
compares edges: (u, v) and (x, y) get the same adjacency exactly when an
automorphism of the graph maps u to x and v to y, which is how
edge_orbit_representatives finds the ordered edge orbits. Twins in one cell
stay interchangeable under the colouring, because refinement only splits
cells.
"""

from __future__ import annotations

from typing import Sequence

from .bitset import VertexSet, iter_bits
from .graph import Edge, Graph


def _refine(adj: Sequence[int], cells: list[int], splitters: list[int],
            size: int) -> list[int]:
    """Split cells until every vertex of a cell has equally many neighbours
    in each cell, starting from a partition of `size` vertices that is
    equitable except with respect to `splitters`.

    Each splitter in turn splits every cell by the number of neighbours its
    vertices have in the splitter, the parts ordered by that number and
    queued as splitters themselves.
    """
    queue = list(splitters)
    while queue and len(cells) < size:
        splitter = queue.pop(0)
        split = []
        for cell in cells:
            if not cell & (cell - 1):
                split.append(cell)
                continue
            parts: dict[int, int] = {}
            rest = cell
            while rest:
                bit = rest & -rest
                rest ^= bit
                k = (adj[bit.bit_length() - 1] & splitter).bit_count()
                parts[k] = parts.get(k, 0) | bit
            if len(parts) == 1:
                split.append(cell)
            else:
                fragments = [parts[k] for k in sorted(parts)]
                split.extend(fragments)
                queue.extend(fragments)
        cells = split
    return cells


def _relabelled(adj: Sequence[int], vertices: VertexSet,
                cells: list[int]) -> tuple[int, ...]:
    """Adjacency rows after renaming the vertices in cell order, each cell
    in increasing vertex order."""
    order = []
    for cell in cells:
        while cell:
            bit = cell & -cell
            cell ^= bit
            order.append(bit.bit_length() - 1)
    pos = [0] * len(adj)
    for i, v in enumerate(order):
        pos[v] = i
    rows = []
    for v in order:
        row, rest = 0, adj[v] & vertices
        while rest:
            bit = rest & -rest
            rest ^= bit
            row |= 1 << pos[bit.bit_length() - 1]
        rows.append(row)
    return tuple(rows)


def _twins(adj: Sequence[int], vertices: VertexSet, ubit: int, vbit: int) -> bool:
    """Do the two vertices have the same neighbours apart from each other
    in the subgraph that `vertices` induces?"""
    u, v = ubit.bit_length() - 1, vbit.bit_length() - 1
    return not (adj[u] ^ adj[v]) & vertices & ~(ubit | vbit)


def canonical_adjacency(adj: Sequence[int], vertices: VertexSet,
                        cells: Sequence[VertexSet] | None = None) -> tuple[int, ...]:
    """Adjacency rows of the canonical relabelling of the subgraph that
    `vertices` induces in the graph with adjacency rows `adj`; with `cells`,
    an ordered colouring of `vertices` into non-empty cells, of the
    relabellings that keep the cells in that order."""
    size = vertices.bit_count()
    best: tuple[int, ...] | None = None

    def search(cells: list[int]) -> None:
        nonlocal best
        for i, cell in enumerate(cells):
            # being twins is an equivalence: comparing with one vertex suffices
            first = cell & -cell
            if cell != first and not all(_twins(adj, vertices, first, 1 << v)
                                         for v in iter_bits(cell ^ first)):
                break
        else:
            rows = _relabelled(adj, vertices, cells)
            if best is None or rows < best:
                best = rows
            return
        tried: list[int] = []
        for v in iter_bits(cell):
            bit = 1 << v
            if any(_twins(adj, vertices, u, bit) for u in tried):
                continue
            tried.append(bit)
            search(_refine(adj, cells[:i] + [bit, cell ^ bit] + cells[i + 1:], [bit],
                           size))

    if cells is None:
        cells = [vertices] if vertices else []
    search(_refine(adj, list(cells), cells, size))
    return best


def edge_orbit_representatives(g: Graph) -> list[Edge]:
    """The least edge (u < v) of each ordered edge orbit of g, in edge order:
    (u, v) and (x, y) share an orbit when an automorphism maps u to x and v
    to y."""
    keys, out = set(), []
    for u, v in g.edges():
        pair = (1 << u) | (1 << v)
        key = canonical_adjacency(g.adj, g.vertex_mask,
                                  [c for c in (1 << u, 1 << v, g.vertex_mask ^ pair) if c])
        if key not in keys:
            keys.add(key)
            out.append((u, v))
    return out
