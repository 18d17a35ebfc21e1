"""Catalog of graph properties used as constraints on dominating sets.

Each property is a predicate on graphs plus four metadata flags:

* hereditary           closed under arbitrary subgraphs
* induced_hereditary   closed under induced subgraphs
* closed_union_K1      adding an isolated vertex preserves the property
* nondegenerate        every edgeless graph has the property

The flags are hard-coded (they gate which verification suites apply and
must be deterministic); `audit_flags` is the empirical cross-check that
hunts for counterexamples to each flag's defining implication on a corpus.
It tests all four flags, claimed or not, and returns a dict from each flag
to its (graph6, detail) witnesses; the verifier's FLAG-audit suite asks
`flag_violations` only for the flags a property claims.
The audit is exact on the corpus: every predicate here is invariant under
isomorphism, so a graph has a subgraph (an induced subgraph) lacking the
property exactly when one edge or vertex deletion (one vertex deletion)
turns some subgraph that has it into one that lacks it. The audit checks
those one-step implications once per isomorphism class of the deletion
closure: two bounded memos keyed by property and canonical form (`canon`)
hold each class's verdict for every later graph, audit and suite.

Empty-set convention: the empty graph has every property except
"connected" and "min degree >= 1", for which it is rejected. The predicate
definitions never force a choice for those two; this keeps dominating-set
search monotone for the K1-closed properties.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields

from .bitset import VertexSet, iter_bits
from .canon import canonical_adjacency
from .errors import ScopeError
from .graph import Graph, check_set, components_within, delete_edge, delete_vertex
from . import formats


@dataclass(frozen=True)
class PropertyDescriptor:
    id: str  # wire format: one of I, O, C, T, F, UK, D (D carries k)
    name: str = field(compare=False)
    k: int | None = None
    hereditary: bool = field(default=False, compare=False)
    induced_hereditary: bool = field(default=False, compare=False)
    closed_union_K1: bool = field(default=False, compare=False)
    nondegenerate: bool = field(default=False, compare=False)

    def __post_init__(self):
        if (self.id == "D") != (self.k is not None):
            raise ValueError("parameter k is required exactly for max-degree properties")
        if self.k is not None and self.k < 0:
            raise ValueError(f"max-degree bound must be >= 0, got {self.k}")
        if self.hereditary and not self.induced_hereditary:
            raise ValueError("hereditary implies induced-hereditary")
        # hashed once, as every memo lookup hashes its property; str hashes
        # differ between processes, so unpickling rebuilds it (__reduce__)
        object.__setattr__(self, "_hash", hash((self.id, self.k)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    @property
    def key(self) -> str:
        """CLI selection syntax: I, O, C, T, F, UK, or D:<k>."""
        return f"D:{self.k}" if self.id == "D" else self.id

    def __str__(self):
        return self.key


ANY_GRAPH = PropertyDescriptor(
    "I", "any graph",
    hereditary=True, induced_hereditary=True,
    closed_union_K1=True, nondegenerate=True,
)
EDGELESS = PropertyDescriptor(
    "O", "edgeless",
    hereditary=True, induced_hereditary=True,
    closed_union_K1=True, nondegenerate=True,
)
CONNECTED = PropertyDescriptor("C", "connected")
NO_ISOLATED = PropertyDescriptor("T", "min degree >= 1")
FOREST = PropertyDescriptor(
    "F", "forest",
    hereditary=True, induced_hereditary=True,
    closed_union_K1=True, nondegenerate=True,
)
CLIQUE_COMPONENTS = PropertyDescriptor(
    "UK", "disjoint union of cliques",
    hereditary=False, induced_hereditary=True,
    closed_union_K1=True, nondegenerate=True,
)


def max_degree(k: int) -> PropertyDescriptor:
    return PropertyDescriptor(
        "D", f"max degree <= {k}", k=k,
        hereditary=True, induced_hereditary=True,
        closed_union_K1=True, nondegenerate=True,
    )


def parse_property(text: str) -> PropertyDescriptor:
    """Parse CLI syntax: I, O, C, T, F, UK, or D:<k> (default k=1 for bare D)."""
    t = text.strip()
    for p in CATALOG:
        if p.key == t:
            return p
    if t == "D":
        return max_degree(1)
    if t.startswith("D:"):
        try:
            return max_degree(int(t[2:]))
        except ValueError:
            raise ValueError(f"bad max-degree parameter in {text!r}") from None
    raise ValueError(f"unknown property {text!r}")


def out_of_scope(p: PropertyDescriptor, flag: str) -> str | None:
    """Why p lacks `flag` plus closure under union with K1, or None if it has both.

    The statements are proved for such properties only; flag is one of
    hereditary, induced_hereditary or nondegenerate.
    """
    if getattr(p, flag) and p.closed_union_K1:
        return None
    return (f"property {p.key} is not {flag.replace('_', '-')} and closed under "
            "union with K1")


def require(p: PropertyDescriptor, flag: str) -> None:
    """Raise ScopeError unless p has `flag` and is closed under union with K1."""
    reason = out_of_scope(p, flag)
    if reason is not None:
        raise ScopeError(reason)


def holds(p: PropertyDescriptor, g: Graph) -> bool:
    return holds_induced(p, g, g.vertex_mask)


def holds_induced(p: PropertyDescriptor, g: Graph, S: VertexSet) -> bool:
    """Does the subgraph of g induced by S have property p?

    Evaluated directly on the bitmask, without materializing the subgraph.
    """
    check_set(g, S)
    pid = p.id
    if pid == "I":
        return True
    adj = g.adj
    if pid == "O":
        return all(adj[v] & S == 0 for v in iter_bits(S))
    if pid == "D":
        k = p.k
        return all((adj[v] & S).bit_count() <= k for v in iter_bits(S))
    if pid == "T":
        return S != 0 and all(adj[v] & S for v in iter_bits(S))
    if pid == "C":
        return S != 0 and len(components_within(g, S)) == 1
    if pid == "F":
        twice_edges = sum((adj[v] & S).bit_count() for v in iter_bits(S))
        return twice_edges // 2 == S.bit_count() - len(components_within(g, S))
    if pid == "UK":
        for comp in components_within(g, S):
            for v in iter_bits(comp):
                if comp & ~(adj[v] | (1 << v)):
                    return False
        return True
    raise ValueError(f"unknown property id {pid!r}")


CATALOG = (ANY_GRAPH, EDGELESS, CONNECTED, NO_ISOLATED, FOREST,
           CLIQUE_COMPONENTS, max_degree(1))

FLAGS = ("hereditary", "induced_hereditary", "closed_union_K1", "nondegenerate")


# one entry per (property, class); unlike the gamma memo's, these entries
# serve later graphs too, whose deletion closures reach the same classes
@functools.lru_cache(maxsize=1 << 17)
def _induced_failure(p: PropertyDescriptor, key: tuple[int, ...]) -> str | None:
    """For the class with canonical adjacency `key`, which has p: the first
    failing link of a chain of vertex deletions that ends in a graph lacking
    p, or None."""
    h = Graph(len(key), key)
    full = h.vertex_mask
    for v in range(h.n):
        if not holds_induced(p, h, full & ~(1 << v)):
            return _witness(h, f"vertex {v}", delete_vertex(h, v)[0])
    for v in range(h.n):
        hit = _induced_failure(p, canonical_adjacency(h.adj, full & ~(1 << v)))
        if hit is not None:
            return hit
    return None


@functools.lru_cache(maxsize=1 << 17)
def _spanning_failure(p: PropertyDescriptor, key: tuple[int, ...]) -> str | None:
    """As _induced_failure, for chains of edge or vertex deletions."""
    hit = _induced_failure(p, key)
    if hit is not None:
        return hit
    # A subgraph of h that is not induced is a subgraph of some h - e;
    # the induced ones are covered by _induced_failure.
    h = Graph(len(key), key)
    children = [(e, delete_edge(h, e)) for e in h.edges()]
    for (u, v), child in children:
        if not holds(p, child):
            return _witness(h, f"edge {u}-{v}", child)
    for _, child in children:
        hit = _spanning_failure(p, canonical_adjacency(child.adj, child.vertex_mask))
        if hit is not None:
            return hit
    return None


def _witness(parent: Graph, deleted: str, child: Graph) -> str:
    return (f"deleting {deleted} from {formats.to_graph6(parent)} (has the property) "
            f"gives {formats.to_graph6(child)} (lacks it)")


def flag_violations(p: PropertyDescriptor, g: Graph,
                    flags: tuple[str, ...] = FLAGS) -> list[tuple[str, str]]:
    """(flag, detail) for each flag in `flags`, claimed or not, whose
    defining implication fails on g; the flags not asked for are not tested.

    nondegenerate and closed_union_K1 are tested on g itself. If g has p,
    hereditary (induced_hereditary) fails exactly when some chain of edge or
    vertex deletions (vertex deletions) from g passes through graphs that
    have p to one that lacks it; the chain's first failing link is the
    detail. The walk tests the vertex-deleted (then the edge-deleted)
    children of a class before it descends into them, and memoises each
    class by p and canonical form; g's canonical form is computed only when
    one of those two flags is asked. An entry depends only on holds_induced,
    which reads p's id and k, the fields descriptor equality compares, so a
    descriptor that claims more flags shares the entries of one that claims
    fewer.
    """
    if not holds(p, g):
        return ([("nondegenerate", "edgeless graph lacks the property")]
                if "nondegenerate" in flags and g.edge_count() == 0 else [])
    out = []
    # g plus an isolated vertex
    if "closed_union_K1" in flags and not holds(p, Graph(g.n + 1, g.adj + (0,))):
        out.append(("closed_union_K1", "fails after adding an isolated vertex"))
    walks = [(flag, walk) for flag, walk in (("induced_hereditary", _induced_failure),
                                             ("hereditary", _spanning_failure))
             if flag in flags]
    if walks:
        key = canonical_adjacency(g.adj, g.vertex_mask)
        out += [(flag, hit) for flag, walk in walks if (hit := walk(p, key))]
    return out


def audit_flags(p: PropertyDescriptor, corpus) -> dict[str, list[tuple[str, str]]]:
    """Each flag of FLAGS, claimed or not, mapped to its (graph6, detail)
    witnesses in corpus order: the corpus graphs on which flag_violations
    finds the flag's defining implication failing. A flag the descriptor
    claims must come out clean; a claimed-False flag may or may not expose a
    witness on a small corpus. The memos serve every later audit too."""
    violations: dict[str, list[tuple[str, str]]] = {flag: [] for flag in FLAGS}
    for g in corpus:
        for flag, detail in flag_violations(p, g):
            violations[flag].append((formats.to_graph6(g), detail))
    return violations
