"""Exact minimum dominating sets under a property constraint.

gamma(g, p) is the smallest cardinality of a set S that dominates g while
the subgraph induced by S has property p; it is None (undefined) when no
such set exists, which can only happen for properties that are not
nondegenerate (e.g. "connected" on a disconnected graph).

The value comes from iterative deepening over the target cardinality, from
ceil(n / (max degree + 1)) up. Each depth-limited search (_Search.find)
takes one of three forms, chosen by the property:

* I, O, F, UK, D:k branch on the closed neighborhood of the undominated
  vertex with the fewest candidate dominators. Their predicates are
  induced-hereditary, so a partial set that already lacks the property is
  pruned (sound: induced subgraphs of supersets contain it). Every branch
  adds one vertex u to a set S that has p, so the prune asks only whether
  S + u has p too, from u's neighbours in S (extends).
* T runs the same search over open neighborhoods: a set whose open
  neighborhoods cover every vertex dominates and has no isolated vertex.
* C picks its root options the same way, then grows the set along its
  frontier N(S) - S, each branch excluding the vertices tried before it.
  A vertex's gain is the number of undominated vertices its closed
  neighborhood holds; options are tried by decreasing gain, ties by
  vertex id. A node is cut when the budget's largest gains among the
  addable vertices sum to fewer than the undominated vertices, or when one
  of those lies at distance d from S with d - 1 > budget, since it needs
  d - 1 more vertices.

find takes a forced start set, given as a set it accepted before plus one
vertex u, and a mask of the vertices it may add; the prune tests only u
(extends). One walk over it lists the minimum sets (_Search.minimum_sets):
slot by slot it takes each u in ascending order for which the members so
far plus u, completed with vertices above u, still reach the minimum size,
and descends. Its first set is gamma's witness; all of them are
all_minimum_sets. in_some_minimum_set forces v alone. Forced members may be
disconnected; C then accepts only a dominating superset that induces one
component.

gamma_oracle is the reference the search is tested against: plain subset
enumeration in increasing cardinality with no pruning, capped at n <= 20.

Conventions: gamma of the empty graph is 0 with witness {} for properties
that accept the empty set, undefined otherwise. Witnesses and enumeration
order are lexicographic on sorted member tuples, lowest vertex id first.
The value (_gamma_value) and the tuple of minimum sets (all_minimum_sets)
each have one memo per (graph, property); membership queries have none.
Results are identical to cold runs. The value memo holds 16 * MEMO_SIZE =
4,096 entries, more than one graph's verify task asks for: later graphs
reuse almost none of them, so a larger bound would only grow each process.
A search is cheap to build and almost every one answers a single value, so
each query builds its own and drops it; only the closed neighborhoods it
reads are memoized, once per graph for every property (_closed_rows).
Graphs and property descriptors hash once, at construction, so a memo
lookup does not rebuild a key tuple.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .bitset import VertexSet, bitmask, iter_bits
from .errors import OracleCapError, UndefinedGammaError
from .graph import MEMO_SIZE, Graph, check_set, check_vertex, components_within, delete_vertex
from .properties import PropertyDescriptor, holds_induced

ORACLE_MAX_N = 20


@dataclass(frozen=True)
class GammaResult:
    value: int | None
    witness: VertexSet | None


def is_dominating(g: Graph, S: VertexSet) -> bool:
    """True iff the closed neighborhoods of S cover all of V(g)."""
    check_set(g, S)
    cover = S
    for v in iter_bits(S):
        cover |= g.adj[v]
    return cover == g.vertex_mask


def _extends_edgeless(p, adj, S, u):
    return adj[u] & S == 0


def _extends_max_degree(p, adj, S, u):
    # u gets its neighbours in S, and each of them gets u
    nb = adj[u] & S
    if nb.bit_count() > p.k:
        return False
    while nb:
        low = nb & -nb
        if (adj[low.bit_length() - 1] & S).bit_count() >= p.k:
            return False
        nb ^= low
    return True


def _extends_clique_components(p, adj, S, u):
    # u joins a clique component only if it is adjacent to all of it and to
    # nothing else; the component of a vertex w of S is w plus adj[w] & S
    nb = adj[u] & S
    if not nb:
        return True
    w = nb & -nb
    return nb == (adj[w.bit_length() - 1] & S) | w


def _extends_forest(p, adj, S, u):
    # u closes a cycle exactly when two of its neighbours share a tree of S
    nb = adj[u] & S
    while nb & (nb - 1):
        low = nb & -nb
        tree = frontier = low
        while frontier:
            b = frontier & -frontier
            frontier ^= b
            grow = adj[b.bit_length() - 1] & S & ~tree
            tree |= grow
            frontier |= grow
        if nb & tree != low:
            return False
        nb ^= low
    return True


# extends(p, adj, S, u) by property id: given that S has p, does S + u? Each
# equals holds_induced(p, g, S | 1 << u) but reads only u's neighbours in S
# (for F, their trees). I needs no test; _Search falls back to holds_induced
# itself for an id missing here.
_EXTENDS = {
    "I": None,
    "O": _extends_edgeless,
    "D": _extends_max_degree,
    "UK": _extends_clique_components,
    "F": _extends_forest,
}


@lru_cache(maxsize=MEMO_SIZE)
def _closed_rows(g: Graph) -> tuple[tuple[int, ...], int]:
    """The closed neighborhoods of g and the largest one's size, shared by
    the searches of every property on g."""
    closed = tuple([row | 1 << v for v, row in enumerate(g.adj)])
    return closed, max(map(int.bit_count, closed), default=1)


class _Search:
    """Depth-limited dominating-set search over one (graph, property) pair.

    C grows a connected set along its frontier; every other property runs a
    cover search, over open neighborhoods for T and over closed ones with
    induced-hereditary pruning otherwise. Each find sets `allowed` afresh
    and keeps its memo local, so nothing carries from one find to the next.
    """

    def __init__(self, g: Graph, p: PropertyDescriptor):
        self.g = g
        self.p = p
        self.full = g.vertex_mask
        self.closed, self.max_closed = _closed_rows(g)
        if p.id == "T":
            # a dominating set without isolated vertices is a total dominating
            # set: every vertex, chosen ones included, needs a chosen neighbor
            adj = g.adj
            self.rows, self.max_row = adj, max(map(int.bit_count, adj), default=1)
            self.extends = None
        else:
            self.rows, self.max_row = self.closed, self.max_closed
            self.extends = (_EXTENDS[p.id] if p.id in _EXTENDS else
                            lambda p, adj, S, u: holds_induced(p, g, S | 1 << u))

    def find(self, budget: int, base: VertexSet = 0, u: int | None = None,
             allowed: VertexSet | None = None) -> VertexSet | None:
        """Any dominating p-set containing base, u (if given) and <= budget
        more vertices, each taken from allowed (default: all).

        base is empty or a start set an earlier find accepted, so for the
        pruned properties it has p (the empty set has every one of them), and
        only u needs the prune's test.
        """
        start = base if u is None else base | 1 << u
        self.allowed = self.full if allowed is None else allowed
        rows, cover, rest = self.rows, 0, start
        while rest:
            low = rest & -rest
            cover |= rows[low.bit_length() - 1]
            rest ^= low
        if self.p.id == "C":
            return self._connected(start, cover, 0, budget)
        if u is not None and self.extends and not self.extends(self.p, self.g.adj, base, u):
            return None
        return self._cover(start, cover, budget, {})

    def _fewest_candidates(self, uncovered, avail):
        # the candidates of the uncovered vertex that has the fewest of them
        rows, best, fanout = self.rows, 0, self.g.n + 1
        while uncovered:
            low = uncovered & -uncovered
            cand = rows[low.bit_length() - 1] & avail
            size = cand.bit_count()
            if size < fanout:
                best, fanout = cand, size
                if size <= 1:
                    break
            uncovered ^= low
        return best

    def _cover(self, S, cover, budget, best_budget):
        # best_budget: the largest budget each set S failed with in this find
        if cover == self.full:
            return S
        if budget <= 0:
            return None
        seen = best_budget.get(S)
        if seen is not None and seen >= budget:
            return None
        best_budget[S] = budget
        uncovered = self.full & ~cover
        if uncovered.bit_count() > budget * self.max_row:
            return None
        extends, p, adj, rows = self.extends, self.p, self.g.adj, self.rows
        cand = self._fewest_candidates(uncovered, self.allowed)
        while cand:
            low = cand & -cand
            cand ^= low
            u = low.bit_length() - 1
            if extends and not extends(p, adj, S, u):
                continue
            hit = self._cover(S | low, cover | rows[u], budget - 1, best_budget)
            if hit is not None:
                return hit
        return None

    def minimum_sets(self, prefix, low, remaining):
        """Every dominating p-set of prefix plus `remaining` vertices >= low,
        in lexicographic order; a set s1 < ... < sk is reached only along
        s1, s2, ..., so exactly once."""
        if remaining == 0:
            yield prefix
            return
        for u in range(low, self.g.n - remaining + 1):
            above = self.full & ~((2 << u) - 1)
            if self.find(remaining - 1, prefix, u, above) is not None:
                yield from self.minimum_sets(prefix | (1 << u), u + 1, remaining - 1)

    def _connected(self, S, dom, excluded, budget):
        # a branch excludes the options tried before it, so every connected
        # superset of S is reached at most once
        if dom == self.full and len(components_within(self.g, S)) == 1:
            return S
        if budget <= 0:
            return None
        undominated = self.full & ~dom
        avail = self.allowed & ~excluded & ~S
        if S:
            options = dom & avail  # the frontier N(S) \ S
            if undominated and not self._within_reach(undominated, options, avail, budget):
                return None
        else:
            options = self._fewest_candidates(undominated, avail)
        # every vertex added below lies in avail and dominates at most its
        # gain here, so the budget's largest gains must cover the rest
        closed = self.closed
        ranked = sorted([(-(row & undominated).bit_count(), v)
                         for v, row in enumerate(closed) if avail >> v & 1])
        if -sum([gain for gain, _ in ranked[:budget]]) < undominated.bit_count():
            return None
        # largest gains first. Any fixed order keeps the search exact: a
        # connected superset of S is reached under the first option it
        # contains, and every caller asks only whether a set exists
        for _, u in ranked:
            if options >> u & 1:
                hit = self._connected(S | (1 << u), dom | closed[u], excluded, budget - 1)
                if hit is not None:
                    return hit
                excluded |= 1 << u
        return None

    def _within_reach(self, undominated, frontier, avail, budget):
        # an undominated vertex at distance d from S needs a dominator at
        # distance d - 1, i.e. d - 1 more vertices: walk `budget` layers out
        # from S through addable vertices
        layer, seen = frontier, frontier
        for _ in range(budget):
            if not layer:
                return False
            reach = 0
            for v in iter_bits(layer):
                reach |= self.closed[v]
            undominated &= ~reach
            if not undominated:
                return True
            layer = reach & avail & ~seen
            seen |= layer
        return False


# Sized to one graph's working set, since a later graph reuses almost
# nothing: one per-graph verify task on n7c (15 suites x I,O,F,UK,D:1) asks
# at most 325 distinct (graph, property) values, for Flknw.
@lru_cache(maxsize=16 * MEMO_SIZE)
def _gamma_value(g: Graph, p: PropertyDescriptor) -> int | None:
    if g.n == 0:
        return 0 if holds_induced(p, g, 0) else None
    search = _Search(g, p)
    floor = max(1, -(-g.n // search.max_closed))
    for k in range(floor, g.n + 1):
        if search.find(k) is not None:
            return k
    return None


def gamma_value(g: Graph, p: PropertyDescriptor) -> int | None:
    """The domination number with respect to p, without a witness."""
    return _gamma_value(g, p)


def gamma(g: Graph, p: PropertyDescriptor) -> GammaResult:
    """Minimum dominating p-set; witness is the lexicographically least one."""
    value = _gamma_value(g, p)
    if value is None:
        return GammaResult(None, None)
    return GammaResult(value, next(_Search(g, p).minimum_sets(0, 0, value)))


def gamma_oracle(g: Graph, p: PropertyDescriptor) -> GammaResult:
    """Brute-force reference: all subsets in increasing cardinality, no pruning."""
    if g.n > ORACLE_MAX_N:
        raise OracleCapError(f"oracle capped at n <= {ORACLE_MAX_N}, got n={g.n}")
    for k in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), k):
            S = bitmask(combo)
            if is_dominating(g, S) and holds_induced(p, g, S):
                return GammaResult(k, S)
    return GammaResult(None, None)


def _defined_gamma(g: Graph, p: PropertyDescriptor) -> int:
    """The domination number; UndefinedGammaError when it is undefined."""
    value = _gamma_value(g, p)
    if value is None:
        raise UndefinedGammaError(f"gamma is undefined for property {p.key} on this graph")
    return value


@lru_cache(maxsize=MEMO_SIZE)
def all_minimum_sets(g: Graph, p: PropertyDescriptor) -> tuple[VertexSet, ...]:
    """Every minimum dominating p-set, in lexicographic order."""
    return tuple(_Search(g, p).minimum_sets(0, 0, _defined_gamma(g, p)))


def in_some_minimum_set(g: Graph, p: PropertyDescriptor, v: int) -> bool:
    """Does v lie in at least one minimum dominating p-set?

    Solved by forcing v into the set and asking for the same total size, not
    by enumerating all minimum sets.
    """
    check_vertex(g, v)
    return _Search(g, p).find(_defined_gamma(g, p) - 1, u=v) is not None


def v_minus_set(g: Graph, p: PropertyDescriptor) -> VertexSet:
    """Vertices whose deletion strictly lowers gamma.

    Vertices where gamma of the deleted graph is undefined are excluded: an
    undefined value is not a decrease.
    """
    value = _defined_gamma(g, p)
    out = 0
    for v in range(g.n):
        smaller, _ = delete_vertex(g, v)
        reduced = _gamma_value(smaller, p)
        if reduced is not None and reduced < value:
            out |= 1 << v
    return out
