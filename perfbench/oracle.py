"""Reference answers made without domlab's solver.

Graphs are lists of adjacency bitmasks; vertex sets are int bitmasks, as in
domlab, but every predicate here is written out again so that a defect in
domlab's property code or search cannot hide in its own reference.

* brute_force: exhaustive subset enumeration in increasing size and
  lexicographic order. The first dominating p-set found has the least size
  and is the lexicographically least witness of that size; every smaller
  size has been enumerated in full and held none.
* check_answer: the fallback for seeded queries whose seed has no stored
  reference: the witness is a dominating p-set of the stated size, or the
  graph forces the value to be undefined.
* closed_form: gamma_c and gamma_t of paths and cycles.
* expected_classify / expected_msd: the JSON lines that domlab's classify
  and msd commands must print, built from domlab.solver.gamma_oracle (plain
  subset enumeration, capped at 20 vertices) and the definitions.
"""

from __future__ import annotations

import itertools


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def components(adj, S: int) -> list[int]:
    comps = []
    rest = S
    while rest:
        comp = rest & -rest
        frontier = comp
        while frontier:
            reach = 0
            for v in bits(frontier):
                reach |= adj[v]
            frontier = reach & S & ~comp
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    return comps


def _forest(adj, S):
    edges2 = sum((adj[v] & S).bit_count() for v in bits(S))
    return edges2 // 2 == S.bit_count() - len(components(adj, S))


def _cliques(adj, S):
    return all(comp & ~(adj[v] | 1 << v) == 0
               for comp in components(adj, S) for v in bits(comp))


PREDICATES = {
    "I": lambda adj, S: True,
    "O": lambda adj, S: all(adj[v] & S == 0 for v in bits(S)),
    "C": lambda adj, S: S != 0 and len(components(adj, S)) == 1,
    "T": lambda adj, S: S != 0 and all(adj[v] & S for v in bits(S)),
    "F": _forest,
    "UK": _cliques,
    "D:1": lambda adj, S: all((adj[v] & S).bit_count() <= 1 for v in bits(S)),
}


def dominates(adj, S: int) -> bool:
    cover = S
    for v in bits(S):
        cover |= adj[v]
    return cover == (1 << len(adj)) - 1


def forced_undefined(adj, key: str) -> bool:
    """Is gamma undefined for this property, for a reason the graph shows?

    A connected set lies in one component and cannot dominate another; a
    set without isolated vertices cannot dominate an isolated vertex. Every
    other catalog property holds on independent sets, and a maximal
    independent set dominates.
    """
    if key == "C":
        return len(components(adj, (1 << len(adj)) - 1)) != 1
    if key == "T":
        return any(row == 0 for row in adj)
    return False


def brute_force(adj, keys) -> dict:
    """{key: [value, least witness mask]} by enumerating every subset."""
    n = len(adj)
    full = (1 << n) - 1
    closed = [adj[v] | 1 << v for v in range(n)]
    answer = {k: [None, None] for k in keys if forced_undefined(adj, k)}
    open_keys = [k for k in keys if k not in answer]
    for size in range(n + 1):
        if not open_keys:
            break
        found = {}
        for combo in itertools.combinations(range(n), size):
            cover = 0
            for v in combo:
                cover |= closed[v]
            if cover != full:
                continue
            S = sum(1 << v for v in combo)
            for k in open_keys:
                if k not in found and PREDICATES[k](adj, S):
                    found[k] = S
            if len(found) == len(open_keys):
                break
        for k, S in found.items():
            answer[k] = [size, S]
        open_keys = [k for k in open_keys if k not in found]
    return answer


def least_at(adj, key: str, size: int) -> int | None:
    """The lexicographically least dominating p-set of exactly this size."""
    for combo in itertools.combinations(range(len(adj)), size):
        S = sum(1 << v for v in combo)
        if dominates(adj, S) and PREDICATES[key](adj, S):
            return S
    return None


def closed_form(family: str, n: int, key: str) -> int:
    """gamma_c(P_n) = gamma_c(C_n) = n - 2 and
    gamma_t(P_n) = gamma_t(C_n) = floor(n/2) + ceil(n/4) - floor(n/4)."""
    if key == "C":
        return n - 2
    if key == "T":
        return n // 2 + -(-n // 4) - n // 4
    raise ValueError(f"no closed form for {family}{n} under {key}")


def check_answer(adj, key: str, answer) -> bool:
    value, witness = answer
    if value is None:
        return witness is None and forced_undefined(adj, key)
    return (isinstance(witness, int) and witness >= 0
            and witness.bit_count() == value and witness < 1 << len(adj)
            and dominates(adj, witness) and PREDICATES[key](adj, witness))


# ------------------------------------------------- explore-n7c lines --

_RANK = {"beyond-cap": 1, "proven-infinite": 2}


def _ext_min(values):
    return min(values, key=lambda x: (0, x) if isinstance(x, int) else (_RANK[x], 0))


class ExploreOracle:
    """Expected classify/msd lines for one property, from gamma_oracle."""

    def __init__(self, domlab, key: str):
        self.domlab = domlab
        self.key = key
        self.p = domlab.parse_property(key)
        self._gamma: dict = {}

    def gamma(self, g) -> int | None:
        k = (g.n, g.adj)
        if k not in self._gamma:
            self._gamma[k] = self.domlab.gamma_oracle(g, self.p).value
        return self._gamma[k]

    def minimum_sets(self, g, value: int) -> list[int]:
        adj = list(g.adj)
        pred = PREDICATES[self.key]
        sets = [sum(1 << v for v in combo)
                for combo in itertools.combinations(range(g.n), value)]
        return [S for S in sets if dominates(adj, S) and pred(adj, S)]

    @staticmethod
    def _private(adj, x: int, M: int) -> int:
        return sum(1 << y for y in range(len(adj))
                   if (adj[y] | 1 << y) & M == 1 << x)

    def _conditions(self, adj, u: int, v: int, M: int) -> dict:
        pair = 1 << u | 1 << v

        def half(a, b):
            if not M >> a & 1:
                return False
            pn = self._private(adj, a, M)
            return bool(pn >> b & 1) and bool(pn & ~pair)

        return {"set": list(bits(M)), "i": M & pair == 0,
                "ii": half(u, v), "iii": half(v, u)}

    def expected_classify(self, g6: str) -> list[dict]:
        d = self.domlab
        g = d.parse_graph6(g6)
        base = self.gamma(g)
        lines = []
        for u, v in g.edges():
            sub = self.gamma(d.subdivide_edge(g, (u, v), 1))
            deleted = self.gamma(d.delete_edge(g, (u, v)))
            in_scope = None not in (base, sub, deleted)
            conditions = [] if base is None else [
                self._conditions(list(g.adj), u, v, M)
                for M in self.minimum_sets(g, base)]
            lines.append({
                "graph": g6, "property": self.key, "edge": [u, v],
                "gammas": {"base": base, "subdivided": sub, "deleted": deleted},
                "flags": {"s_plus": in_scope and sub > base,
                          "s_minus": in_scope and sub < base,
                          "er_minus": in_scope and deleted < base,
                          "in_scope": in_scope},
                "conditions": conditions,
            })
        return lines

    def expected_msd(self, g6: str, cap: int) -> list[dict]:
        d = self.domlab
        g = d.parse_graph6(g6)
        lines, per_edge = [], []
        for u, v in g.edges():
            values = [self.gamma(g)] + [
                self.gamma(d.subdivide_edge(g, (u, v), t)) for t in range(1, cap + 1)]
            if None in values:
                msd = up = down = None
            else:
                base = values[0]
                later = range(1, cap + 1)
                msd = next((t for t in later if values[t] != base), "beyond-cap")
                up = next((t for t in later if values[t] > base), "beyond-cap")
                down = next((t for t in later if values[t] < base), "beyond-cap")
                if down == "beyond-cap" and self.key == "I":
                    down = "proven-infinite"
            per_edge.append((msd, up, down))
            lines.append({"graph": g6, "property": self.key, "edge": [u, v],
                          "values": values, "msd": msd, "msd_plus": up,
                          "msd_minus": down, "cap": cap})
        if per_edge:
            if any(m is None for m, _, _ in per_edge):
                graph_level = (None, None, None)
            else:
                graph_level = tuple(_ext_min(col) for col in zip(*per_edge))
            lines.append({"graph": g6, "property": self.key, "edge": None,
                          "msd": graph_level[0], "msd_plus": graph_level[1],
                          "msd_minus": graph_level[2], "cap": cap})
        return lines
