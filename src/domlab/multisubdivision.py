"""Subdivision value profiles and multisubdivision numbers.

For an edge e, values[t] is gamma of the graph with e subdivided t times
(values[0] is gamma of the graph itself). The multisubdivision number of e
is the least t >= 1 whose subdivision changes gamma; the plus/minus variants
ask for the first strict increase/decrease.

When no t <= cap qualifies, the result is the BEYOND_CAP marker ("> cap,
theory silent") except where theory forces infinity: for the unrestricted
property, subdividing never lowers gamma, so an unchanged-or-higher profile
certifies PROVEN_INFINITE for the minus variant. Reporting distinguishes the
two because a finite answer past the cap is still possible in the
BEYOND_CAP case.

The graph-level quantities are edge-wise minima, where finite < BEYOND_CAP <
PROVEN_INFINITE (an unknown ">cap" keeps the minimum unknown, while a fully
certified-infinite edge set stays certified).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from .errors import BoundViolation
from . import formats
from .graph import (
    Edge,
    Graph,
    delete_edge,
    delete_vertex,
    memo_by_edge,
    subdivide_edge,
)
from .properties import PropertyDescriptor, require
from .solver import gamma_value, in_some_minimum_set

DEFAULT_CAP = 6


class MsdMarker(str, enum.Enum):
    BEYOND_CAP = "beyond-cap"
    PROVEN_INFINITE = "proven-infinite"

    def __str__(self):
        return self.value


BEYOND_CAP = MsdMarker.BEYOND_CAP
PROVEN_INFINITE = MsdMarker.PROVEN_INFINITE

MsdValue = int | MsdMarker


def _rank(x: MsdValue) -> tuple[int, int]:
    if isinstance(x, int):
        return (0, x)
    return (1, 0) if x is BEYOND_CAP else (2, 0)


def ext_min(values) -> MsdValue:
    return min(values, key=_rank)


@dataclass(frozen=True)
class MsdProfile:
    values: tuple[int | None, ...]  # gamma at t = 0..cap
    msd: MsdValue | None
    msd_plus: MsdValue | None
    msd_minus: MsdValue | None
    in_scope: bool  # False when some gamma value is undefined


def profile(g: Graph, e: Edge, p: PropertyDescriptor, cap: int = DEFAULT_CAP) -> MsdProfile:
    """Gamma under t-fold subdivision of e, for t = 0..cap, with msd numbers."""
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    values = [gamma_value(g, p)]
    for t in range(1, cap + 1):
        values.append(gamma_value(subdivide_edge(g, e, t), p))
    if any(x is None for x in values):
        return MsdProfile(tuple(values), None, None, None, False)

    base = values[0]
    msd: MsdValue = next(
        (t for t in range(1, cap + 1) if values[t] != base), BEYOND_CAP
    )
    msd_plus: MsdValue = next(
        (t for t in range(1, cap + 1) if values[t] > base), BEYOND_CAP
    )
    msd_minus: MsdValue = next(
        (t for t in range(1, cap + 1) if values[t] < base), BEYOND_CAP
    )
    if msd_minus is BEYOND_CAP and p.id == "I":
        msd_minus = PROVEN_INFINITE
    return MsdProfile(tuple(values), msd, msd_plus, msd_minus, True)


class MsdGraph(NamedTuple):
    msd: MsdValue | None
    msd_plus: MsdValue | None
    msd_minus: MsdValue | None


def msd_graph(g: Graph, p: PropertyDescriptor, cap: int = DEFAULT_CAP) -> MsdGraph:
    """Edge-wise minima of the three multisubdivision numbers.

    None fields mean some edge profile was out of scope (undefined gamma).
    """
    edges = g.edges()
    if not edges:
        raise ValueError("multisubdivision numbers need at least one edge")
    return edge_minima([profile(g, e, p, cap) for e in edges])


def edge_minima(profiles: list[MsdProfile]) -> MsdGraph:
    """The graph-level numbers from the profiles of all of a graph's edges."""
    if not all(pr.in_scope for pr in profiles):
        return MsdGraph(None, None, None)
    return MsdGraph(
        ext_min(pr.msd for pr in profiles),
        ext_min(pr.msd_plus for pr in profiles),
        ext_min(pr.msd_minus for pr in profiles),
    )


def s_class(g: Graph, p: PropertyDescriptor) -> int:
    """Which of the three subdivision classes the graph belongs to: 1, 2 or 3.

    Only hereditary properties closed under union with K1 are accepted: the
    class partition rests on the msd <= 3 guarantee, which is not claimed
    outside that scope (use msd_graph directly to inspect other properties).
    A computed value above 3 raises BoundViolation carrying the instance.
    """
    require(p, "hereditary")
    if not g.edges():
        raise ValueError("the subdivision class needs at least one edge")
    result = msd_graph(g, p, cap=3).msd
    if not isinstance(result, int) or not 1 <= result <= 3:
        raise BoundViolation(
            formats.to_graph6(g), p.key,
            f"multisubdivision number is {result}, expected within 1..3",
        )
    return result


class Multi1Check(NamedTuple):
    sandwich: bool
    a1: bool
    a2: bool
    a3: bool
    gamma: int
    gamma_deleted: int
    gamma_sub3: int


def _a2_conditions(g: Graph, e: Edge, p: PropertyDescriptor,
                   gamma_deleted: int) -> bool:
    """Does some endpoint satisfy: deleting it lowers gamma of the
    edge-deleted graph, while the other endpoint sits in some minimum set of
    the vertex-deleted graph?

    Deleting an endpoint also removes e, so the vertex deletion is taken
    from g directly.
    """
    u, v = e

    def side(a, b):
        smaller, kept = delete_vertex(g, a)
        reduced = gamma_value(smaller, p)
        if reduced is None or reduced >= gamma_deleted:
            return False
        return in_some_minimum_set(smaller, p, kept.index(b))

    return side(u, v) or side(v, u)


@memo_by_edge
def check_multi1(g: Graph, e: Edge, p: PropertyDescriptor) -> Multi1Check:
    """Sandwich bound and the three equivalent conditions for one edge.

    a1: gamma unchanged between edge deletion and triple subdivision;
    a2: the endpoint condition evaluated via vertex deletions;
    a3: edge deletion raises gamma by exactly one.
    a1 <=> a2 needs induced-hereditary + closed under union with K1 (enforced
    here); a1 <=> a3 additionally needs hereditary (gated by the caller).
    """
    require(p, "induced_hereditary")
    base = gamma_value(g, p)
    deleted = gamma_value(delete_edge(g, e), p)
    sub3 = gamma_value(subdivide_edge(g, e, 3), p)
    # induced-hereditary + K1-closed implies nondegenerate: all finite
    sandwich = deleted <= sub3 <= deleted + 1
    return Multi1Check(
        sandwich=sandwich,
        a1=deleted == sub3,
        a2=_a2_conditions(g, e, p, deleted),
        a3=deleted == 1 + base,
        gamma=base,
        gamma_deleted=deleted,
        gamma_sub3=sub3,
    )


class Multi4Check(NamedTuple):
    iff_holds: bool
    chain: bool | None  # None when the antecedent gamma(G) = gamma(G-e)+1 fails
    msd_le_3: bool
    profile: MsdProfile


@memo_by_edge
def check_multi4(g: Graph, e: Edge, p: PropertyDescriptor) -> Multi4Check:
    """Per-edge checks of the multisubdivision master statement.

    iff_holds: gamma survives triple subdivision exactly when edge deletion
    costs one. chain: under that antecedent, the full profile is forced:
    one and two subdivisions sit one below gamma, three to five at gamma,
    six one above, with msd = msd_minus = 1 and msd_plus = 6. msd_le_3: the
    edge's multisubdivision number is at most 3.
    """
    require(p, "hereditary")
    base = gamma_value(g, p)
    deleted = gamma_value(delete_edge(g, e), p)
    antecedent = base == deleted + 1
    prof = profile(g, e, p, cap=6 if antecedent else 3)
    iff_holds = (base == prof.values[3]) == antecedent
    chain = None
    if antecedent:
        w = prof.values
        chain = (
            w[1] == base - 1 and w[2] == base - 1
            and w[3] == base and w[4] == base and w[5] == base
            and w[6] == base + 1
            and prof.msd == 1 and prof.msd_minus == 1 and prof.msd_plus == 6
        )
    msd_le_3 = isinstance(prof.msd, int) and prof.msd <= 3
    return Multi4Check(iff_holds, chain, msd_le_3, prof)
