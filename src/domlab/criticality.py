"""Edge criticality under one subdivision and under deletion.

An edge is S+-critical when a single subdivision raises gamma, S--critical
when it lowers it, and ER--critical when deleting the edge lowers gamma.
`check_theorem1_conditions` evaluates, against one minimum set M, the three
structural conditions that characterize S+-critical edges; condition (iii)
is implemented as the mirror image of (ii) (swap the roles of the
endpoints). `literal=True` selects the non-symmetrized reading of (iii),
which can never hold, so audit runs with it report (i) and (ii) alone.
`condition_report` checks them against every minimum set.

When any of the three gamma values involved is undefined, every flag is
False and the classification is marked out of scope; the theorems'
hypotheses guarantee existence, so outside them we report rather than
assert. `is_s_plus_critical_iff_conditions`, `s_minus_equiv_er_minus` and
`class_membership` are the verifier's COR2-iff, T3-equiv and COR4-classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .bitset import VertexSet
from .graph import Edge, Graph, check_edge, delete_edge, private_neighbors, subdivide_edge
from .properties import ANY_GRAPH, PropertyDescriptor, holds_induced, require
from .solver import all_minimum_sets, gamma_value, is_dominating


class ConditionCheck(NamedTuple):
    i: bool
    ii: bool
    iii: bool

    @property
    def any(self) -> bool:
        return self.i or self.ii or self.iii


@dataclass(frozen=True)
class EdgeClassification:
    edge: Edge
    gamma: int | None
    gamma_subdivided: int | None
    gamma_deleted: int | None
    s_plus: bool
    s_minus: bool
    er_minus: bool
    in_scope: bool
    condition_report: tuple[tuple[VertexSet, ConditionCheck], ...]


def check_theorem1_conditions(g: Graph, e: Edge, p: PropertyDescriptor, M: VertexSet,
                              literal: bool = False) -> ConditionCheck:
    """Which of the S+-criticality conditions does the minimum set M satisfy?

    (i)   neither endpoint is in M;
    (ii)  u in M, v is a private neighbor of u w.r.t. M, and u's private
          neighbors are not all within {u, v};
    (iii) mirror of (ii) with the endpoints swapped. With literal=True (iii)
          is always False: its last clause asks for private neighbors of u
          outside {u, v}, but u is then a private neighbor of v w.r.t. M, so
          u is not in M and no vertex is dominated by u alone. The reading is
          kept so audit runs can compare both.
    """
    value = gamma_value(g, p)
    if value is None or M.bit_count() != value or not is_dominating(g, M) or \
            not holds_induced(p, g, M):
        raise ValueError("M is not a minimum dominating p-set of g")
    u, v = check_edge(g, e)
    ubit, vbit = 1 << u, 1 << v
    pair = ubit | vbit

    def half(a, abit, bbit):
        if not M & abit:
            return False
        pn_a = private_neighbors(g, a, M)
        return bool(pn_a & bbit) and bool(pn_a & ~pair)

    return ConditionCheck(not M & pair, half(u, ubit, vbit),
                          not literal and half(v, vbit, ubit))


def condition_report(g: Graph, e: Edge, p: PropertyDescriptor, literal: bool = False):
    """(M, the conditions M meets) per minimum set M of g, lazily, in lexicographic order."""
    for M in all_minimum_sets(g, p):
        yield M, check_theorem1_conditions(g, e, p, M, literal=literal)


def classify_edge(g: Graph, e: Edge, p: PropertyDescriptor,
                  literal: bool = False) -> EdgeClassification:
    """Gamma values and criticality flags for one edge, plus the per-minimum-set
    condition report."""
    u, v = check_edge(g, e)
    base = gamma_value(g, p)
    subdivided = gamma_value(subdivide_edge(g, (u, v), 1), p)
    deleted = gamma_value(delete_edge(g, (u, v)), p)
    in_scope = None not in (base, subdivided, deleted)
    report = () if base is None else tuple(condition_report(g, (u, v), p, literal))
    return EdgeClassification(
        edge=(u, v),
        gamma=base,
        gamma_subdivided=subdivided,
        gamma_deleted=deleted,
        s_plus=in_scope and subdivided > base,
        s_minus=in_scope and subdivided < base,
        er_minus=in_scope and deleted < base,
        in_scope=in_scope,
        condition_report=report,
    )


class IffCheck(NamedTuple):
    lhs: bool  # the edge is S+-critical
    rhs: bool  # every minimum set satisfies one of (i)/(ii)/(iii)


def is_s_plus_critical_iff_conditions(g: Graph, e: Edge, p: PropertyDescriptor = ANY_GRAPH,
                                      literal: bool = False) -> IffCheck:
    """Both sides of the S+-criticality characterization (proved for the
    unrestricted property; other properties are accepted for exploration).

    Unlike classify_edge's s_plus, lhs needs no gamma of G-e: it holds when
    gamma of G and of the subdivided graph exist and the subdivision raises it.
    rhs stops at the first minimum set that satisfies no condition.
    """
    base = gamma_value(g, p)
    subdivided = gamma_value(subdivide_edge(g, e, 1), p)
    lhs = None not in (base, subdivided) and subdivided > base
    rhs = base is not None and all(c.any for _, c in condition_report(g, e, p, literal))
    return IffCheck(lhs, rhs)


class MinusCheck(NamedTuple):
    s_minus: bool
    er_minus: bool


def _minus_check(g: Graph, e: Edge, p: PropertyDescriptor) -> MinusCheck:
    """classify_edge's s_minus and er_minus, both False if a gamma is undefined."""
    base = gamma_value(g, p)
    subdivided = gamma_value(subdivide_edge(g, e, 1), p)
    deleted = gamma_value(delete_edge(g, e), p)
    in_scope = None not in (base, subdivided, deleted)
    return MinusCheck(in_scope and subdivided < base, in_scope and deleted < base)


def s_minus_equiv_er_minus(g: Graph, e: Edge, p: PropertyDescriptor) -> MinusCheck:
    """The two sides of the subdivision-vs-deletion equivalence.

    Requires an induced-hereditary property closed under union with K1;
    outside that scope the equivalence is not claimed.
    """
    require(p, "induced_hereditary")
    return _minus_check(g, e, p)


class ClassMembership(NamedTuple):
    cs_minus: bool   # every edge S--critical
    cer_minus: bool  # every edge ER--critical


def class_membership(g: Graph, p: PropertyDescriptor) -> ClassMembership:
    """One pass over the edges, which stops once an edge outside each class
    has been seen."""
    edges = g.edges()
    if not edges:
        raise ValueError("class membership needs at least one edge")
    cs_minus = cer_minus = True
    for e in edges:
        s_minus, er_minus = _minus_check(g, e, p)
        cs_minus &= s_minus
        cer_minus &= er_minus
        if not (cs_minus or cer_minus):
            break
    return ClassMembership(cs_minus, cer_minus)
