"""domlab: exact domination numbers under graph-property constraints.

Core objects: Graph (immutable, bit-packed adjacency), PropertyDescriptor
(a graph property with its hereditary/closure flags), and the gamma solver
family. On top sit edge criticality classification, subdivision profiles
with multisubdivision numbers, and corpus-driven verification suites.
"""

from .bitset import VertexSet, bitmask, iter_bits, members
from .corpus import BUNDLED, load_corpus, resolve_corpus
from .criticality import (
    ClassMembership,
    ConditionCheck,
    EdgeClassification,
    IffCheck,
    MinusCheck,
    check_theorem1_conditions,
    class_membership,
    classify_edge,
    condition_report,
    is_s_plus_critical_iff_conditions,
    s_minus_equiv_er_minus,
)
from .errors import (
    BoundViolation,
    CorpusError,
    DomlabError,
    EdgeListError,
    Graph6Error,
    OracleCapError,
    ScopeError,
    UndefinedGammaError,
)
from .formats import parse_edge_list, parse_graph6, to_graph6
from .generators import (
    complete,
    complete_multipartite,
    cycle,
    path,
    star,
    three_stars_triangle,
)
from .graph import (
    Edge,
    Graph,
    add_edge,
    components,
    components_within,
    delete_edge,
    delete_vertex,
    induced_subgraph,
    private_neighbors,
    subdivide_edge,
    translate_set,
)
from .multisubdivision import (
    BEYOND_CAP,
    DEFAULT_CAP,
    PROVEN_INFINITE,
    MsdGraph,
    MsdMarker,
    MsdProfile,
    Multi1Check,
    Multi4Check,
    check_multi1,
    check_multi4,
    edge_minima,
    ext_min,
    msd_graph,
    profile,
    s_class,
)
from .properties import (
    ANY_GRAPH,
    CATALOG,
    CLIQUE_COMPONENTS,
    CONNECTED,
    EDGELESS,
    FOREST,
    NO_ISOLATED,
    PropertyDescriptor,
    audit_flags,
    holds,
    holds_induced,
    max_degree,
    parse_property,
)
from .solver import (
    ORACLE_MAX_N,
    GammaResult,
    all_minimum_sets,
    gamma,
    gamma_oracle,
    gamma_value,
    in_some_minimum_set,
    is_dominating,
    v_minus_set,
)
from .verifier import (
    ASSERTIONS,
    STATEMENT_COVERAGE,
    SUITES,
    SuiteReport,
    VerifyOptions,
    all_reports_pass,
    emit_report,
    run_suite,
    run_suites,
    scan_counterexamples,
)

__version__ = "0.1.0"
