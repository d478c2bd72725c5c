"""Local Lipschitz filters for bounded-range functions on hypergrids.

Query-local correction of a function oracle so that answers always look
1-Lipschitz, plus the things built on top of it: exact small-instance
distance oracles, a differentially private value mechanism, a tolerant
Lipschitz tester, and planted hard instances.
"""

from .errors import (
    BudgetExceeded,
    CapExceeded,
    DimensionError,
    Error,
    InvalidInterval,
    InvalidParam,
    NotACover,
    OutOfDomain,
    ParseError,
    PartialFunction,
    RangeViolation,
    RetryExhausted,
    SizeExceeded,
)
from .exact import (
    exact_l0_distance,
    exact_l1_distance,
    min_vertex_cover,
    min_violation_cover,
)
from .exprs import evaluate, format_expr, parse_expr
from .filter_l0 import LocalFilterL0, global_filter_l0
from .filter_l1 import (
    DEFAULT_SLACK,
    LocalFilterL1,
    Schedule,
    global_filter_l1,
    make_schedule,
)
from .functions import (
    CallableFunction,
    ClippedFunction,
    ExprFunction,
    FunctionOracle,
    Interval,
    RestrictedFunction,
    TableFunction,
    format_value,
    function_to_json,
    load_function,
    parse_rational,
    parse_value,
)
from .graphs import (
    DEFAULT_SCAN_BUDGET,
    ExplicitGraph,
    Hypercube,
    Hypergrid,
    graph_to_json,
    load_graph,
    random_vertex,
)
from .hard import (
    HardInstance,
    check_separation,
    hard_instance_from_json,
    sample_hard_instance,
    separation_threshold,
)
from .matching import DEFAULT_EDGE_BUDGET, MatchingLCA, greedy_maximal_matching
from .privacy import (
    BinarySearchMechanism,
    FilterMechanism,
    MechanismResult,
    NoiseSource,
)
from .seeds import SEED_BYTES, Seed, edge_rank
from .tester import (
    TesterParams,
    TestReport,
    make_params,
    tolerant_test,
    tolerant_test_once,
)
from .violation import (
    is_c_lipschitz,
    max_violation_score,
    scan_scored_neighbors,
    violation_edges,
    violation_score,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
