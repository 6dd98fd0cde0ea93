"""Induced-minor containment: solvers, exhaustive oracles, witness models."""

from .catalog import PatternClass, classify, named_graph
from .cli import DispatchConfig, UnsupportedInstance, dispatch
from .graphs import (
    ContractionTrace,
    Graph,
    GraphError,
    GraphParseError,
    from_edgelist,
    from_graph6,
    to_edgelist,
    to_graph6,
)
from .models import (
    Answer,
    Model,
    ModelError,
    lift_through_trace,
    shrink_small_degree_bag,
    straighten_path_bags,
    verify_model,
    witness_from_json,
    witness_to_json,
)
from .oracle import (
    SearchCapExceeded,
    clique_minor_test,
    induced_minor_exhaustive,
    induced_subgraph_search,
    iter_induced_minor_models,
    rooted_clique_minor,
)
from .solvers import (
    SolverPreconditionError,
    bounded_bag_search,
    solve_clique,
    solve_clique_plus_isolated,
    solve_complete_split,
    solve_disjoint_paths,
    solve_full_house,
    solve_gem,
    solve_house_bull,
    solve_pt_free,
    solve_snt_single,
)

__version__ = "0.1.0"
