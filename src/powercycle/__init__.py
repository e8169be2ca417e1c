"""Clique expansion and embedding of powers of almost-spanning cycles in
adversarially thinned random graphs, at desk scale, with exact oracles."""

from .graph_core import (
    Graph,
    TupleView,
    common_neighborhood,
    complete_graph,
    complete_multipartite,
    count_canonical_cliques,
    empty_graph,
    enumerate_canonical_cliques,
    min_degree,
)
from .models import (
    AdversaryReport,
    ModelParams,
    adversary_partite,
    adversary_random,
    adversary_triangle_killer,
    extremal_blocker,
    gen_blowup,
    gen_gnp,
    partite_blocker_sizes,
    stream,
)
from .regularity import (
    RegularPartition,
    RegularityParams,
    RegularityVerdict,
    build_nice_partition,
    check_regular_exact,
    check_regular_sampled,
    chunk_partition,
    inheritance_stats,
)
from .typicality import (
    TypicalityParams,
    TypicalityReport,
    check_super_typical,
    clique_count_upper_check,
    typical_vertices,
)
from .expansion import (
    ExpansionParams,
    ExpansionTrace,
    expand_through,
    find_expander,
    halving_audit,
    one_step_expansion_audit,
)
from .embedder import (
    EmbedFailure,
    EmbedParams,
    PowerCycle,
    build_reduced,
    embed_power_cycle,
    exact_longest_power_cycle,
    find_cluster_power_cycle,
    verify_power_cycle,
)
from .harness import ExperimentConfig, TrialRecord, replay, resilience_sweep, run_experiment

__version__ = "0.1.0"
