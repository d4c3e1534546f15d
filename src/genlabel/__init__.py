"""genlabel: multi-choice distributed labeling algorithms with a verification harness.

The library simulates synchronous message-passing algorithms that compute,
for every vertex or edge, a set of labels any of which completes a valid
global solution.  Each node can then privately draw its final label, so no
other node learns it.  Independent checkers certify the structural
invariants and the privacy metrics (palette size, minimum domain size, and
their ratio) of every algorithm's output.
"""

from .coverfree import (
    PolyFamily,
    residual_elements,
    smallest_prime_geq,
    verify_cover_free,
)
from .decomposition import (
    Clustering,
    ForestLabeling,
    HPartition,
    arboricity_generic_coloring,
    forest_decomposition,
    generic_network_decomposition,
    h_partition,
    linial_saks,
)
from .edge_coloring import (
    DominatingColoredSet,
    KuhnEdgeColoring,
    dominating_edge_coloring,
    edge_coloring_via_line_graph,
    kuhn_defective_edge_coloring,
    maximal_matching,
    simple_edge_coloring,
)
from .graphs import (
    GeneratorSpec,
    Graph,
    Orientation,
    dump_edge_list,
    forest_union_parts,
    generate,
    line_graph,
    load_edge_list,
    log_star,
    orient_by_id,
    orient_forest,
)
from .labels import LabelDomain, draw_count
from .results import ColoringResult, DomainsResult
from .rng import Stream, subseed
from .runtime import NodeContext, NodeProgram, RunReport, run_sync
from .vertex_coloring import (
    cole_vishkin_3coloring,
    expand_to_generic,
    generic_defective_coloring,
    generic_delta2_coloring,
    generic_random_coloring,
)

__version__ = "0.1.0"
