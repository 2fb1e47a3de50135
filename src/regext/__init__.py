"""regext: extend regular graphs by perfect matchings of the complement.

Library surface: immutable bitset graphs with graph6 I/O, blossom matching
with Tutte certificates, edge-connectivity and biclique structure,
constructive Hamiltonian-cycle extension, the table of extension rules and
the classifier that reads it, and seeded generation / exhaustive
enumeration of small regular graphs.
"""

from .graph import (
    ComponentPartition,
    Graph,
    Graph6Error,
    GraphError,
    add_matching,
    build,
    complement,
    components_after_deletion,
    format_graph6,
    is_connected,
    parse_graph6,
    regularity,
    require_regular,
)
from .matching import (
    Matching,
    TutteViolator,
    is_valid_matching,
    max_matching,
    max_matching_with_violator,
    perfect_matching,
)
from .structure import (
    BalloonBoundCheck,
    BalloonReport,
    BicliqueWitness,
    balloons,
    check_balloon_bound,
    check_ineq_kr,
    check_ineq_x,
    clique_number,
    find_bridges,
    find_clique,
    spanning_biclique,
)
from .extension import (
    DiracPreconditionError,
    ExtensionFailure,
    RULES,
    ExtensionTrace,
    Rule,
    TheoremVerdict,
    classify,
    cycle_to_matching,
    dirac_cycle,
    extend_once,
    extend_to,
    validate_cycle,
)
from .generation import (
    biclique_splits,
    canonical_form,
    enumerate_regular,
    random_regular,
    random_regular_bipartite,
    sample_clique_pair_regular,
    sample_disconnected_regular,
    sample_spanning_biclique_regular,
)

__version__ = "0.1.0"
