"""Signed domination functions of multistate monotone systems.

The signed domination of a binary structure, the number of odd
formations minus even formations of its minimal path sets, extends to
each level of a multistate monotone system and carries its exact
reliability: P(phi >= k) is the domination expansion evaluated at the
component survival probabilities.  This package computes the invariant
several independent ways (formation counting, Mobius inversion on the
join closure, a full-lattice subset formula, pivotal decomposition, a
reduction to the associated binary system) and by closed forms for
threshold systems, matroid systems and two-terminal flow networks.  The
associated binary system and a matroid's link are level functions of
systems over {0,1}^n, so every route takes them.
"""

from .errors import (
    ComplexityGuardError,
    DimensionError,
    DistributionError,
    DomainError,
    DomikitError,
    GraphError,
    InvalidGeneratorError,
    ParseError,
    ValidationError,
)
from .poset import (
    DominationTable,
    JoinClosure,
    Vector,
    domination_by_closure_mobius,
    domination_by_formations,
    join_closure,
)
from .systems import (
    ComponentDistribution,
    LevelSystem,
    MultistateSystem,
    check_monotone,
    minimal_path_vectors,
    path_vector_system,
    reliability_enumerate,
    reliability_from_domination,
    sum_system,
    table_system,
)
from .domination import (
    associated_binary,
    binary_signed_domination,
    delta_at,
    domination_via_binary,
    pivotal_domination,
)
from .matroid import (
    Matroid,
    MatroidSystemLink,
    beta_number,
    crapo_beta,
    domination_from_beta,
    domination_invariant_recursion,
    graphic_matroid,
    link_structure,
    uniform_matroid,
)
from .network import (
    Edge,
    FlowNetwork,
    connectivity_thresholds,
    directed_network_domination,
    find_directed_cycle,
    max_flow,
    minimal_cut_sets,
    network_system,
    reduces_to_connectivity,
    relevant_edges,
)
from .signed import threshold_domination
from .documents import (
    SystemDocument,
    parse_system,
    parse_system_dict,
)

__version__ = "0.1.0"
