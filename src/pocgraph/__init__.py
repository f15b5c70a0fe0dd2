"""Properly ordered coloring of vertex-weighted graphs.

A properly ordered coloring (POC) assigns strictly larger colors to strictly
heavier endpoints of every edge, and distinct colors to equal-weight
endpoints. The package provides the data model and file formats, greedy and
orientation-based constructions, exact brute-force oracles for every derived
quantity, the complete-multipartite machinery, and a CLI with an exhaustive
self-test suite.
"""

from .graph_core import (
    Coloring,
    FormatError,
    Graph,
    Orientation,
    WeightedGraph,
    complement,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    normalize_weights,
    parse_coloring,
    parse_orientation,
    parse_wpoc,
    path_graph,
    random_weighted_graph,
    serialize_coloring,
    serialize_orientation,
    serialize_wpoc,
)
from .multipartite import (
    MocsDecomposition,
    MultipartiteInstance,
    SPaths,
    bipartite_chi_poc_t,
    bipartite_layered_coloring,
    complete_to_multipartite,
    completion_coloring,
    enumerate_mocs,
    find_max_spaths,
    find_mocs,
    g_value,
    h_argmax,
    h_value,
    mocs_coloring,
    multipartite_upper_bound,
    validate_mocs,
    validate_spaths,
)
from .oracles import (
    DEFAULT_CAPS,
    CapExceeded,
    OracleCaps,
    chi_poc_exact,
    chi_poc_t,
    chi_poc_t_argmax,
    chromatic_number,
    ell_prime_exact,
    ell_prime_orientation,
    enumerate_graphs,
    enumerate_pocs,
    f_argmax,
    f_exact,
    has_hamiltonian_path,
    iter_pocs,
    longest_path_exact,
    longest_path_witness,
    proper_coloring_exact,
    weak_orderings,
)
from .poc_engine import (
    build_good_orientation,
    dag_longest_path,
    first_violation,
    greedy_poc,
    greedy_poc_from_orientation,
    is_good_acyclic,
    is_valid_poc,
    layered_stack_coloring,
    orientation_from_coloring,
)

__version__ = "0.1.0"
