"""Discrete cubical homology of finite simple graphs.

Computes the normalized singular cubical chain complex, the degree
filtration and its spectral sequence, injective homology, the homology of
the filled-cube CW complex, and (quasi)monophobicity certificates.
"""

__version__ = "0.1.0"

from .budget import BudgetExhausted, DimensionBudgetError, set_time_budget
from .chains import (
    BasedComplex,
    degree_quotient_complex,
    degree_subcomplex,
    dump_complex,
    flip_prism,
    homology,
    normalized_complex,
)
from .cubes import (
    CubeSubgraph,
    cube_degree,
    cube_subgraphs,
    cubical_dimension,
    face,
    is_degenerate,
    is_graph_map,
    is_injective,
    singular_cubes,
)
from .cwcomplex import (
    CwCubeComplex,
    build_cw_complex,
    cell_to_degree_class,
    cw_homology,
    geometric_class_check,
)
from .graphs import (
    Graph,
    complete_bipartite_graph,
    cycle_graph,
    format_edge_list,
    generate,
    graph_space_homology,
    greene_sphere,
    hypercube_graph,
    is_square_free,
    is_triangle_free,
    parse_edge_list,
)
from .monophobic import (
    MonoReport,
    check_cube,
    check_graph,
    is_monophobic,
    is_quasimonophobic,
    is_rigid,
    supported_face_count,
)
from .spectral import (
    ConvergenceReport,
    SpectralPage,
    e1_page,
    einfinity_report,
    er_term,
    h2_exact_sequence,
    injective_homology,
    quotient_homology,
)
from .zlinalg import (
    AbelianGroup,
    GroupMap,
    smith_normal_form,
)
