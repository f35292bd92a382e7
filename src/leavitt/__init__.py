"""Graded and regular ideals of Leavitt path algebras of finite graphs.

The calculus runs entirely on vertex sets (hereditary saturated subsets
stand in for graded ideals); an explicit matrix algebra over GF(p) and a
Laurent-polynomial model act as independent referees.
"""

from .errors import (
    GraphDocumentError,
    GraphMismatchError,
    InvalidArgumentError,
    LatticeTooLargeError,
    LeavittError,
    OracleDimensionError,
    OracleUnsupportedError,
    UnknownVertexError,
)
from .graphs import Edge, Graph
from .hereditary import (
    ENUMERATION_CUTOFF,
    HereditarySaturatedSet,
    enumerate_hs_sets,
    hs_closure,
    lattice_with_regularity,
)
from .ideals import (
    CLASS_BOTH,
    CLASS_PERP_ZERO,
    CLASS_REGULAR,
    RegularityReport,
    analyze,
    bar_closure,
    double_perp,
    is_regular,
    maximal_graded_ideals,
    pc_bijection_check,
    perp,
    quotient_graph,
)
from .graphdoc import (
    document_from_graph,
    dump_graph_json,
    graph_from_document,
    load_graph,
    parse_graph_json,
)
from .laurent import LaurentElement, laurent_perp_is_zero
from .oracle import (
    DEFAULT_DIMENSION_CAP,
    IdealSubspace,
    OracleAlgebra,
    Subspace,
    build_oracle,
    ideal_generated_by,
    is_graded_subspace,
    perp_subspace,
    vertex_set_of,
)
from .verify import VerificationMatrix, VerifyConfig, run_verification

__version__ = "0.1.0"

__all__ = [
    "CLASS_BOTH",
    "CLASS_PERP_ZERO",
    "CLASS_REGULAR",
    "DEFAULT_DIMENSION_CAP",
    "ENUMERATION_CUTOFF",
    "Edge",
    "Graph",
    "GraphDocumentError",
    "GraphMismatchError",
    "HereditarySaturatedSet",
    "IdealSubspace",
    "InvalidArgumentError",
    "LatticeTooLargeError",
    "LaurentElement",
    "LeavittError",
    "OracleAlgebra",
    "OracleDimensionError",
    "OracleUnsupportedError",
    "RegularityReport",
    "Subspace",
    "UnknownVertexError",
    "VerificationMatrix",
    "VerifyConfig",
    "analyze",
    "bar_closure",
    "build_oracle",
    "document_from_graph",
    "double_perp",
    "dump_graph_json",
    "enumerate_hs_sets",
    "graph_from_document",
    "hs_closure",
    "ideal_generated_by",
    "is_graded_subspace",
    "is_regular",
    "lattice_with_regularity",
    "laurent_perp_is_zero",
    "load_graph",
    "maximal_graded_ideals",
    "parse_graph_json",
    "pc_bijection_check",
    "perp",
    "perp_subspace",
    "quotient_graph",
    "run_verification",
    "vertex_set_of",
]
