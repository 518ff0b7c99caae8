"""Finite keis and quandles, digraph encodings, and isomorphism tools.

The package revolves around one construction: every irreflexive digraph
G yields a kei on two copies of its vertex set, and two digraphs are
isomorphic exactly when their keis are.  Everything needed to state,
instrument, and exhaustively verify that claim at small orders lives
here: axiom checkers, group and two-operation (sigma) algebra sources
of examples, the encoder and its inverse, and isomorphism searches with
brute-force oracles.
"""

from .digraph import (
    Bijection,
    Digraph,
    digraph_from_pattern,
    enumerate_digraphs,
    find_graph_isomorphism,
    is_graph_isomorphism,
    parse_edge_list,
    pattern_of,
    random_digraph,
)
from .errors import (
    InputError,
    InternalContradiction,
    InvalidIso,
    InvalidWitness,
    KeikitError,
    MalformedLine,
    NotAGraphIso,
    NotAGroup,
    NotAKei,
    NotBijective,
    NotReplete,
    OutOfRange,
    PreconditionViolated,
    SelfLoop,
    SemanticError,
    TooLarge,
    WitnessMismatch,
)
from .folding import (
    EncodedKei,
    FoldedWitness,
    apex_extension,
    decode_graph,
    derive_dynamical_quandle,
    detect_folded,
    detect_folded_all,
    encode_kei,
    twin_involution,
)
from .groups import FiniteGroup, conjugation_quandle, standard_groups
from .iso import (
    ReductionVerdict,
    extract_graph_iso,
    format_verdict_line,
    induced_kei_iso,
    is_magma_isomorphism,
    magma_iso_bruteforce,
    magma_iso_bruteforce_all,
    magma_iso_search,
    reduction_check,
    vertex_split,
)
from .magma import (
    AxiomReport,
    Ladder,
    Magma,
    check_axiom_idempotent,
    check_axiom_involutory,
    check_axiom_ld,
    check_axiom_unique_left_division,
    classify,
)
from .sigma import (
    SigmaAlgebra,
    check_sigma,
    check_sigma_identities,
    check_sigma_implies_ld,
    group_to_sigma,
)

__version__ = "0.1.0"
