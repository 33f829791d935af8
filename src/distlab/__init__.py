"""distlab: state discrimination toolkit for multipartite systems.

Builds state families (Bell, generalized Bell, Domino, extended product
bases), verifies POVM classes (general, projective, PPT, SEP, one-round
local trees), restricts measurements between systems of different local
dimensions, and decides PPT distinguishability with a small dense SDP
engine.  The ``distlab`` command line exposes the same operations.
"""

__version__ = "0.1.0"

from .linalg import (
    embed_matrix,
    partial_transpose,
    restrict_matrix,
    tensor,
)
from .states import (
    State,
    StateSet,
    bell_states,
    domino_states,
    embed_set,
    embed_state,
    extended_domino_basis,
    generalized_bell_states,
    mutually_orthogonal,
    pure_state,
    schmidt_rank,
)
from .povm import (
    Locc1Tree,
    Povm,
    SepDecomposition,
    check_kind,
    counterexample_c4,
    flatten_locc1,
    is_ppt_povm,
    is_projective,
    random_locc1,
    random_povm,
    random_ppt_povm,
    random_sep_povm,
    restrict_locc1,
    restrict_povm,
    verify_locc1,
    verify_povm,
    verify_sep,
)
from .sdp import PtCone, SdpProblem, SdpSolution, SolveOptions, project_ppt, project_psd, solve
from .discrimination import (
    check_perfect,
    check_unambiguous,
    global_distinguishable,
    local_global_fuzz,
    ppt_distinguishability,
    theorem1_ppt_invariance,
    theorem1_trace_identity,
)

__all__ = [
    "State",
    "StateSet",
    "Povm",
    "SepDecomposition",
    "Locc1Tree",
    "SdpProblem",
    "SdpSolution",
    "SolveOptions",
    "PtCone",
    "tensor",
    "partial_transpose",
    "embed_matrix",
    "restrict_matrix",
    "pure_state",
    "bell_states",
    "generalized_bell_states",
    "domino_states",
    "extended_domino_basis",
    "embed_state",
    "embed_set",
    "schmidt_rank",
    "mutually_orthogonal",
    "verify_povm",
    "check_kind",
    "is_projective",
    "is_ppt_povm",
    "verify_sep",
    "verify_locc1",
    "flatten_locc1",
    "restrict_povm",
    "restrict_locc1",
    "random_povm",
    "random_ppt_povm",
    "random_sep_povm",
    "random_locc1",
    "counterexample_c4",
    "solve",
    "project_psd",
    "project_ppt",
    "check_perfect",
    "check_unambiguous",
    "global_distinguishable",
    "ppt_distinguishability",
    "theorem1_trace_identity",
    "theorem1_ppt_invariance",
    "local_global_fuzz",
]
