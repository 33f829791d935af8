"""distlab: state discrimination toolkit for multipartite systems.

Builds state families (Bell, generalized Bell, Domino, extended product
bases), verifies POVM classes (general, projective, PPT, SEP, one-round
local trees), restricts measurements between systems of different local
dimensions, and decides PPT distinguishability with a small dense SDP
engine.  The ``distlab`` command line exposes the same operations.

``import distlab`` loads none of the submodules: each exported name, and
each submodule such as ``distlab.sdp``, is imported on first use (PEP 562),
so a command pays only for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# each exported name, in __all__'s order, and the submodule that defines it
_HOMES = {
    "State": "states",
    "StateSet": "states",
    "Povm": "povm",
    "SepDecomposition": "povm",
    "Locc1Tree": "povm",
    "SdpProblem": "sdp",
    "SdpSolution": "sdp",
    "SolveOptions": "sdp",
    "PtCone": "sdp",
    "tensor": "linalg",
    "partial_transpose": "linalg",
    "embed_matrix": "linalg",
    "restrict_matrix": "linalg",
    "pure_state": "states",
    "bell_states": "states",
    "generalized_bell_states": "states",
    "domino_states": "states",
    "extended_domino_basis": "states",
    "embed_state": "states",
    "embed_set": "states",
    "schmidt_rank": "states",
    "mutually_orthogonal": "states",
    "verify_povm": "povm",
    "check_kind": "povm",
    "is_projective": "povm",
    "is_ppt_povm": "povm",
    "verify_sep": "povm",
    "verify_locc1": "povm",
    "flatten_locc1": "povm",
    "restrict_povm": "povm",
    "restrict_locc1": "povm",
    "random_povm": "povm",
    "random_ppt_povm": "povm",
    "random_sep_povm": "povm",
    "random_locc1": "povm",
    "counterexample_c4": "povm",
    "solve": "sdp",
    "project_psd": "sdp",
    "project_ppt": "sdp",
    "check_perfect": "discrimination",
    "check_unambiguous": "discrimination",
    "global_distinguishable": "discrimination",
    "ppt_distinguishability": "discrimination",
    "theorem1_trace_identity": "discrimination",
    "theorem1_ppt_invariance": "discrimination",
    "local_global_fuzz": "discrimination",
}
_SUBMODULES = frozenset(_HOMES.values())

__all__ = list(_HOMES)


def __getattr__(name: str):
    if name in _HOMES:
        return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
