"""The paper-level public API: certified bounds and the claim registry.

Everything here certifies a numbered statement of the paper — the headline
rows of DESIGN.md (Theorem 2.20, Lemmas 2.17/2.19, Lemmas 3.1–3.3, the
Section 4.3 tables) plus the Section 1.2 corollaries; the claim ids come
from the machine-readable table in :mod:`repro.core.claims`.
"""

from importlib import import_module as _import_module

#: The public names, grouped by the submodule that defines them.  A
#: submodule is imported on first attribute access (PEP 562): the solve
#: path imports :mod:`repro.core.fallback` alone and never pays for the
#: claim registry, the family solvers or the expansion API.  Each key is
#: an attribute too: the submodule itself.
_EXPORTS: dict[str, tuple[str, ...]] = {
    "claims": (
        "ClaimRow",
        "CLAIM_TABLE",
        "CITABLE_REFERENCES",
        "DESIGN_COVERAGE",
        "parse_references",
        "known_reference_keys",
        "resolve_reference",
    ),
    "results": ("BoundCertificate",),
    "bisection": (
        "bisection_width",
        "butterfly_bisection_width",
        "wrapped_bisection_width",
        "ccc_bisection_width",
        "torus_bisection_width",
        "mesh_bisection_width",
        "fat_tree_bisection_width",
        "flattened_butterfly_bisection_width",
        "theorem_220_interval",
    ),
    "expansion_api": ("edge_expansion", "node_expansion"),
    "fallback": ("solve_with_fallback",),
    "theorems": ("Claim", "ClaimResult", "REGISTRY", "check", "all_claim_ids"),
    "vlsi": (
        "thompson_area_lower_bound",
        "at2_lower_bound",
        "routing_time_lower_bound",
        "bn_area_estimate",
        "bn_volume_order",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name in _SOURCE:
        return getattr(_import_module(f"{__name__}.{_SOURCE[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SOURCE) | set(_EXPORTS))
