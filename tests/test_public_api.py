"""Public-API parity of the lazily re-exporting packages.

``repro`` and ``repro.core`` resolve their re-exports on first attribute
access (PEP 562).  These checks hold the lazy surface to the eager one it
replaced: the same ``__all__``, every name bound to the object its defining
module holds, ``dir()`` covering ``__all__``, and unknown names raising
the usual ``AttributeError``.
"""

from __future__ import annotations

import importlib

import pytest

#: ``sorted(__all__)`` of each package as it was when the re-exports were
#: eager imports.
EXPECTED_ALL = {
    "repro": [
        "Butterfly", "Network", "__version__", "benes", "butterfly",
        "cube_connected_cycles", "hypercube", "mesh_of_stars",
        "wrapped_butterfly",
    ],
    "repro.core": [
        "BoundCertificate", "CITABLE_REFERENCES", "CLAIM_TABLE", "Claim",
        "ClaimResult", "ClaimRow", "DESIGN_COVERAGE", "REGISTRY",
        "all_claim_ids", "at2_lower_bound", "bisection_width",
        "bn_area_estimate", "bn_volume_order", "butterfly_bisection_width",
        "ccc_bisection_width", "check", "edge_expansion",
        "fat_tree_bisection_width", "flattened_butterfly_bisection_width",
        "known_reference_keys", "mesh_bisection_width", "node_expansion",
        "parse_references", "resolve_reference", "routing_time_lower_bound",
        "solve_with_fallback", "theorem_220_interval",
        "thompson_area_lower_bound", "torus_bisection_width",
        "wrapped_bisection_width",
    ],
}

PACKAGES = sorted(EXPECTED_ALL)

#: Defining modules of the exported data, which carry no ``__module__``.
DATA_OWNERS = {
    "__version__": "repro",
    "CLAIM_TABLE": "repro.core.claims",
    "CITABLE_REFERENCES": "repro.core.claims",
    "DESIGN_COVERAGE": "repro.core.claims",
    "REGISTRY": "repro.core.theorems",
}


@pytest.mark.parametrize("package", PACKAGES)
def test_all_matches_the_eager_surface(package):
    mod = importlib.import_module(package)
    assert sorted(mod.__all__) == EXPECTED_ALL[package]
    assert len(set(mod.__all__)) == len(mod.__all__)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_name_is_its_defining_modules_object(package):
    mod = importlib.import_module(package)
    for name in mod.__all__:
        value = getattr(mod, name)
        owner = DATA_OWNERS.get(name) or value.__module__
        assert owner.startswith(package), (name, owner)
        assert getattr(importlib.import_module(owner), name) is value, name


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_every_name(package):
    mod = importlib.import_module(package)
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    for name in mod.__all__:
        assert namespace[name] is getattr(mod, name), name


@pytest.mark.parametrize("package", PACKAGES)
def test_dir_covers_all(package):
    mod = importlib.import_module(package)
    assert set(mod.__all__) <= set(dir(mod))


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_name_raises_attribute_error(package):
    mod = importlib.import_module(package)
    with pytest.raises(AttributeError, match=f"module '{package}' has no attribute 'nope'"):
        mod.nope
    assert not hasattr(mod, "nope")


def test_core_submodules_stay_reachable_as_attributes():
    import repro.core

    for sub in ("bisection", "claims", "expansion_api", "fallback",
                "results", "theorems", "vlsi"):
        assert getattr(repro.core, sub) is importlib.import_module(f"repro.core.{sub}")
        assert sub in dir(repro.core)
