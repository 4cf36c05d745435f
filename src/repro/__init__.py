"""repro: executable reproduction of *On the Bisection Width and Expansion of
Butterfly Networks* (Bornstein, Litman, Maggs, Sitaraman, Yatzkar; IPPS 1998 /
Theory of Computing Systems 34, 2001).

The package turns every construction of the paper into code: the networks
(:mod:`repro.topology`), cuts and bisection-width solvers (:mod:`repro.cuts`),
embeddings and embedding-based lower bounds (:mod:`repro.embeddings`),
edge/node expansion with the credit-distribution schemes
(:mod:`repro.expansion`), a routing substrate (:mod:`repro.routing`), and a
theorem-level certified API (:mod:`repro.core`).

Quickstart
----------
>>> from repro import butterfly, wrapped_butterfly
>>> from repro.core import butterfly_bisection_width
>>> cert = butterfly_bisection_width(8)          # exact for small n
>>> cert.is_exact, cert.value
(True, 8)
"""

from importlib import import_module as _import_module

__version__ = "1.0.0"

#: The re-exported names, grouped by the submodule that defines them.  A
#: submodule is imported on first attribute access (PEP 562), so
#: ``import repro.cli`` loads no network code until a command needs it.
#: Each key is an attribute too: the submodule itself.
_EXPORTS: dict[str, tuple[str, ...]] = {
    "topology": (
        "Network",
        "Butterfly",
        "butterfly",
        "wrapped_butterfly",
        "cube_connected_cycles",
        "benes",
        "mesh_of_stars",
        "hypercube",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name in _SOURCE:
        return getattr(_import_module(f"{__name__}.{_SOURCE[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SOURCE) | set(_EXPORTS))
