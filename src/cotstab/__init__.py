"""Stability and bifurcation analysis of constant on-time DC-DC converters.

Three independent routes to the same physics: exact sampled-data analysis
of the switching cycle, harmonic balance in the frequency domain, and
brute-force time-domain simulation.  The package computes stability
boundaries (period doubling and saddle-node), pole placement ramps, and
the closed-form design rules that approximate them, and cross-checks the
routes against each other.

Importing the package loads no submodule.  A public name of an analysis
submodule resolves from that submodule's ``__all__`` on first use, as
``cotstab.<module>.X``; ``cotstab.simulate`` is the simulation module, so
its function is ``cotstab.simulate.simulate``.
"""

import importlib

__version__ = "0.1.0"

# the submodules whose public names the package offers, in lookup order
_ANALYSIS = ("errors", "linalg", "models", "sampled", "bifurcation",
             "harmonic", "simulate")
_SUBMODULES = _ANALYSIS + ("tables", "cases", "cli")


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        return [public for mod in _ANALYSIS
                for public in __getattr__(mod).__all__
                if public not in _SUBMODULES]
    if not name.startswith("_"):
        for mod in _ANALYSIS:
            module = __getattr__(mod)
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SUBMODULES, *__getattr__("__all__")})
