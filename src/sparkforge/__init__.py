"""Exact spark certification, frame constructions, and matroid girth tools.

The package re-exports every public name of its six library modules; each
module's ``__all__`` is the one list of what it exports.  The exports are
lazy (PEP 562): ``import sparkforge`` loads no submodule, and the first read
of a name imports the library modules in _SEARCH order until one exports
it, so reading a name of a module without numpy does not load numpy.
"""

import importlib

__version__ = "0.1.0"

# The library modules in the order of __all__, and in the order a name is
# looked for: the modules that do not import numpy first.
_MODULES = ("exact_arith", "exact_linalg", "spark_engine", "constructions", "dft_analysis", "matroid")
_SEARCH = ("exact_arith", "exact_linalg", "dft_analysis", "matroid", "spark_engine", "constructions")


def _module(name: str):
    return importlib.import_module(f"{__name__}.{name}")


def __getattr__(name: str):
    if name == "__all__":
        value = ["errors", *(n for m in _MODULES for n in _module(m).__all__), "__version__"]
    elif name == "errors" or name in _MODULES:
        value = _module(name)
    else:
        owner = next((m for m in map(_module, _SEARCH) if name in m.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
