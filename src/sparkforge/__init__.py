"""Exact spark certification, frame constructions, and matroid girth tools.

The package re-exports every public name of its six library modules; each
module's ``__all__`` is the one list of what it exports.
"""

from . import constructions, dft_analysis, errors, exact_arith, exact_linalg, matroid, spark_engine

__version__ = "0.1.0"

_MODULES = (exact_arith, exact_linalg, spark_engine, constructions, dft_analysis, matroid)

globals().update({name: getattr(module, name) for module in _MODULES for name in module.__all__})

__all__ = ["errors", *(name for module in _MODULES for name in module.__all__), "__version__"]
