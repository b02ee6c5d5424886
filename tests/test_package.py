"""The package namespace is exactly the union of its modules' exports."""

import sparkforge
from sparkforge import (
    constructions,
    dft_analysis,
    exact_arith,
    exact_linalg,
    matroid,
    spark_engine,
)

MODULES = (exact_arith, exact_linalg, spark_engine, constructions, dft_analysis, matroid)


def test_all_is_the_union_of_the_module_lists():
    union = [name for module in MODULES for name in module.__all__]
    assert len(set(union)) == len(union)  # no name is exported twice
    assert len(set(sparkforge.__all__)) == len(sparkforge.__all__)
    assert set(sparkforge.__all__) == set(union) | {"errors", "__version__"}


def test_every_exported_name_resolves_to_its_module_object():
    owner = {name: module for module in MODULES for name in module.__all__}
    for name in sparkforge.__all__:
        value = getattr(sparkforge, name)
        if name in owner:
            assert value is getattr(owner[name], name), name
    namespace = {}
    exec("from sparkforge import *", namespace)
    assert set(sparkforge.__all__) <= set(namespace)
