"""The package namespace is exactly the union of its modules' exports, and
every cache in it is bounded."""

import sparkforge
from sparkforge import (
    cli,
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


def test_every_lru_cache_has_a_finite_maxsize():
    caches = {}
    for module in (*MODULES, cli):
        for name, value in vars(module).items():
            members = vars(value).items() if isinstance(value, type) else ()
            for key, obj in [(name, value), *((f"{name}.{k}", v) for k, v in members)]:
                if hasattr(obj, "cache_parameters"):
                    caches[f"{module.__name__}.{key}"] = obj.cache_parameters()["maxsize"]
    assert "sparkforge.exact_arith._ring" in caches and "sparkforge.spark_engine._root_images" in caches
    assert all(maxsize is not None for maxsize in caches.values()), caches
