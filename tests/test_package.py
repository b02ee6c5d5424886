"""The package namespace is exactly the union of its modules' exports,
every cache in it is bounded, every name a module imports is used, every
private helper is called, and float matrices are read in one function."""

import ast
from pathlib import Path

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


def test_every_imported_name_is_used():
    """A name imported by a module of the package is read in that module or
    listed in its __all__, unless its import carries "# noqa: F401"."""
    unused = []
    for path in sorted(Path(sparkforge.__file__).parent.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_every_private_function_and_class_is_referenced():
    """A module-level function or class whose name starts with one
    underscore is named somewhere in the package outside its own
    definition, as a name or as an attribute."""
    defined, referenced = [], set()
    for path in sorted(Path(sparkforge.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            is_def = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if is_def and node.name.startswith("_") and not node.name.startswith("__"):
                defined.append((node.name, f"{path.name}:{node.lineno}"))
                names.discard(node.name)
            referenced |= names
    assert len(defined) > 50
    assert [where for name, where in defined if name not in referenced] == []


def test_float_matrices_are_read_in_one_function():
    """to_complex_rows and np.isfinite are called only inside
    constructions._complex_matrix, so no second reader of float matrices
    checks shapes and finiteness its own way."""
    callers = set()
    for path in sorted(Path(sparkforge.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            for call in ast.walk(node):
                if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                        and call.func.attr in ("to_complex_rows", "isfinite")):
                    callers.add(f"{path.stem}.{getattr(node, 'name', '<module>')}")
    assert callers == {"constructions._complex_matrix"}
