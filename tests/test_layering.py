"""The import layering of the library, read from its source.

Each primitive has one owner module, and the modules import each other at
module level.  Only two imports sit inside functions, each breaking a real
import cycle: ``identities`` imports ``structure``, whose ``change_basis``
is a law table, and ``operators`` imports ``varieties``, whose nary-Jordan
check needs ``derivation_space``.
"""

import ast
import pathlib

import nonassoc
from nonassoc import identities, kantor, operators, structure

SRC = pathlib.Path(nonassoc.__file__).parent

# (module, top-level function) of each import that breaks a cycle
DEFERRED = {("structure", "change_basis"), ("varieties", "check_variety")}
# (importing module, imported module, name) of each private name shared
PRIVATE = {("linalg", "scalars", "_is_prime")}


def _imports(node, func=None):
    """(enclosing top-level function or None, node) of every import and
    ``__import__`` call under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _imports(child, func or child.name)
            continue
        if isinstance(child, (ast.Import, ast.ImportFrom)) or (
                isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                and child.func.id == "__import__"):
            yield func, child
        yield from _imports(child, func)


def _library():
    return {path.stem: list(_imports(ast.parse(path.read_text(encoding="utf-8"))))
            for path in sorted(SRC.glob("*.py"))}


def test_only_the_cycle_breaking_imports_sit_in_functions():
    deferred = [(module, func) for module, found in _library().items()
                for func, _ in found if func is not None]
    assert sorted(deferred) == sorted(DEFERRED)


def test_no_private_name_is_imported_across_modules():
    private = {(module, node.module, alias.name)
               for module, found in _library().items() for _, node in found
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names if alias.name.startswith("_")}
    assert private == PRIVATE


def test_kantor_invariants_and_incidence_do_not_import_operators():
    library = _library()
    for module in ("kantor", "invariants", "incidence"):
        imported = {node.module for _, node in library[module]
                    if isinstance(node, ast.ImportFrom) and node.level == 1}
        assert "operators" not in imported, module


def test_each_primitive_has_one_owner():
    assert identities.linear_conditions.__module__ == "nonassoc.identities"
    assert structure.multiplication_operator.__module__ == "nonassoc.structure"
    # their users import them from the owner, so the names resolve there too
    assert kantor.linear_conditions is identities.linear_conditions
    assert operators.multiplication_operator is structure.multiplication_operator
