"""The import layering of the library, read from its source.

Each primitive has one owner module, and the modules import each other at
module level only: no import sits inside a function.  ``identities``, the
law engine, imports nothing from ``structure``, which imports it for
``change_basis`` (a law table), and ``varieties`` states every law as DSL
text for the engine, the nary-Jordan law included, so it needs no operator
space.

The identity scan holds each tensor's scan form on the tensor, which is
exact only while no table is written after ``StructureTensor.__init__``;
that too is read from the source.
"""

import ast
import pathlib

import nonassoc
from nonassoc import identities, kantor, operators, structure

SRC = pathlib.Path(nonassoc.__file__).parent

# (module, top-level function) of each import that breaks a cycle
DEFERRED = set()
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


def _imported(module):
    """(imported module, name) of each ``from .module import name`` of module."""
    return {(node.module, alias.name) for _, node in _library()[module]
            if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}


def test_the_law_engine_imports_nothing_from_structure():
    assert not any(module == "structure" for module, _ in _imported("identities"))


def test_varieties_checks_every_law_with_the_engine():
    names = {name for _, name in _imported("varieties")}
    assert not names & {"derivation_space", "multiplication_operator", "mat_mul", "mat_sub"}


def test_kantor_invariants_and_incidence_do_not_import_operators():
    library = _library()
    for module in ("kantor", "invariants", "incidence"):
        imported = {node.module for _, node in library[module]
                    if isinstance(node, ast.ImportFrom) and node.level == 1}
        assert "operators" not in imported, module


def test_each_primitive_has_one_owner():
    assert identities.linear_conditions.__module__ == "nonassoc.identities"
    assert identities.add_products.__module__ == "nonassoc.identities"
    assert structure.multiplication_operator.__module__ == "nonassoc.structure"
    # their users import them from the owner, so the names resolve there too
    assert kantor.linear_conditions is identities.linear_conditions
    assert operators.multiplication_operator is structure.multiplication_operator
    assert structure.add_products is identities.add_products


# dict methods that change the dict they are called on
MUTATORS = {"clear", "pop", "popitem", "setdefault", "update", "__setitem__", "__delitem__"}


def _is_table(node):
    """Whether node is a ``.table`` attribute or a subscript chain on one
    (``x.table``, ``x.table[k]``, ``x.table[k][j]``)."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr == "table"


def _table_writes(node, scope=()):
    """(qualified name of the enclosing class or function, line) of every
    statement or call under node that assigns or deletes a ``.table``,
    assigns into it, or calls a mutating method on it or on a row of it."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = scope + (child.name,)
        targets = []
        if isinstance(child, (ast.Assign, ast.Delete)):
            targets = list(child.targets)
        elif isinstance(child, (ast.AugAssign, ast.AnnAssign, ast.For, ast.AsyncFor)):
            targets = [child.target]
        while targets:
            target = targets.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                targets += target.elts
            elif isinstance(target, ast.Starred):
                targets.append(target.value)
            elif _is_table(target):
                yield ".".join(scope), child.lineno
        if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                and child.func.attr in MUTATORS and _is_table(child.func.value)):
            yield ".".join(scope), child.lineno
        yield from _table_writes(child, inner)


def test_tables_are_written_only_by_the_tensor_constructor():
    writes = [(path.stem, where) for path in sorted(SRC.glob("*.py"))
              for where, _ in _table_writes(ast.parse(path.read_text(encoding="utf-8")))]
    assert writes == [("structure", "StructureTensor.__init__")]


def test_the_table_guard_sees_each_kind_of_write():
    source = """
def f(t, u):
    t.table = {}
    t.table[0] = {}
    t.table[0][1] = 2
    t.table |= {}
    del t.table[0]
    a, t.table = 1, {}
    t.table.update({})
    t.table[0].pop(1)
    u.table.get(0)
    x = t.table
"""
    writes = list(_table_writes(ast.parse(source)))
    assert [line for _, line in writes] == [3, 4, 5, 6, 7, 8, 9, 10]
    assert {where for where, _ in writes} == {"f"}


def test_no_library_module_mentions_the_benchmark_tracer():
    """The library is not shaped by ``perfbench``: no module names it, so no
    call path exists only for the tracer to see."""
    assert [path.name for path in sorted(SRC.glob("*.py"))
            if "perfbench" in path.read_text(encoding="utf-8")] == []
