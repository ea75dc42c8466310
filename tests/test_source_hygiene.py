"""Every function and method of the library is referenced somewhere.

The check is syntactic: a name counts as used when it appears as a ``Name``,
an ``Attribute``, an import alias or a string constant anywhere in the
library, the tests, the demos or the benchmark.  Dunder methods are called
by the interpreter and are left out.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "ainfkit"
USERS = ("src", "tests", "demos", "perfbench")


def _defined(path):
    """(qualified name, bare name) of every function and method in a file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append((f"{path.stem}.{node.name}", node.name))
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    out.append((f"{path.stem}.{node.name}.{item.name}", item.name))
    return [(q, n) for q, n in out if not (n.startswith("__") and n.endswith("__"))]


def _referenced():
    names = set()
    for top in USERS:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.split(".")[-1])
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
    return names


def test_no_unreferenced_functions():
    used = _referenced()
    unused = sorted(q for path in sorted(LIBRARY.glob("*.py"))
                    for q, name in _defined(path) if name not in used)
    assert unused == []


# Every true division ("/") in the library, as (module, function), checked
# by hand to never divide two ints: int / int is a float, which no exact
# rational may become.  Exact quotients are written Fraction(a, b) instead,
# so the list is empty; a new "/" fails here until it is audited and added.
AUDITED_DIVISIONS = set()


def _scopes(path, matches):
    """(module, enclosing qualified name) of every node of a file that
    ``matches``."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope is None else f"{scope}.{child.name}"
            if matches(child):
                found.add((path.stem, scope))
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def _is_division(node):
    return isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)


def test_every_division_is_audited():
    found = set().union(*(_scopes(path, _is_division) for path in sorted(LIBRARY.glob("*.py"))))
    assert found == AUDITED_DIVISIONS


# Every caller of the slot-filling enumerator, as (module, function).  Twists,
# residuals, gauge actions, compositions, homotopy inverses and the morphism
# and homotopy checks all go through the one block-sum kernel; the tree
# sums and the Maurer-Cartan solver push each finished sum forward in their
# own slot order.  A new caller fails here until it is made a kernel call or
# added.
FILL_SLOTS_CALLERS = {("gradedcore", "_block_sum"), ("transfer", "_tree_sums"),
                      ("floer", "mc_solve")}


def _calls_fill_slots(node):
    return isinstance(node, ast.Call) and "_fill_slots" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def test_fill_slots_has_three_callers():
    found = set().union(*(_scopes(path, _calls_fill_slots)
                          for path in sorted(LIBRARY.glob("*.py"))))
    assert found == FILL_SLOTS_CALLERS


# Every caller of the unchecked constructor, as (module, function): the
# builders whose output is valid by construction once their inputs are.
# Documents, the public constructors, sector unions, rescaling, geometric
# assembly and the strict whiskering and inverse keep every check; a new
# caller fails here until its output is shown valid and it is added.
BUILT_CALLERS = {("floer", "twist"), ("floer", "sector_project"),
                 ("transfer", "minimal_model"), ("ainfty", "compose_morphisms"),
                 ("ainfty", "identity_morphism"), ("gapped", "truncate_level")}


def _calls_built(node):
    return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_built"


def test_built_has_six_callers():
    found = set().union(*(_scopes(path, _calls_built)
                          for path in sorted(LIBRARY.glob("*.py"))))
    assert found == BUILT_CALLERS
