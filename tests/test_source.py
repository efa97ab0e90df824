"""Static checks on the package source, with the standard library only."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "clearflow"


def unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads; names listed in its `__all__`
    count as read, which exempts the re-exports of `__init__`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [
        f"{path.name}:{line} {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used
    ]


def unreferenced_definitions(package: Path, readers: list[Path]) -> list[str]:
    """Functions and methods defined in the modules of `package`, dunders
    aside, whose name no module under `readers` reads as a name or an
    attribute. An `__all__` entry is a string, not a read, so a function
    that is only re-exported counts as unreferenced."""
    defined: list[tuple[str, int, str]] = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                node.name.startswith("__") and node.name.endswith("__")
            ):
                defined.append((path.name, node.lineno, node.name))
    read: set[str] = set()
    for root in readers:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
    return [f"{module}:{line} {name}" for module, line, name in sorted(defined) if name not in read]


def calls_to(path: Path, name: str, function: str | None = None) -> list[str]:
    """Calls a module, or its function called `function`, makes to a
    function called `name`, by its bare name or as an attribute."""
    lines = {
        node.lineno
        for node in ast.walk(scope(path, function))
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }
    return [f"{path.name}:{line} {name}" for line in sorted(lines)]


def scope(path: Path, function: str | None = None) -> ast.AST:
    """The syntax tree of a module, or of its function called `function`; a
    dotted name such as "Class.method" reaches a method."""
    node = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for name in function.split(".") if function else []:
        (node,) = [
            child for child in node.body
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and child.name == name
        ]
    return node


def mode_decisions(path: Path, function: str | None = None) -> list[str]:
    """Places where a module, or its function called `function`, names a
    mode constant (`RATIONAL`, `FLOAT`) or compares something with an
    arithmetic mode: a `.mode` or a mode name."""
    found = set()
    for node in ast.walk(scope(path, function)):
        if isinstance(node, ast.alias):
            name = node.name
        else:
            name = getattr(node, "id", None) or getattr(node, "attr", None)
        if name in ("RATIONAL", "FLOAT"):
            found.add((node.lineno, name))
        elif isinstance(node, ast.Compare) and any(
            (isinstance(side, ast.Attribute) and side.attr == "mode")
            or (isinstance(side, ast.Constant) and side.value in ("rational", "float"))
            for side in [node.left, *node.comparators]
        ):
            found.add((node.lineno, "mode comparison"))
    return [f"{path.name}:{line} {what}" for line, what in sorted(found)]


#: the dense fields of a network whose rows only `network.py` walks
DENSE_FIELDS = ("liabilities", "relative")

#: calls that iterate their arguments
ITERATING_CALLS = {
    "all", "any", "compress", "enumerate", "filter", "frozenset", "list", "map", "max",
    "min", "reversed", "set", "sorted", "sum", "tuple", "zip",
}


def dense_row_walks(path: Path) -> list[str]:
    """Places where a module iterates a network's dense matrix or one of its
    rows (`x.relative`, `x.liabilities[i]`): as the iterable of a `for` or a
    comprehension, or as an argument of a call that iterates it."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

    def walks(node: ast.AST) -> bool:
        if isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute):
            return node.attr in DENSE_FIELDS
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ITERATING_CALLS:
            return any(walks(arg) for arg in node.args)
        return False

    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.comprehension)) and walks(node.iter):
            lines.add(node.iter.lineno)
        elif isinstance(node, ast.Call) and walks(node):
            lines.add(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(lines)]


def test_only_network_walks_dense_rows():
    # every pass over a network's rows walks its sparse lists,
    # FinancialNetwork.shares, which network.py builds from the dense fields
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "network.py"]
    assert [entry for path in modules for entry in dense_row_walks(path)] == []


def test_dense_row_walk_is_reported(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "def f(net, j):\n"
        "    for i, q in enumerate(net.relative[j]):\n"
        "        pass\n"
        "    rows = [x for row in net.liabilities for x in row]\n"
        "    total = sum(net.liabilities[j]) + max(zip(net.relative[0], rows))\n"
        "    return net.relative[j][0], restrict(net.relative, [j]), len(net.liabilities)\n"
        "def g(net):\n"
        "    return [q for _, q in net.shares[0]], [net.liabilities[i][0] for i in range(2)]\n"
    )
    assert dense_row_walks(module) == ["sample.py:2", "sample.py:4", "sample.py:5"]


def test_flow_makes_no_mode_decision():
    # the flow runs one code path; modes differ only through the network's
    # zero_rel and zero_tol and the scalars' zero_one
    assert mode_decisions(PACKAGE / "flow.py") == []


#: the functions of solvers.py at the edges of every command: their per-bank
#: arithmetic is the scalars kernels', which test the scalar type
EDGE_FUNCTIONS = ("phi", "_clamp", "verify_clearing", "result_from_payments", "bailout_vector")


@pytest.mark.parametrize("function", EDGE_FUNCTIONS)
def test_solver_edges_make_no_mode_decision_and_name_no_scalar_type(function):
    assert mode_decisions(PACKAGE / "solvers.py", function) == []
    assert scalar_type_names(PACKAGE / "solvers.py", function) == []


def test_mode_decision_is_reported(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from .scalars import RATIONAL, zero_one\nfrom . import scalars\n"
        "def f(net, x):\n    zero, _ = zero_one(net.mode)\n"
        "    if net.mode != 'float' and x > zero:\n        return scalars.FLOAT\n"
        "    return 'rational' == x\n"
        "def g(net):\n    return zero_one(net.mode)\n"
    )
    assert mode_decisions(module) == [
        "sample.py:1 RATIONAL",
        "sample.py:5 mode comparison",
        "sample.py:6 FLOAT",
        "sample.py:7 mode comparison",
    ]
    assert mode_decisions(module, "f") == [
        "sample.py:5 mode comparison",
        "sample.py:6 FLOAT",
        "sample.py:7 mode comparison",
    ]
    assert mode_decisions(module, "g") == []


#: names through which a module handles a scalar's type or its integers
SCALAR_TYPE_NAMES = ("Fraction", "as_integer_ratio", "isinstance", "numerator", "denominator")


def scalar_type_names(path: Path, function: str | None = None) -> list[str]:
    """Places where a module, or its function called `function`, names a
    scalar type, tests a type, or reads the integers of a scalar: one of
    `SCALAR_TYPE_NAMES`, as a name, an attribute or an imported name."""
    found = set()
    for node in ast.walk(scope(path, function)):
        if isinstance(node, ast.alias):
            names = (node.name, node.asname)
        else:
            names = (getattr(node, "id", None), getattr(node, "attr", None))
        found.update((node.lineno, name) for name in names if name in SCALAR_TYPE_NAMES)
    return [f"{path.name}:{line} {name}" for line, name in sorted(found)]


def test_flow_names_no_scalar_type():
    # exact arithmetic on a scalar's integers lives in scalars.py (the event
    # kernels advance and total) and markov.py (the factor), not in the flow
    assert scalar_type_names(PACKAGE / "flow.py") == []


def test_scalar_type_name_is_reported(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from fractions import Fraction as F\nimport fractions\n"
        "def f(x, y):\n    if isinstance(x, float):\n        return x.as_integer_ratio()\n"
        "    return fractions.Fraction(y.numerator, x.denominator)\n"
        "def g(fraction, ratio):\n    return fraction(ratio)\n"
    )
    assert scalar_type_names(module) == [
        "sample.py:1 Fraction",
        "sample.py:4 isinstance",
        "sample.py:5 as_integer_ratio",
        "sample.py:6 Fraction",
        "sample.py:6 denominator",
        "sample.py:6 numerator",
    ]
    assert scalar_type_names(module, "f") == scalar_type_names(module)[1:]
    assert scalar_type_names(module, "g") == []


def test_no_module_calls_solve_linear():
    # every balance system is a ZeroGroupFactor solve; elimination is kept
    # for reference only
    modules = sorted(PACKAGE.glob("*.py"))
    assert [entry for path in modules for entry in calls_to(path, "solve_linear")] == []


def test_call_is_reported(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from . import markov\nfrom .markov import solve_linear\n"
        "def f(rows, rhs):\n    x = solve_linear(rows, rhs)\n"
        "    return markov.solve_linear(rows, x), solve_linear\n"
        "def g(solve_linear_rows):\n    return solve_linear_rows()\n"
    )
    assert calls_to(module, "solve_linear") == [
        "sample.py:4 solve_linear",
        "sample.py:5 solve_linear",
    ]


def calls_outside(path: Path, name: str, function: str) -> list[str]:
    """Calls a module makes to a function called `name` outside its
    function called `function`."""
    inside = set(calls_to(path, name, function))
    return [entry for entry in calls_to(path, name) if entry not in inside]


def test_only_move_calls_advance():
    # one move routine: an event and a state's first read both move amounts
    # through flow._move
    flow = PACKAGE / "flow.py"
    assert calls_to(flow, "advance", "_move") != []
    assert calls_outside(flow, "advance", "_move") == []


def test_second_caller_of_advance_is_reported(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from . import scalars\nfrom .scalars import advance\n"
        "def _move(anchors, banks, t):\n    advance(anchors.debt, anchors.rates, t, banks)\n"
        "def form(state, t):\n    _move(state, [0], t)\n"
        "    scalars.advance(state.cash, state.rates, t, [0])\n"
    )
    assert calls_to(module, "advance") == ["sample.py:4 advance", "sample.py:7 advance"]
    assert calls_outside(module, "advance", "_move") == ["sample.py:7 advance"]


def self_loads(path: Path, names: tuple[str, ...], function: str | None = None) -> list[str]:
    """Places where a module, or its function or method `function`, loads
    an attribute `self.<name>` for one of `names`."""
    found = {
        (node.lineno, node.attr)
        for node in ast.walk(scope(path, function))
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and node.attr in names
        and getattr(node.value, "id", None) == "self"
    }
    return [f"{path.name}:{line} self.{name}" for line, name in sorted(found)]


def self_loads_outside(path: Path, names: tuple[str, ...], function: str) -> list[str]:
    """Loads of `self.<name>` a module makes outside its function or method
    `function`."""
    inside = set(self_loads(path, names, function))
    return [entry for entry in self_loads(path, names) if entry not in inside]


def test_only_the_record_routine_reads_the_factors_matrix():
    # a factor reads a bank's row and d entry once, into the bank's record;
    # every other step of the factor reads the record
    markov = PACKAGE / "markov.py"
    fields = ("matrix", "diagonal")
    assert self_loads(markov, fields, "ZeroGroupFactor._record") != []
    assert self_loads_outside(markov, fields, "ZeroGroupFactor._record") == []


def test_second_reader_of_the_factors_matrix_is_reported(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "class Factor:\n"
        "    def __init__(self, matrix, diagonal):\n"
        "        self.matrix, self.diagonal = matrix, diagonal\n"
        "    def _record(self, k):\n        return self.matrix[k], self.diagonal[k]\n"
        "    def solve(self, k):\n        return self._record(k), self.diagonal[k]\n"
        "def matrix(self):\n    return self.matrix\n"
    )
    fields = ("matrix", "diagonal")
    assert self_loads(module, fields, "Factor._record") == [
        "sample.py:5 self.diagonal", "sample.py:5 self.matrix",
    ]
    assert self_loads_outside(module, fields, "Factor._record") == [
        "sample.py:7 self.diagonal", "sample.py:9 self.matrix",
    ]
    assert self_loads_outside(module, fields, "matrix") == [
        "sample.py:5 self.diagonal", "sample.py:5 self.matrix", "sample.py:7 self.diagonal",
    ]


def test_no_module_calls_active_set():
    # the active set is computed once per network, by FinancialNetwork.active;
    # a call to markov.active_set would compute it outside that cache
    modules = sorted(PACKAGE.glob("*.py"))
    assert [entry for path in modules for entry in calls_to(path, "active_set")] == []


def test_active_set_call_is_reported(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from . import markov\nfrom .markov import active_set\n"
        "def f(net):\n    return active_set(net) | net.active\n"
        "def g(net):\n    return markov.active_set(net), net.active_set\n"
    )
    assert calls_to(module, "active_set") == [
        "sample.py:4 active_set",
        "sample.py:6 active_set",
    ]


def test_no_unused_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    assert [entry for path in modules for entry in unused_imports(path)] == []


def test_unused_import_is_reported(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "import os.path\nimport sys\nfrom json import dumps, loads as read\n"
        "from typing import Sequence\n__all__ = ['dumps']\n"
        "def f(x: Sequence) -> str:\n    return os.path.join(x)\n"
    )
    assert unused_imports(module) == ["sample.py:2 sys", "sample.py:3 read"]


def test_no_unreferenced_definitions():
    root = PACKAGE.parent.parent
    readers = [root / "src", root / "tests", root / "bench"]
    assert unreferenced_definitions(PACKAGE, readers) == []


def test_unreferenced_definition_is_reported(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "sample.py").write_text(
        "__all__ = ['exported']\n"
        "def exported():\n    return helper()\n"
        "def helper():\n    return 1\n"
        "def dead():\n    return 2\n"
        "class Box:\n    def __init__(self):\n        self.size = 0\n"
        "    def used(self):\n        return self.size\n"
        "    def unused(self):\n        return 3\n"
    )
    (tmp_path / "test_sample.py").write_text(
        "from pkg.sample import Box, exported\nexported()\nBox().used()\n"
    )
    assert unreferenced_definitions(package, [tmp_path]) == [
        "sample.py:6 dead",
        "sample.py:13 unused",
    ]
