"""No unused import and no unused module-private name in src/treeselect,
and one module that reads and writes CSV.

A name counts as used when its module reads it.  A module-private name
(one leading underscore, not a dunder) also counts as used when another
module of the package imports it or reads it as an attribute.  The
package's ``__init__`` only re-exports, so its imports are not checked.
Only ``designs`` imports the csv module, so ``write_csv`` and
``load_dataset`` stay the one home of the CSV format, and only ``designs``
opens a file for writing, so ``replace_file`` stays the one file writer.  Only ``experiment``
imports ``concurrent`` and no module imports ``multiprocessing``, so the
sweep's record stream stays the one place that starts worker processes.  No function calls
itself by its bare name, so no code path depends on Python's recursion
limit.  The oracle reads none of the router, node counts, split search,
growing, pruning and risk names of the code it checks, so it keeps its own
routing.  The tree classes are the oracle's alone: no other module but the
package's ``__init__`` reads them.  Every name in a module's ``__all__`` is
one that the module defines.  Only ``prune`` constructs a ``PrunedSequence``
and only ``penalties`` a ``CVCurve``, so each result type has one builder.
In ``prune`` only ``PrunedSequence._totals`` calls ``accumulate``, so a
sequence's per-element totals over leaves have one home, and in ``oracle``
only ``_cuts`` calls ``sort``, so each variable's candidate thresholds do.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "treeselect"


def _read_names(tree: ast.AST) -> set[str]:
    """Every bare name the module reads."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _imports(tree: ast.AST):
    """(bound name, line) of every import, ``from __future__`` left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _definitions(tree: ast.Module):
    """(name, line) of each module-level function, class or variable."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            yield name, node.lineno


def _private_definitions(tree: ast.Module):
    """(name, line) of each module-level private function, class or variable."""
    return ((name, line) for name, line in _definitions(tree)
            if name.startswith("_") and not name.startswith("__"))


def unused_names(sources: dict[str, str]) -> list[str]:
    """'module:line: unused ... name' for each finding in {module name: source}."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    shared = set()  # names that some module imports by name or reads as an attribute
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                shared.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                shared.add(node.attr)
    found = []
    for module, tree in sorted(trees.items()):
        read = _read_names(tree)
        if module != "__init__":
            found += [f"{module}:{line}: unused import {name}"
                      for name, line in _imports(tree) if name not in read]
        found += [f"{module}:{line}: unused private name {name}"
                  for name, line in _private_definitions(tree)
                  if name not in read and name not in shared]
    return found


def modules_importing(sources: dict[str, str], top: str) -> list[str]:
    """The modules of {module name: source} that import the top-level
    module `top`, or anything inside it, under any name."""
    found = []
    for module, text in sorted(sources.items()):
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == top for name in names):
                found.append(module)
                break
    return found


_MODE = re.compile(r"[rwxabt+]+")


def files_opened_for_writing(sources: dict[str, str]) -> list[str]:
    """'module:line: opens a file for writing' for each call of ``open``, by
    its bare name or as an attribute (``io.open``, ``path.open``), in
    {module name: source} whose mode holds w, x or a.  The mode is the
    ``mode`` keyword, or else the first of the first two positional
    arguments that is a string of mode letters; a mode that is not a string
    constant is not read."""
    found = []
    for module, text in sorted(sources.items()):
        for node in ast.walk(ast.parse(text)):
            if not (isinstance(node, ast.Call) and "open" in (getattr(node.func, "id", None),
                                                              getattr(node.func, "attr", None))):
                continue
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"] or [
                arg for arg in node.args[:2]
                if isinstance(arg, ast.Constant) and _MODE.fullmatch(str(arg.value))]
            mode = modes[0].value if modes and isinstance(modes[0], ast.Constant) else ""
            if set(str(mode)) & set("wxa"):
                found.append(f"{module}:{node.lineno}: opens a file for writing")
    return found


def self_calls(sources: dict[str, str]) -> list[str]:
    """'module:line: name calls itself' for each call of a function, by its
    bare name, inside that function's body in {module name: source}.  A
    method call through an attribute (``self.value()``, ``super().f()``) is
    not counted."""
    found = []
    for module, text in sorted(sources.items()):
        for func in ast.walk(ast.parse(text)):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{module}:{node.lineno}: {func.name} calls itself"
                          for node in ast.walk(func)
                          if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                          and node.func.id == func.name]
    return found


def names_read(sources: dict[str, str], names) -> list[str]:
    """'module:line: reads name' for each of `names` that a module of
    {module name: source} reads as a bare name or an attribute, or imports."""
    names = set(names)
    found = []
    for module, text in sorted(sources.items()):
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read = [node.id]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                read = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{module}:{node.lineno}: reads {name}" for name in read if name in names]
    return found


def undefined_exports(sources: dict[str, str]) -> list[str]:
    """'module: exports name' for each name in the ``__all__`` of a module
    of {module name: source} that no module-level definition binds; an
    imported name does not count as defined."""
    found = []
    for module, text in sorted(sources.items()):
        tree = ast.parse(text)
        defined = {name for name, _ in _definitions(tree)}
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                found += [f"{module}: exports {name}" for name in ast.literal_eval(node.value)
                          if name not in defined]
    return found


def calls_of(sources: dict[str, str], names) -> list[str]:
    """'module:line: calls name' for each call of one of `names`, by its bare
    name or as an attribute, in {module name: source}."""
    names = set(names)
    found = []
    for module, text in sorted(sources.items()):
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name in names:
                    found.append(f"{module}:{node.lineno}: calls {name}")
    return found


def callers_of(sources: dict[str, str], name: str) -> list[str]:
    """'module:line: caller calls name' for each call of `name`, by its bare
    name or as an attribute, in {module name: source}, where caller is the
    innermost function, method or lambda around the call, or <module>."""
    found = []
    for module, text in sorted(sources.items()):
        calls, stack = [], [(ast.parse(text), "<module>")]
        while stack:
            node, caller = stack.pop()
            if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                       getattr(node.func, "attr", None)):
                calls.append((node.lineno, caller))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                caller = node.name
            elif isinstance(node, ast.Lambda):
                caller = "<lambda>"
            stack += [(child, caller) for child in ast.iter_child_nodes(node)]
        found += [f"{module}:{line}: {caller} calls {name}" for line, caller in sorted(calls)]
    return found


# what the oracle checks, so it must not use it
CHECKED_NAMES = ("leaf_assignment", "predict_batch", "node_counts", "best_split",
                 "grow_maximal", "weakest_link", "preorder_tree", "empirical_risk")


# the tree classes, which only the oracle uses
CLASS_NAMES = ("ClassDescriptor", "LEAF_SHAPE", "tree_from_class")


def _package_sources() -> dict[str, str]:
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert len(sources) > 5
    return sources


def test_package_has_no_unused_imports_or_private_names():
    assert unused_names(_package_sources()) == []


def test_only_designs_imports_csv():
    assert modules_importing(_package_sources(), "csv") == ["designs"]


def test_only_designs_opens_files_for_writing():
    found = files_opened_for_writing(_package_sources())
    assert found and {line.split(":")[0] for line in found} == {"designs"}


def test_guard_flags_every_way_to_open_a_file_for_writing():
    sources = {
        "a": "fh = open(path, 'w')\n",
        "b": "with open(p, newline='', mode='a') as fh:\n    pass\n",
        "c": "import io\nio.open(p, 'x')\npath.open('rb+')\npath.open(mode='wb')\n",
        "d": ("open(p)\nopen(p, 'r')\nopen(p, newline='')\npath.open()\n"
              "open('a.txt')\nos.open(p, flags)\nopen(p, mode)\n"),
    }
    assert files_opened_for_writing(sources) == [
        "a:1: opens a file for writing", "b:1: opens a file for writing",
        "c:2: opens a file for writing", "c:4: opens a file for writing"]


def test_only_experiment_starts_processes():
    sources = _package_sources()
    assert modules_importing(sources, "concurrent") == ["experiment"]
    assert modules_importing(sources, "multiprocessing") == []


def test_no_function_calls_itself():
    assert self_calls(_package_sources()) == []


def test_guard_flags_a_function_that_calls_itself():
    sources = {
        "a": "def f(x):\n    return f(x - 1) if x else 0\n",
        "b": ("def outer():\n"
              "    def inner(n):\n"
              "        return [inner(n - 1)] if n else []\n"
              "    return inner\n"),
        "c": ("class C:\n"
              "    def value(self):\n"
              "        return self.margin.value()\n"
              "    def invoke(self):\n"
              "        return super().invoke()\n"
              "def g():\n"
              "    return f()\n"),
    }
    assert self_calls(sources) == ["a:2: f calls itself", "b:3: inner calls itself"]


def test_guard_flags_every_way_to_import_a_module():
    sources = {
        "a": "import csv as table\n",
        "b": "from csv import writer\n",
        "c": "def f():\n    import os, csv\n",
        "d": "from .designs import write_csv\nimport csvkit\n",
        "e": "import numpy as np\n",
    }
    assert modules_importing(sources, "csv") == ["a", "b", "c"]


def test_guard_flags_an_unused_import_and_an_unused_private_name():
    sources = {
        "a": ("from __future__ import annotations\n"
              "import math\n"
              "from fractions import Fraction\n"
              "_USED = 1\n"
              "_SHARED = 2\n"
              "def _unused():\n"
              "    return math.pi + _USED\n"),
        "b": "from .a import _SHARED\n\n\ndef f():\n    return _SHARED\n",
        "__init__": "from .b import f\n",
    }
    assert unused_names(sources) == ["a:3: unused import Fraction",
                                     "a:6: unused private name _unused"]


def test_oracle_keeps_its_own_routing():
    oracle = {"oracle": _package_sources()["oracle"]}
    assert names_read(oracle, CHECKED_NAMES) == []


def test_guard_flags_a_read_of_a_checked_name():
    sources = {
        "a": "from .tree import leaf_assignment\n",
        "b": "def f(tree, X):\n    return tree.predict_batch(X)\n",
        "c": "from . import grow\nbest = grow.best_split\n",
        "d": ("def f(tree):\n"
              "    node_counts = tree.nodes  # a binding, not a read\n"
              "    return 'weakest_link'\n"),
    }
    assert names_read(sources, CHECKED_NAMES) == ["a:1: reads leaf_assignment",
                                                  "b:2: reads predict_batch",
                                                  "c:2: reads best_split"]


def test_only_the_oracle_reads_the_tree_classes():
    sources = {module: text for module, text in _package_sources().items()
               if module not in ("oracle", "__init__")}
    assert names_read(sources, CLASS_NAMES) == []


def test_every_module_exports_only_names_it_defines():
    assert undefined_exports(_package_sources()) == []


def test_guard_flags_an_export_the_module_does_not_define():
    sources = {
        "a": ("from .b import g\n"
              "__all__ = ['f', 'C', 'X', 'g']\n"
              "def f():\n    pass\n"
              "class C:\n    pass\n"
              "X: int = 1\n"),
        "b": "__all__ = ('g', 'h')\ndef g():\n    pass\n",
        "c": "def f():\n    __all__ = ['nothing']\n",
    }
    assert undefined_exports(sources) == ["a: exports g", "b: exports h"]


def test_each_result_type_has_one_builder():
    sources = _package_sources()
    for name, builder in (("PrunedSequence", "prune"), ("CVCurve", "penalties")):
        found = calls_of(sources, [name])
        assert found and {line.split(":")[0] for line in found} == {builder}, found


def test_guard_flags_every_way_to_call_a_constructor():
    sources = {
        "a": "from .prune import PrunedSequence\nseq = PrunedSequence(t, s, l, e, n)\n",
        "b": "from . import penalties\ncurve = penalties.CVCurve(seq, e, s)\n",
        "c": ("from .prune import PrunedSequence\n"
              "def f(seq: PrunedSequence) -> PrunedSequence:\n"
              "    return seq.sizes\n"
              "kind = CVCurve\n"),
    }
    assert calls_of(sources, ["PrunedSequence", "CVCurve"]) == [
        "a:2: calls PrunedSequence", "b:2: calls CVCurve"]


def test_only_totals_accumulates_in_prune():
    found = callers_of({"prune": _package_sources()["prune"]}, "accumulate")
    assert found and {line.split(": ")[1] for line in found} == {"_totals calls accumulate"}, found


def test_only_cuts_sorts_in_the_oracle():
    found = callers_of({"oracle": _package_sources()["oracle"]}, "sort")
    assert found and {line.split(": ")[1] for line in found} == {"_cuts calls sort"}, found


def test_guard_names_every_sort_in_the_oracle():
    sources = {
        "oracle": ("import numpy as np\n"
                   "def _cuts(column):\n"
                   "    return np.sort(column)\n"
                   "def _erm_in_class(X, cuts):\n"
                   "    order = sorted(cuts)\n"
                   "    X[:, 0].sort()\n"
                   "    return np.sort(X, axis=0), order\n"),
    }
    assert callers_of(sources, "sort") == [
        "oracle:3: _cuts calls sort", "oracle:6: _erm_in_class calls sort",
        "oracle:7: _erm_in_class calls sort"]


def test_guard_names_the_caller_of_every_call():
    sources = {
        "a": ("from itertools import accumulate\n"
              "sizes = list(accumulate(xs))\n"
              "class S:\n"
              "    def _totals(self, v):\n"
              "        return list(accumulate(v))\n"
              "    def errors_on(self, d):\n"
              "        total = lambda v: itertools.accumulate(v)\n"
              "        def inner(v):\n"
              "            return accumulate(v, initial=0)\n"
              "        return total(d), inner(d)\n"),
        "b": ("import itertools\n"
              "sum_ = itertools.accumulate\n"
              "keep = accumulate_all(x)\n"
              "def f():\n"
              "    return itertools.accumulate(x)\n"),
    }
    assert callers_of(sources, "accumulate") == [
        "a:2: <module> calls accumulate", "a:5: _totals calls accumulate",
        "a:7: <lambda> calls accumulate", "a:9: inner calls accumulate",
        "b:5: f calls accumulate"]
