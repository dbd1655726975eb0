"""Every top-level function, class and constant of the library has a
caller: something in src/ or bench/ refers to it outside its own
definition, by name, by attribute or by a string (the benchmark's tracer
names its targets by string).  Every method and property of a top-level
class, dunders aside, is read as an attribute (`.name`) in src/ or bench/
outside its own body.  A definition that only tests call belongs in the
tests; `pinweil_refute` is kept as the non-member certificate of Mal'cev
membership, which no decision path reads yet.

Both checks match by name alone, so a definition passes when another one
of the same name has a caller: `Dfa.to_json_dict`, say, would pass on the
strength of `FiniteSemigroup.to_json_dict`."""

import ast
from collections import Counter
from pathlib import Path

import finsemi

SRC = Path(finsemi.__file__).parent
BENCH = Path(__file__).resolve().parent.parent / "bench"
KEPT = {"pinweil_refute"}


def _names(node):
    """Every name the subtree of node mentions, with multiplicity."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found[sub.value] += 1
    return found


def _attributes(node):
    """Every attribute name the subtree of node reads, with multiplicity."""
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def _definitions(tree):
    """(name, node) for each top-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _methods(tree):
    """(class name, method name, node) for each method and property of a
    top-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, sub.name, sub


def _trees():
    return {path: ast.parse(path.read_text(), str(path))
            for path in [*sorted(SRC.glob("*.py")), *sorted(BENCH.glob("*.py"))]}


def test_every_library_definition_has_a_caller():
    trees = _trees()
    mentions = sum((_names(tree) for tree in trees.values()), Counter())
    uncalled = []
    for path in sorted(SRC.glob("*.py")):
        for name, node in _definitions(trees[path]):
            if name.startswith("__") or name in KEPT:
                continue
            # a definition's own name and body do not count as a caller
            if mentions[name] - _names(node)[name] == 0:
                uncalled.append(f"{path.stem}.{name}")
    assert not uncalled, f"no caller in src/ or bench/: {uncalled}"


def test_every_library_method_is_read():
    trees = _trees()
    reads = sum((_attributes(tree) for tree in trees.values()), Counter())
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for cls, name, node in _methods(trees[path]):
            if name.startswith("__"):
                continue
            # reads inside the method's own body do not count
            if reads[name] - _attributes(node)[name] == 0:
                unread.append(f"{path.stem}.{cls}.{name}")
    assert not unread, f"no read in src/ or bench/: {unread}"
