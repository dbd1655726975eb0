"""Every top-level function, class and constant of the library has a
caller: something in src/ or bench/ refers to it outside its own
definition, by name, by attribute or by a string (the benchmark's tracer
names its targets by string).  Every method and property of a top-level
class, dunders aside, is read as an attribute (`.name`) in src/ or bench/
outside its own body.  A definition that only tests call belongs in the
tests; `pinweil_refute` is kept as the non-member certificate of Mal'cev
membership, which no decision path reads yet.

A keyword argument that some call in src/ or bench/ passes must take more
than one value there, a call that omits it passing the default: a flag
or budget with one value in use is a module constant, not a parameter.

The checks match by name alone, so a definition passes when another one
of the same name has a caller: `Dfa.to_json_dict`, say, would pass on the
strength of `FiniteSemigroup.to_json_dict`.  The keyword check skips a
name that more than one function or class of src/ defines, and a value
other than a literal counts as a value of its own."""

import ast
from collections import Counter, defaultdict
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


VARIES = object()  # the value of an argument that is not a literal


def _literal(node):
    return node.value if isinstance(node, ast.Constant) else VARIES


def _parameters(fn, skip):
    """name -> (position or None if keyword-only, default node or None)
    for each parameter of fn past its first `skip` positional ones."""
    a = fn.args
    positional = [*a.posonlyargs, *a.args]
    defaults = [None] * (len(positional) - len(a.defaults)) + a.defaults
    params = {p.arg: (i, d) for i, (p, d) in
              enumerate(zip(positional[skip:], defaults[skip:]))}
    params.update((p.arg, (None, d)) for p, d in zip(a.kwonlyargs, a.kw_defaults))
    return params


def _signatures(tree):
    """(callable name, parameters) for each top-level function, and for
    each method of a top-level class, its self dropped; a class is called
    by its own name through __init__."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, _parameters(node, 0)
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in sub.decorator_list)
                    name = node.name if sub.name == "__init__" else sub.name
                    yield name, _parameters(sub, 0 if static else 1)


def _called_name(call):
    f = call.func
    if isinstance(f, ast.Name):
        return f.id
    return f.attr if isinstance(f, ast.Attribute) else None


def test_no_keyword_takes_one_value():
    trees = _trees()
    signatures = defaultdict(list)
    for path in sorted(SRC.glob("*.py")):
        for name, params in _signatures(trees[path]):
            signatures[name].append(params)
    calls = defaultdict(list)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called_name(node) in signatures:
                calls[_called_name(node)].append(node)
    constant = []
    for name, found in sorted(signatures.items()):
        if len(found) != 1:
            continue
        passed = {k.arg for c in calls[name] for k in c.keywords}
        for kw, (pos, default) in found[0].items():
            if kw not in passed:
                continue
            values = set()
            for c in calls[name]:
                given = [k.value for k in c.keywords if k.arg == kw]
                if any(isinstance(a, ast.Starred) for a in c.args) or \
                        any(k.arg is None for k in c.keywords):
                    values.add(VARIES)
                elif given:
                    values.add(_literal(given[0]))
                elif pos is not None and pos < len(c.args):
                    values.add(_literal(c.args[pos]))
                else:
                    values.add(VARIES if default is None else _literal(default))
            if len(values) == 1 and VARIES not in values:
                constant.append(f"{name}({kw}={values.pop()!r})")
    assert not constant, f"one value in src/ and bench/: {constant}"
