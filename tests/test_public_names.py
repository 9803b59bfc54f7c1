"""Every public name in the package is reached from outside the tests.

A public top-level function or class of `src/flutes/*.py` counts as
reached when one of these refers to it: another module of the package
(other than `__init__`, whose re-exports alone reach nothing), its own
module outside its own body (so self-recursion does not count), a script
under `perfbench/` (including the names its tracer hooks by string), a
`pyproject.toml` script entry, or an inline code span of README.md that
names it (`name`, `module.name` or `name(...)`).
"""

import ast
import os
import re
import sys
import types

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SRC = os.path.join(ROOT, "src", "flutes")
PERFBENCH = os.path.join(ROOT, "perfbench")


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def _walk(tree, skip=None):
    todo = [tree]
    while todo:
        node = todo.pop()
        if node is not skip:
            yield node
            todo.extend(ast.iter_child_nodes(node))


def _module_refs(tree):
    """(module, name) pairs a package module refers to through its imports:
    `from .m import name` and `alias.name` after `from . import m as alias`."""
    aliases = {}
    refs = set()
    for node in _walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                if node.module is None:
                    aliases[a.asname or a.name] = a.name
                else:
                    refs.add((node.module, a.name))
    for node in _walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            refs.add((aliases[node.value.id], node.attr))
    return refs


def _bare_names(tree, skip=None):
    return {node.id for node in _walk(tree, skip) if isinstance(node, ast.Name)}


def _outside_refs():
    """Names that perfbench, the scripts and README reach.  perfbench is
    read by name alone (it binds modules to attributes), and its tracer's
    `(module, attribute, ...)` string tuples count too."""
    refs = set()
    for fname in os.listdir(PERFBENCH):
        if not fname.endswith(".py"):
            continue
        for node in _walk(_parse(os.path.join(PERFBENCH, fname))):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Tuple) and len(node.elts) >= 2 and all(
                    isinstance(e, ast.Constant) and isinstance(e.value, str)
                    for e in node.elts[:2]):
                refs.add(node.elts[1].value)
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        scripts = fh.read().partition("[project.scripts]")[2].partition("\n[")[0]
    refs.update(re.findall(r':(\w+)"', scripts))
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = re.sub(r"```.*?```", "", fh.read(), flags=re.S)
    for span in re.findall(r"`([^`\n]+)`", readme):
        m = re.fullmatch(r"(?:[A-Za-z_]\w*\.)*([A-Za-z_]\w*)(?:\(.*\))?", span)
        if m:
            refs.add(m.group(1))
    return refs


def unreached_names():
    trees = {f[:-3]: _parse(os.path.join(SRC, f))
             for f in sorted(os.listdir(SRC)) if f.endswith(".py")}
    src_refs = set().union(*(_module_refs(tree) for mod, tree in trees.items()
                             if mod != "__init__"))
    outside = _outside_refs()
    unreached = []
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            name = node.name
            if (name in outside or (mod, name) in src_refs
                    or name in _bare_names(tree, skip=node)):
                continue
            unreached.append(f"{mod}.{name}")
    return unreached


def test_every_public_name_is_reached_outside_the_tests():
    assert unreached_names() == []


def test_the_package_does_not_shadow_its_unify_module():
    import flutes.unify as U
    assert isinstance(U, types.ModuleType)
    assert U is sys.modules["flutes.unify"]
