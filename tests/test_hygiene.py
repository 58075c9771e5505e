"""Static checks on the package source: no unused imports, no dead helpers.

Both checks match names, not bindings: a name counts as used wherever an
identifier, attribute or imported alias of that spelling appears.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "carousel"
PERFBENCH = ROOT / "perfbench"

# paper-claim validators: entry points for readers of the paper, not for
# the deciders, so nothing in the package needs to call them
CLAIM_VALIDATORS = {"plucker_bound", "sharpness_validate",
                    "validate_ellipse_hull_counterexample"}


def _modules(directory):
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(directory.glob("*.py"))}


def _used_names(node, strings=False):
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.split(".")[-1])
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.update(sub.value.split("."))
    return out


def test_no_unused_imports():
    unused = []
    for path, tree in _modules(PACKAGE).items():
        if path.name == "__init__.py":  # re-exports
            continue
        loaded = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        loaded |= {sub.value.id for sub in ast.walk(tree)
                   if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)}
        for stmt in ast.walk(tree):
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in loaded:
                    unused.append(f"{path.name}: {name}")
    assert unused == []


def _units(package):
    """(owner, node, names used) per module statement, with each class split
    into its header (bases, keywords, decorators) and its members."""
    for tree in package.values():
        for stmt in tree.body:
            if not isinstance(stmt, ast.ClassDef):
                yield stmt, stmt, _used_names(stmt)
                continue
            header = stmt.bases + stmt.keywords + stmt.decorator_list
            yield stmt, header, set().union(*map(_used_names, header))
            for member in stmt.body:
                yield stmt, member, _used_names(member)


def test_every_definition_has_a_caller():
    # top-level functions, classes and assigned names, and the methods and
    # properties of package classes; a definition's own code does not count
    # as its caller
    package = {path: tree for path, tree in _modules(PACKAGE).items()
               if path.name != "__init__.py"}
    outside = set()
    for tree in _modules(PERFBENCH).values():
        outside |= _used_names(tree, strings=True)
    units = list(_units(package))
    dead = []
    for path, tree in package.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defs = [(node.id, [stmt]) for target in targets
                        for node in ast.walk(target) if isinstance(node, ast.Name)]
            elif isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs = [(stmt.name, [node for owner, node, _ in units if owner is stmt])]
            else:
                continue
            if isinstance(stmt, ast.ClassDef):
                defs += [(f"{stmt.name}.{m.name}", [m]) for m in stmt.body
                         if isinstance(m, ast.FunctionDef)
                         and not (m.name.startswith("__") and m.name.endswith("__"))]
            for label, own in defs:
                name = label.rpartition(".")[2]
                if name in CLAIM_VALIDATORS or name in outside:
                    continue
                if not any(name in used for _, node, used in units
                           if not any(node is o for o in own)):
                    dead.append(f"{path.name}: {label}")
    assert dead == []


def test_every_tracer_probe_resolves():
    # the benchmark's tracer looks each probe up by name when it installs;
    # a probed name that leaves the package fails here, with its name
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    probes = next(ast.literal_eval(stmt.value) for stmt in tree.body
                  if isinstance(stmt, ast.Assign)
                  and any(getattr(t, "id", None) == "PROBES" for t in stmt.targets))
    missing = []
    for _, home, attr, _ in probes:
        scope = vars(importlib.import_module(f"carousel.{home}"))
        cls_name, _, name = attr.rpartition(".")
        if cls_name:
            scope = vars(scope[cls_name]) if cls_name in scope else {}
        if name not in scope:
            missing.append(f"carousel.{home}.{attr}")
    assert probes
    assert missing == []
