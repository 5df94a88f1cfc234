"""Every module-level function, class and UPPERCASE constant of the package
is named somewhere besides its own definition: elsewhere in the package, in
the benchmark, or in the acceptance tests. So is every method, property and
dataclass field of a package class, read as an attribute there. A name that
only the unit tests reach is dead code kept alive by its tests, and gets
deleted instead. Every parameter a certificate stores is read by some
package module outside SieveParams, which writes and reloads it: a stored
parameter no stage reads is dead too.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

from composite_forge.cover import SieveParams

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "composite_forge"
READERS = [
    *sorted(PACKAGE.glob("*.py")),
    *sorted((ROOT / "bench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]
# the dataclass functions that read every field of the class they are given
WHOLESALE = {"fields", "astuple", "asdict"}


def defined_names(tree: ast.Module) -> list[str]:
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.extend(
                t.id for t in targets
                if isinstance(t, ast.Name) and t.id.strip("_").isupper()
            )
    return out


def name_uses(tree: ast.AST) -> Counter:
    """Loads of a name, attribute reads, imports, and identifier strings
    (the benchmark patches functions by attribute name)."""
    uses: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
        elif isinstance(node, ast.alias):
            uses[node.name] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                uses[node.value] += 1
    return uses


def unused_names() -> list[str]:
    uses: Counter = Counter()
    for path in READERS:
        uses += name_uses(ast.parse(path.read_text(), str(path)))
    return sorted(
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in defined_names(ast.parse(path.read_text(), str(path)))
        if uses[name] == 0
    )


def class_members(tree: ast.Module):
    """(class, member, is a field) for each method, property and annotated
    class attribute (dataclass field) of the module's classes, dunder
    methods left out."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name, is_field = node.name, False
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                name, is_field = node.target.id, True
            else:
                continue
            if not (name.startswith("__") and name.endswith("__")):
                yield cls.name, name, is_field


def member_reads(tree: ast.AST) -> tuple[Counter, set[str]]:
    """Attribute loads and identifier strings (getattr, the benchmark's
    patches), and the names handed to fields(), astuple() or asdict()."""
    reads: Counter = Counter()
    wholesale: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                reads[node.value] += 1
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in WHOLESALE:
            wholesale.update(a.id for a in node.args if isinstance(a, ast.Name))
    return reads, wholesale


def overrides_base(module: str, cls_name: str, name: str) -> bool:
    """Whether the member overrides a base-class attribute, which the base
    class's own code calls (argparse calls _Parser.error)."""
    cls = getattr(importlib.import_module(f"composite_forge.{module}"), cls_name)
    return any(name in vars(base) for base in cls.__mro__[1:])


def unused_members() -> list[str]:
    reads: Counter = Counter()
    wholesale: set[str] = set()
    for path in READERS:
        r, w = member_reads(ast.parse(path.read_text(), str(path)))
        reads += r
        wholesale |= w
    return sorted(
        f"{path.stem}.{cls}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for cls, name, is_field in class_members(ast.parse(path.read_text(), str(path)))
        if reads[name] == 0
        and not (is_field and cls in wholesale)
        and not overrides_base(path.stem, cls, name)
    )


def test_every_package_name_is_used_outside_the_unit_tests():
    assert unused_names() == []


def test_every_package_member_is_read_outside_the_unit_tests():
    assert unused_members() == []


def attribute_reads_outside(tree: ast.Module, skip: str) -> Counter:
    """Attribute loads in the module, the body of class skip left out."""
    reads: Counter = Counter()
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == skip:
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                reads[sub.attr] += 1
    return reads


def test_every_stored_parameter_is_read():
    reads: Counter = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        reads += attribute_reads_outside(ast.parse(path.read_text(), str(path)), "SieveParams")
    stored = SieveParams(x=1000).to_json()
    assert [key for key in stored if reads[key] == 0] == []
