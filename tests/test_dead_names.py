"""Every module-level function, class and UPPERCASE constant of the package
is named somewhere besides its own definition: elsewhere in the package, in
the benchmark, or in the acceptance tests. A name that only the unit tests
reach is dead code kept alive by its tests, and gets deleted instead.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "composite_forge"
READERS = [
    *sorted(PACKAGE.glob("*.py")),
    *sorted((ROOT / "bench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]


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


def test_every_package_name_is_used_outside_the_unit_tests():
    assert unused_names() == []
