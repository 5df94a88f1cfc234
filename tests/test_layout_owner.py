"""The root table's layout has one owner. Outside modroots, no module of the
package reads a table's arrays (`counts`, `flat`), its private index range
(`_span`) or a per-prime map (`roots`): every stage takes its rows from
RootTable.rows, by prime range, and so does the verifier, from the table it
builds. An attribute of an imported module, such as numpy's np.roots, is
no table's.
"""

import ast
from pathlib import Path

from composite_forge.modroots import RootTable

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "composite_forge"
LAYOUT = {"counts", "flat", "_span", "roots"}


def layout_reads(path: Path) -> list[str]:
    """Each read of a layout name in the module, as file:line: .name, but
    for attributes of a module the file imports."""
    tree = ast.parse(path.read_text(), str(path))
    modules = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    return [
        f"{path.name}:{node.lineno}: .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in LAYOUT
        and not (isinstance(node.value, ast.Name) and node.value.id in modules)
    ]


def test_only_modroots_reads_the_root_table_layout():
    reads = [
        read
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "modroots.py"
        for read in layout_reads(path)
    ]
    assert reads == []


def test_the_table_has_no_second_representation():
    # the per-prime map and the prime-only accessors are gone
    assert not {"roots", "usable_primes", "usable_between"} & set(vars(RootTable))
