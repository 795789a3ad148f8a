"""Every def and class in src/rfidlab is used by the program itself, and every import.

A name counts as used when it occurs as a word in a Python file under
``src/``, ``bench/`` or ``scripts/`` outside its own definition. Uses in
``tests/`` do not count: API that only the tests call belongs in the tests.
Dunder names are skipped, since Python calls them.

The check goes by name, not by reference: any occurrence of the word
counts, in a comment, a string or another object's attribute. So it can
miss dead code: ``int.from_bytes`` anywhere in the program, for example,
would hide a ``BitString.from_bytes`` that nothing calls. Conversely, a
definition reached only through a name built at run time would be
reported although it runs.

An import is used when the name it binds at a module's top level occurs
as a name (an ``ast.Name``) in that module.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = ("src", "bench", "scripts")


def definitions(tree):
    """(name, first line, last line) of every def and class, decorators included."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield node.name, first, node.end_lineno


def test_every_definition_has_a_caller_in_the_program():
    sources = {
        path: path.read_text(encoding="utf-8")
        for top in PROGRAM
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    unused = []
    for path in sorted((ROOT / "src" / "rfidlab").glob("*.py")):
        lines = sources[path].splitlines()
        others = "\n".join(text for other, text in sources.items() if other != path)
        for name, first, last in definitions(ast.parse(sources[path])):
            if name.startswith("__") and name.endswith("__"):
                continue
            outside = "\n".join(lines[: first - 1] + lines[last:])
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not (word.search(outside) or word.search(others)):
                unused.append(f"{path.relative_to(ROOT)}: {name}")
    assert unused == []


def test_every_top_level_import_is_used_in_its_module():
    unused = []
    for path in sorted((ROOT / "src" / "rfidlab").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in names:
                        unused.append(f"{path.relative_to(ROOT)}: {bound}")
    assert unused == []
