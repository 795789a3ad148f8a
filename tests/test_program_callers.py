"""Every def and class in src/rfidlab is used by the program itself.

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
