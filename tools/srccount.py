"""Count the lines of the package source by kind, the figure each change reports.

Docstring lines are the lines of every module, class and function docstring.
Outside them, empty lines are blank lines and lines starting with # are
comment lines; every other line is code.  Run from the root of a checkout:

    python3 tools/srccount.py [DIRECTORY]    # default src
"""

import ast
import sys
from pathlib import Path

DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def kinds(text: str) -> list[str]:
    docstring = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docstring.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return ["docstring" if i in docstring else "blank" if not line.strip()
            else "comment" if line.lstrip().startswith("#") else "code"
            for i, line in enumerate(text.splitlines(), 1)]


if __name__ == "__main__":
    root = Path(sys.argv[1] if len(sys.argv) > 1 else "src")
    lines = [k for path in sorted(root.rglob("*.py")) for k in kinds(path.read_text("utf-8"))]
    print(len(lines), {k: lines.count(k) for k in ("code", "docstring", "comment", "blank")})
