"""Report imported names that a module never uses.

Parses each .py file under the given paths with the standard library's
ast module. A name bound by an import statement counts as used when it
appears anywhere in the module as a bare name (an attribute chain counts
through its root). Statements marked "# noqa: F401" on any of their lines
are left alone, and imports from __future__ are skipped.

Prints one "file:line name" per unused import and exits 1 if there is
any, else exits 0 silently. Run from the repository root:

    python3 tools/unused_imports.py src/ tests/ tools/ demos/
"""

import ast
import os
import sys

NOQA = "# noqa: F401"


def unused_imports(path):
    """(line, name) of each import in the file at path that the module never uses."""
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    lines = source.splitlines()
    tree = ast.parse(source, filename=path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any(NOQA in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            # "import a.b" binds a; "import a.b as c" and "from a import b" bind c, b
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                found.append((node.lineno, bound))
    return sorted(found)


def _python_files(paths):
    for top in paths:
        if os.path.isfile(top):
            yield top
            continue
        for root, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(root, name)


def main(argv=None):
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print("usage: unused_imports.py PATH [PATH ...]", file=sys.stderr)
        return 2
    status = 0
    for path in _python_files(paths):
        for line, name in unused_imports(path):
            print("%s:%d %s" % (os.path.normpath(path), line, name))
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
