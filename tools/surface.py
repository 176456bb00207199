"""Print the size of oscdecay: source lines and public names.

Source lines are all lines of the .py files under src/, as wc -l counts
them. Public names are the attributes of the oscdecay package that do
not start with an underscore, less its submodules.

Run from the repository root:

    python3 tools/surface.py
"""

import glob
import os
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def source_lines(src=SRC):
    total = 0
    for path in glob.glob(os.path.join(src, "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def public_names(package=None):
    """The public names of package, by default the oscdecay in this tree's src/."""
    if package is None:
        sys.path.insert(0, SRC)
        import oscdecay as package

    return sorted(name for name, value in vars(package).items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType))


def main():
    names = public_names()
    print("src_lines %d" % source_lines())
    print("public_names %d" % len(names))


if __name__ == "__main__":
    main()
