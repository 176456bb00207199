"""Print the size of oscdecay: source lines, public names and settings.

Source lines are all lines of the .py files under src/, as wc -l counts
them. Public names are the names of the package's __all__: the package
binds each of them only on first use, so its namespace does not list
them. Settings are the fields of WindowParams and QuadratureSpec, the
values a config's window and oracle sections may set.

Run from the repository root:

    python3 tools/surface.py
"""

import glob
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def source_lines(src=SRC):
    total = 0
    for path in glob.glob(os.path.join(src, "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def _package():
    # the oscdecay in this tree's src/
    sys.path.insert(0, SRC)
    import oscdecay

    return oscdecay


def public_names(package=None):
    """The public names of package, by default the oscdecay in this tree's src/."""
    package = package or _package()
    return sorted(package.__all__)


def settings(package=None):
    """The number of fields of package's WindowParams and QuadratureSpec."""
    package = package or _package()
    return len(package.WindowParams._fields) + len(package.QuadratureSpec._fields)


def main():
    package = _package()
    print("src_lines %d" % source_lines())
    print("public_names %d" % len(public_names(package)))
    print("settings %d" % settings(package))


if __name__ == "__main__":
    main()
