"""Print the size of oscdecay: source lines, public names and settings.

Source lines are all lines of the .py files under src/, as wc -l counts
them. Public names are the attributes of the oscdecay package that do
not start with an underscore, less its submodules. Settings are the
fields of WindowParams and QuadratureSpec, the values a config's window
and oracle sections may set.

Run from the repository root:

    python3 tools/surface.py
"""

import dataclasses
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


def _package():
    # the oscdecay in this tree's src/
    sys.path.insert(0, SRC)
    import oscdecay

    return oscdecay


def public_names(package=None):
    """The public names of package, by default the oscdecay in this tree's src/."""
    package = package or _package()
    return sorted(name for name, value in vars(package).items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType))


def settings(package=None):
    """The number of fields of package's WindowParams and QuadratureSpec."""
    package = package or _package()
    return sum(len(dataclasses.fields(cls)) for cls in (package.WindowParams,
                                                        package.QuadratureSpec))


def main():
    package = _package()
    print("src_lines %d" % source_lines())
    print("public_names %d" % len(public_names(package)))
    print("settings %d" % settings(package))


if __name__ == "__main__":
    main()
