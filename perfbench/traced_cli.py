"""oscdecay's CLI in a fresh interpreter with span tracing on.

Usage: python perfbench/traced_cli.py SPANS_PATH <oscdecay cli arguments>

Times the import of oscdecay.cli as an "import" span, runs cli.main with
the module boundaries traced (see spans.py), writes the spans to
SPANS_PATH and exits with the CLI's exit code.
"""

import sys
from time import perf_counter

import spans

if __name__ == "__main__":
    t0 = perf_counter()
    import oscdecay.cli
    t1 = perf_counter()
    tracer = spans.Tracer()
    tracer.add("import.oscdecay", t0, t1)
    with spans.installed(tracer):
        code = oscdecay.cli.main(sys.argv[2:])
    tracer.save(sys.argv[1])
    sys.exit(code)
