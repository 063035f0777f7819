"""Run the gaugekit CLI with span recording installed.

    python3 perfbench/launch.py SPANS_JSON decompose [CLI arguments ...]

Installs the tracing wrappers, calls `gaugekit.cli.main` with the remaining
arguments, writes the recorded spans to SPANS_JSON and exits with the
CLI's exit code.  gaugekit must be importable (PYTHONPATH=src).
"""

import sys

import gaugekit.cli

from tracing import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    try:
        code = gaugekit.cli.main(sys.argv[2:])
    finally:
        tracer.dump(sys.argv[1])
    sys.exit(code)
