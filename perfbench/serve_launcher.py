"""Run ``repro serve`` with server-side spans, then write them out.

Usage: ``python perfbench/serve_launcher.py OUT.json serve [args...]``

Wraps the daemon's public callables (see ``layers.py``) in this process,
hands the remaining arguments to the program's own CLI entry point, and
when the server has drained writes the span summary and counters to
``OUT.json``.
"""

import json
import sys

from layers import install_library, install_server
from spans import Patcher, Tracer, summarize


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    patcher = Patcher(tracer)
    install_library(patcher)
    install_server(patcher)
    from repro.cli import main as cli_main

    code = cli_main(argv)
    with open(out, "w") as fh:
        json.dump({"spans": summarize(tracer.spans), "counts": dict(tracer.counts)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
