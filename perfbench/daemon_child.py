"""Launch ``repro-stretch`` from the source tree, optionally traced.

Usage: ``python3 perfbench/daemon_child.py [--trace-out FILE] serve ...``.
With ``--trace-out`` the layer wrappers of :mod:`tracing` are installed
before the CLI starts and the recorded spans are written to FILE when it
returns.  Either way the launcher waits for in-flight request handlers
before exiting, so the reply to ``POST /drain`` is always delivered.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    tracer = None
    if trace_out is not None:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    from repro.cli import main as cli_main

    code = cli_main(argv)
    for thread in threading.enumerate():
        if thread is not threading.current_thread():
            thread.join(timeout=10.0)
    if tracer is not None:
        tracer.dump(trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
