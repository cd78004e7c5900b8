"""Run the repro CLI with the benchmark's layer wrappers installed.

    python3 perfbench/server.py --spans-out PATH serve [serve options...]

Everything after ``--spans-out PATH`` goes to the CLI unchanged.  When the
command returns (``serve`` returns once SIGTERM has drained it), the spans
and counts recorded in this process are written to PATH as JSON.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from harness import SpanRecorder  # noqa: E402
from layers import dump_spans, traced_layers  # noqa: E402


def main(argv: list) -> int:
    if len(argv) < 3 or argv[0] != "--spans-out":
        raise SystemExit("usage: server.py --spans-out PATH <repro-magma arguments>")
    out, rest = argv[1], argv[2:]
    from repro.cli import main as cli_main

    # The monotonic clock is shared across processes, so the client can cut
    # the server's spans to its own measurement window.
    recorder = SpanRecorder(clock=time.monotonic)
    try:
        with traced_layers(recorder, service=True):
            return cli_main(rest)
    finally:
        dump_spans(recorder, out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
