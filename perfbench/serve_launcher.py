#!/usr/bin/env python3
"""Start ``repro serve`` with the benchmark's span recorders installed.

The traced serve-mixed run starts the server through this launcher so the
process layout matches the untraced run (``python -m repro serve``): it
installs the wrappers from :mod:`layers`, calls the CLI entry point, and
writes the recorded spans as JSON when the server exits (SIGINT).

Usage::

    python perfbench/serve_launcher.py --spans-out spans.json -- \\
        --cache-dir STORE serve --port 0
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[0] != "--spans-out" or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_out, cli_args = argv[1], argv[3:]
    sys.path[:0] = [HERE, SRC]
    from layers import TARGETS
    from spans import Recorder, install

    from repro import cli

    recorder = Recorder()
    install(recorder, TARGETS)
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_out, "w") as fh:
            json.dump([s.to_jsonable() for s in recorder.spans], fh)


if __name__ == "__main__":
    raise SystemExit(main())
