"""Run ``repro serve`` with spans recorded around the server's layers.

Usage: ``python3 perfbench/serve_main.py --trace-out PATH -- serve ARGS...``

The server runs exactly as ``python -m repro serve ARGS...`` would; the
spans are written to ``PATH`` after it has shut down (SIGTERM drains it).
``PYTHONPATH`` must hold the repository's ``src`` and the repository root.
"""

from __future__ import annotations

import argparse
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True, type=Path)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from repro.cli import main as repro_main

    from perfbench.layers import trace_server

    tracer = trace_server()
    try:
        return repro_main(cli_args)
    finally:
        tracer.restore()
        tracer.dump(args.trace_out)


if __name__ == "__main__":
    raise SystemExit(main())
