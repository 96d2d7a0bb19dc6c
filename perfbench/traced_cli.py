"""Run one ``robolabor`` CLI command with the layer boundaries traced.

Usage: python3 perfbench/traced_cli.py SPANS.json <robolabor arguments...>

Times ``import robolabor``, wraps the names ``robolabor.cli`` imported (and
the engine's own calls into the sector split and the production function),
calls ``cli_dispatch`` under a ``cli.dispatch`` span, writes the spans once
to SPANS.json and exits with the command's exit code. Needs ``src`` on
PYTHONPATH, as the untraced ``python3 -m robolabor.cli`` does.
"""

import sys
import time


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter_ns()
    import robolabor  # noqa: F401 - the import is what is timed
    import_ns = time.perf_counter_ns() - start
    import robolabor.cli as cli

    import spans

    tracer = spans.Tracer()
    spans.instrument_cli(tracer, cli)
    tracer.wrap(cli, "cli_dispatch", "cli.dispatch")
    try:
        return cli.cli_dispatch(argv)
    finally:
        tracer.restore()
        tracer.dump(out, {"import_ns": import_ns})


if __name__ == "__main__":
    sys.exit(main())
