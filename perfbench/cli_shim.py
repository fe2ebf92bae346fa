"""Traced stand-in for ``python -m tensortract.cli``, used by the traced run
of the cli workload.

    python3 perfbench/cli_shim.py SPANS_JSON <tensortract arguments...>

Imports the CLI under a ``cli.import`` span, wraps the layers' public
functions, runs ``tensortract.cli.main`` under a ``cli.main.<subcommand>``
span and writes the spans and counters to SPANS_JSON.  Standard output and
the exit code are the CLI's own.
"""

import json
import sys

from spans import Tracer, instrument_layers


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    sid = tracer.begin("cli.import")
    import tensortract.acceptance  # noqa: F401  (so its criteria can be wrapped)
    import tensortract.cli as cli
    tracer.end(sid)
    instrument_layers(tracer)
    try:
        code = tracer.call(f"cli.main.{argv[0]}", cli.main, argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump({"spans": tracer.spans, "counters": tracer.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
