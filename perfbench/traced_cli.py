"""Run the ssate CLI with spans recorded, then dump them for the parent.

Usage: python perfbench/traced_cli.py SPANS.json <ssate CLI arguments>

The parent benchmark merges SPANS.json under its own span for the call.
stdout and the exit code are the CLI's own.
"""

import sys

from spans import Tracer, install


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("import.ssate"):
        import ssate.cli
    install(tracer, ssate)
    try:
        with tracer.span("cli.main"):
            code = ssate.cli.main(argv)
    finally:
        tracer.restore()
        sys.stdout.flush()
        tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
