"""`python -m cubeharm.cli` with spans: usage `traced_cli.py SPANS_FILE ARGS...`.

Times the import of cubeharm.cli, wraps the layers' public functions, runs
cli.main on ARGS and writes the spans to SPANS_FILE.  Standard output,
standard error and the exit code are the CLI's own.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    span = tracer.open("cli.import")
    import cubeharm.cli

    tracer.close(span)
    tracing.install(tracer)
    try:
        return cubeharm.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
