"""Run the spaceforms CLI under the span tracer.

    python3 perfbench/traced_cli.py TRACE_FILE [spaceforms CLI arguments]

Used by the traced cold-cli run in place of `python3 -m spaceforms.cli`: the
same command, with spans written to TRACE_FILE when it ends.  The import
path must already point at the checkout's src/ (PYTHONPATH).
"""

import sys

import tracer as tracing


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    import spaceforms.cli
    tr = tracing.Tracer()
    tracing.install(tr)
    try:
        return tr.call("cli.main", spaceforms.cli.main, argv)
    finally:
        tr.dump(trace_file)


if __name__ == "__main__":
    sys.exit(main())
