"""Traced CLI operation: ``python3 cli_op.py SPANS_JSON subrec-args...``.

Installs the span recorder, runs the real CLI path ``subrec.cli.run`` on
the remaining arguments and writes the spans to SPANS_JSON when the run
ends, also when it ends in an exception or at the wall cap (the harness
sends SIGTERM there, which is raised as ``WallCap`` so open spans close).
Untraced operations do not use this file: they run the CLI entry point
directly.
"""

import signal
import sys

import tracer


class WallCap(BaseException):
    """The harness's wall cap passed."""


def _on_term(signum, frame):
    raise WallCap()


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    rec = tracer.Recorder()
    signal.signal(signal.SIGTERM, _on_term)
    tracer.install(rec)
    import subrec.cli

    try:
        return subrec.cli.run(argv)
    finally:
        sys.stdout.flush()
        rec.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
