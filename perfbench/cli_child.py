"""Traced stand-in for ``python -m chainlab.cli <args>``.

Times ``import chainlab.cli`` as a ``cli.import`` span, wraps the library
with the tracer, runs ``chainlab.cli.main(args)`` with stdout captured, and
prints one JSON document: exit code, captured stdout and the exported
spans.  Run it in the plain CLI's environment (PYTHONPATH must reach
chainlab).
"""

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, clock  # noqa: E402


def main() -> None:
    tracer = Tracer()
    start = clock()
    import chainlab.cli

    tracer.record("cli.import", start, clock())
    tracer.install()
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = chainlab.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
    doc = {
        "code": code,
        "stdout": buf.getvalue(),
        "trace": tracer.export(),
    }
    sys.stdout.write(json.dumps(doc, separators=(",", ":")))


if __name__ == "__main__":
    main()
