"""Traced CLI child: ``python cli_child.py SPANS_OUT ARGS...``.

Runs ``python -m structdiag ARGS...`` with the benchmark's wrappers
installed and writes the process's spans to SPANS_OUT for the parent to
adopt. Only the traced run starts children this way; the untraced run
starts ``python -m structdiag`` itself. Worker processes of ``--jobs``
write no spans; their work shows as time the parent process waits.
"""

import os
import runpy
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import structdiag  # noqa: E402
from tracing import Tracer  # noqa: E402


def main() -> int:
    out, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer(structdiag)
    tracer.install()
    tracer.chain = "child"
    sys.argv = ["structdiag", *args]
    code = 0
    try:
        runpy.run_module("structdiag", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        tracer.chain = None
        tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
