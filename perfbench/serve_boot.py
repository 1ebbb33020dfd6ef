"""``repro serve`` with the layer wrappers installed (traced serve runs).

Usage::

    python perfbench/serve_boot.py TRACE_OUT

Installs :class:`tracer.Tracer` inside the server process, then runs
``python -m repro`` with :data:`workloads.SERVE_ARGS`.  SIGUSR1 marks the
start of the timed phase: the totals at that moment go to
``TRACE_OUT.mark``.  When the server has drained and stopped, the final
totals go to ``TRACE_OUT``; the timed phase is their difference.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

import tracer as tracing
import workloads as wl


def _write(path: Path, payload: dict) -> None:
    scratch = path.with_name(path.name + ".tmp")
    scratch.write_text(json.dumps(payload))
    scratch.replace(path)


def main() -> None:
    out = Path(sys.argv[1])
    tracing.import_all_repro()
    tracer = tracing.Tracer().install()
    signal.signal(signal.SIGUSR1, lambda signum, frame: _write(
        out.with_name(out.name + ".mark"), tracer.snapshot()))

    from repro.cli import main as repro_main

    try:
        repro_main(list(wl.SERVE_ARGS))
    finally:
        _write(out, tracer.snapshot())


if __name__ == "__main__":
    main()
