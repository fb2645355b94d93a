"""One benchmark command in its own process: `glassdyn.cli.main` plus timers.

Usage: python3 bench/worker.py RESULT.json TRACE -- <glassdyn CLI args>

Writes RESULT.json with the exit code, the CLOCK_MONOTONIC time of entry into
the first dynamics call (``solve_dynamics`` or ``integrate_ensemble``), the
process's peak RSS and, when TRACE is 1, every recorded span.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    result_path, trace = Path(argv[0]), argv[1] == "1"
    cli_args = argv[3:]
    sys.path.insert(0, str(ROOT / "src"))
    from glassdyn import cli

    tracer = None
    if trace:
        from tracing import Tracer, install
        tracer = Tracer()
        install(tracer)

    entry = []

    def first_entry(fn):
        def hooked(*args, **kwargs):
            if not entry:
                entry.append(time.monotonic())
            return fn(*args, **kwargs)
        return hooked

    # wrapped after the tracer, so the stamp precedes the dynamics span
    for name in ("solve_dynamics", "integrate_ensemble"):
        setattr(cli, name, first_entry(getattr(cli, name)))

    rc = cli.main(cli_args)
    result = {
        "rc": rc,
        "entry": entry[0] if entry else None,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "package": cli.__file__,
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
    tmp = result_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(result))
    os.replace(tmp, result_path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
