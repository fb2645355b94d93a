"""Write bench/fingerprints.json: each workload's results at the pinned seed.

    python3 bench/pin.py

The benchmark fails any command whose results drift from these beyond
round-off, so a change that is meant to move results re-pins them and says so.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import FINGERPRINTS, PIN_SEED, WORK, WORKLOADS, fingerprint, run_command


def main() -> int:
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK, prefix="pin-"))
    pins = {}
    try:
        for wl in WORKLOADS.values():
            o = run_command(wl, PIN_SEED, tmp / wl.name, keep=True)
            if not o.ok:
                print(f"{wl.name}: {'; '.join(o.errors)}", file=sys.stderr)
                return 1
            pins[wl.name] = fingerprint(wl, o.out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    FINGERPRINTS.write_text(json.dumps(pins, indent=2) + "\n")
    print(f"wrote {FINGERPRINTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
