"""Set-up probe: a fresh interpreter imports thetamod and runs one op.

    python3 perfbench/probe.py <workload> <item as JSON> <work dir>

Prints ``done <perf_counter>`` once the op has finished (an op that raises
has finished too).  ``run.py`` starts this process and takes the time from
just before the start to that clock reading; on Linux ``perf_counter`` reads
the system-wide monotonic clock, so the two readings are comparable.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    name, item, workdir = argv
    sys.path.insert(0, str(ROOT / "src"))
    import thetamod  # noqa: F401  (the import is what set-up measures)
    import workloads

    wl = workloads.WORKLOADS[name]
    prepared = wl.prepare(tuple(json.loads(item)), Path(workdir))
    try:
        wl.op(prepared)
    except Exception:  # a failed op is still a finished first op
        pass
    print(f"done {time.perf_counter()!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
