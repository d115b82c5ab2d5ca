"""Small process that starts the measured children and reaps them.

A child's ``ru_maxrss`` from ``wait4`` is never below the peak RSS of the
process that spawned it (Linux carries the spawner's high-water mark
across vfork and exec).  The benchmark's own process grows while it
generates inputs and checks outputs, so it hands every spawn to this
process, which stays small.

Protocol: one JSON request per line on stdin, ``{"argv": [...], "log":
path}``; one JSON reply per line on stdout, ``{"code": int, "wall": s,
"rss_mib": MiB, "start": time.monotonic() at spawn}``.  The environment
and working directory are inherited.  Exits at end of input.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def spawn(argv: list[str], log_path: str) -> dict:
    """Run one child to completion; report exit code, wall time, peak RSS and start."""

    with open(log_path, "wb") as log:
        started = time.monotonic()
        try:
            proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=log)
        except OSError as exc:
            log.write(f"cannot start {argv[0]}: {exc}\n".encode())
            return {"code": 127, "wall": time.monotonic() - started, "rss_mib": 0.0, "start": started}
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.monotonic() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall": wall, "rss_mib": usage.ru_maxrss / 1024, "start": started}


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(spawn(request["argv"], request["log"])), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
