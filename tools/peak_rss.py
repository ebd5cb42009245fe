"""Run a command, report its wall time and peak RSS, and fail above a bound.

    python tools/peak_rss.py BOUND_MB COMMAND [ARG ...]

The command inherits stdin, stdout and stderr; the one-line report goes to
stderr after it, so a caller may send stdout to /dev/null and still see the
figures.  Exits with the command's status if that is nonzero (1 if a signal
ended it), else 1 if its peak RSS is above BOUND_MB, else 0.  Peak RSS is
``ru_maxrss`` of the waited-for children, which Linux reports in KiB.
"""

from __future__ import annotations

import resource
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    bound_mb, command = float(argv[0]), argv[1:]
    start = time.perf_counter()
    status = subprocess.run(command).returncode
    wall_s = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(
        f"{' '.join(command)}: exit {status}, {wall_s:.1f} s, "
        f"peak RSS {peak_mb:.1f} MB (bound {bound_mb:g} MB)",
        file=sys.stderr,
    )
    if status:
        return status if status > 0 else 1
    return int(peak_mb > bound_mb)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
