"""One set-up sample of the benchmark: ``python3 perfbench/child.py``.

Prints the seconds from this process's start until ``import spatialcox``
returned.  The parent puts the package's ``src`` directory on PYTHONPATH and
pins the BLAS thread counts in the environment this process inherits.
"""

import os
import time


def process_age() -> float:
    """Seconds since this process started, from /proc (10 ms resolution)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


if __name__ == "__main__":
    import spatialcox  # noqa: F401  (the import being timed)
    print(repr(process_age()))
