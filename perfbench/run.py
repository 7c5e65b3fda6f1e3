#!/usr/bin/env python3
"""Seeded benchmark of spatialcox.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seconds S] [--seed N] [--trace 0|1]

Run from anywhere inside a checkout that holds ``src/spatialcox``; the package
is imported from that source tree, never from an installed copy.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

import os
import sys

# BLAS is pinned to one thread before numpy is first imported; child
# processes inherit the pins through the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    if not os.path.isfile(os.path.join(src, "spatialcox", "__init__.py")):
        print(f"error: no spatialcox source tree at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from child import process_age

    import spatialcox
    import_s = process_age()
    if os.path.dirname(os.path.abspath(spatialcox.__file__)) != os.path.join(src, "spatialcox"):
        print(f"error: spatialcox imported from {spatialcox.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import bench
    return bench.main(sys.argv[1:], import_s)


if __name__ == "__main__":
    sys.exit(main())
