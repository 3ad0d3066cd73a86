"""Time one fresh-interpreter set-up: import carfield and build a workload's inputs.

    python3 perfbench/setup_probe.py WORKLOAD SEED OUT_DIR

run.py starts this in a child process; it prints the elapsed seconds.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402  (imports carfield, numpy and scipy)

WORKLOADS[sys.argv[1]].build(int(sys.argv[2]), Path(sys.argv[3]))
print(time.perf_counter() - START)
