"""Set-up time: import seqalloc from the checkout and run one warm-up
operation, in a fresh process.

Run as ``python3 perfbench/probe.py <workload>``; prints the set-up time in
seconds at the reference host speed. Making the warm-up input is not timed,
and this module imports nothing seqalloc needs before the timer starts.
"""

import importlib
import os
import sys

from hostspeed import bracketed, reference_loop
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_seqalloc():
    """Import the package from the checkout's ``src`` directory."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "seqalloc", "__init__.py")):
        raise ImportError(f"no seqalloc package under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    sa = importlib.import_module("seqalloc")
    importlib.import_module("seqalloc.instance_io")
    return sa


def warm_up(workload):
    """Import the package and run the workload's warm-up operation.

    Returns (seconds at the reference speed, the package)."""
    warmup = workload.group(0, 0)[0]
    for _ in range(5):  # let the interpreter specialize the loop first
        reference_loop()

    def setup():
        sa = load_seqalloc()
        workload.run(sa, warmup)
        return sa

    scale, wall, sa, error = bracketed(setup)
    if error is not None:
        raise error
    return wall * scale, sa


if __name__ == "__main__":
    print(warm_up(WORKLOADS[sys.argv[1]])[0])
