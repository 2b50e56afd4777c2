"""Set-up probe: a fresh process that does one workload's set-up.

    python3 perfbench/probe.py WORKLOAD

Prints ``ready`` once the engine is imported, ``rv32im()`` is built and
the workload's images are assembled; run.py times it from process start.
"""

import sys

import harness

if __name__ == "__main__":
    harness.setup(harness.WORKLOADS[sys.argv[1]])
    print("ready", flush=True)
