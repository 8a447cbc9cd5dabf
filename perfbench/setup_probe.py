"""Set-up probe: a fresh process that imports kummerlab and builds one
workload's inputs, then prints "ready".  perfbench/run.py times it from
process start to that line.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kummerlab import cli  # noqa: E402,F401  (the entry point every operation uses)

import workloads  # noqa: E402

if __name__ == "__main__":
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.build_inputs(workload, seed, workdir)
    print("ready", flush=True)
