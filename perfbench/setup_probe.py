"""Set-up probe: import flexarray, build operation 0's inputs, print "ready".

``run.py`` starts this in a fresh interpreter and times it from process
start to the "ready" line, which is the set-up a CLI user pays per run.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402  (imports flexarray)

workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]), 0)
print("ready", flush=True)
