"""Pay one workload's set-up in a fresh process, then print "ready".

run.py starts this several times and times each from launch to the
"ready" line: interpreter start, the nervecheck import, and the D-posets
and horn complexes the workload builds before its first result.

    python3 perfbench/probe.py theorem-n5
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]]().setup()
print("ready", flush=True)
