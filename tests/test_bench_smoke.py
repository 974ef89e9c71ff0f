"""The benchmark harness runs end to end on the package as it stands.

bench/smoke.py runs one op of every workload in BENCHMARK.json, untraced
and traced, and checks its gates and the names and units of its metrics.
A change to a function the workloads call (a signature, a return shape)
that would make every benchmark run fail therefore fails here first.  It
takes about 5 s on 2 cores.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_passes():
    proc = subprocess.run([sys.executable, "bench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
