"""Smoke check of the benchmark harness.

    python3 bench/smoke.py

Runs one op of every workload named in BENCHMARK.json, untraced and
traced, and checks that each run passes its gates and prints every metric
BENCHMARK.json names, with its unit.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def check(spec: dict, workload: str, trace: int) -> None:
    cmd = spec["command"] + ["--workload", workload, "--seed", "0",
                             "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{workload} trace={trace}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise SystemExit(f"{workload} trace={trace}: gates failed: {result}")
    named = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in named}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise SystemExit(f"{workload} trace={trace}: missing {missing}, "
                         f"unexpected {extra}, wrong units {wrong}")
    print(f"ok {workload} trace={trace}: {len(got)} metrics, "
          f"{result['attempted']} ops")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace in (0, 1):
            check(spec, w["name"], trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
