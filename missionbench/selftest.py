#!/usr/bin/env python3
"""Self-test of the mission benchmark at its tiny input size.

Runs every workload of BENCHMARK.json untraced and traced with
`--scale tiny`, and asserts that each run exits 0, passes every output
check, and prints exactly the metrics BENCHMARK.json names, each with its
unit. Run from the repository root:

    python3 missionbench/selftest.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--scale", "tiny",
            ]
            run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            label = f"{workload} --trace {trace}"
            if run.returncode != 0:
                failures.append(f"{label}: exit {run.returncode}\n{run.stderr}")
                continue
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                failures.append(f"{label}: output checks failed\n{run.stderr}")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != expected[trace]:
                missing = sorted(set(expected[trace]) - set(printed))
                extra = sorted(set(printed) - set(expected[trace]))
                wrong = sorted(
                    n for n in set(printed) & set(expected[trace])
                    if printed[n] != expected[trace][n]
                )
                failures.append(f"{label}: missing {missing} extra {extra} wrong unit {wrong}")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)):
                    failures.append(f"{label}: {name} is not a number")
            print(f"ok {label}: {len(printed)} metrics, {result['attempted']} calls checked")
    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
