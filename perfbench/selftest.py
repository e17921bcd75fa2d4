"""Self-test of the benchmark, using its smoke mode.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Checks that every workload runs in smoke mode and passes its checks, that the
metric names and units each mode prints are exactly those in BENCHMARK.json,
that every workload's check catches a deliberately wrong expected value, and
that run.py refuses to report without the package's source.  Exits 0 when
all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import oracle
import run
import spec

ROOT = run.ROOT
HERE = Path(__file__).resolve().parent


def wrong_expectation(workload: str, exp: dict) -> None:
    """Corrupt one expected value in place."""
    if workload == "verify-all":
        exp["jaco_g"]["5"] += 1
    elif workload == "solve-sweep":
        exp["grog"]["J7"] += 1
    elif workload == "jaco-competition":
        exp["orders"][str(spec.COMPETITION_ORDERS[0])]["edges_hash"] ^= 1
    else:
        n = spec.REPLAY_ORDERS[0]
        exp["arcs"][n] = exp["arcs"][n][1:]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(spec.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from spec.WORKLOADS")

    for workload in spec.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "1", "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            tag = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: checks failed: {proc.stderr[-500:]}")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != declared[trace]:
                missing = sorted(set(declared[trace]) - set(printed))
                extra = sorted(set(printed) - set(declared[trace]))
                problems.append(f"{tag}: metrics differ: missing {missing}, extra {extra}")

        p = run.run_pass(workload, 1, False, True, 170)
        exp = oracle.expected(workload, 1, True)
        good = oracle.Checker()
        oracle.CHECKS[workload](p["out"], exp, good)
        wrong_expectation(workload, exp)
        bad = oracle.Checker()
        oracle.CHECKS[workload](p["out"], exp, bad)
        if good.failures or not bad.failures:
            problems.append(f"{workload}: check passed a wrong expectation or failed a right one")

    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", spec.WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=170)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            problems.append("run.py reported a result without the package's source")

    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    print(f"selftest: {'FAIL' if problems else 'ok'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
