"""grogweb benchmark: one workload, measured end to end or traced by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload solve-sweep --seed 1 --smoke

Runs passes of the workload one at a time, each in a fresh interpreter that
imports grogweb from ./src, until --seconds have passed (at least three
passes).  Every pass's outputs are checked against oracle.py, which shares no
code with grogweb.  With --trace 0 it reports the end-to-end metrics, medians
over the passes; with --trace 1 it alternates untraced and traced passes and
reports the per-layer metrics.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  --smoke runs one pass
at tiny sizes.  Exits non-zero without a result when grogweb cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import spec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
DEADLINE_S = 170.0  # a run must exit within 180 s
MIN_PASSES = 3
CLI_PROBES = 5


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class BenchError(Exception):
    """A pass or probe could not run to completion."""


def spawn(argv: list[str], timeout: float) -> tuple[float, str]:
    """Run one child to completion; returns (spawn time, stdout)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PERFBENCH_SRC=str(SRC))
    t_spawn = monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{argv[1:]} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:]} exited {proc.returncode}: {err.strip()[-2000:]}")
    return t_spawn, out


def run_pass(workload: str, seed: int, traced: bool, smoke: bool, timeout: float) -> dict:
    argv = [sys.executable, str(CHILD), workload, str(seed), str(int(traced)), str(int(smoke))]
    t_spawn, out = spawn(argv, timeout)
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"pass printed no result: {out[-500:]!r}") from None
    # from spawn to the first timed call, less the probe's own time, at reference speed
    result["setup_s"] = (result["t_first"] - t_spawn - result["probe_before_first_s"]) * result["speed"]
    return result


def cli_startup(checker: oracle.Checker, timeout: float) -> float:
    """Median wall time of a fresh `python -m grogweb jaco --n 5`."""
    times = []
    for _ in range(CLI_PROBES):
        t_spawn, out = spawn([sys.executable, "-m", "grogweb", "jaco", "--n", "5"], timeout)
        times.append(monotonic() - t_spawn)
        checker.expect(out == oracle.JACO_5_TEXT, f"grogweb jaco --n 5 printed {out!r}")
    return statistics.median(times)


def measure(args, checker: oracle.Checker, started: float) -> dict:
    exp = oracle.expected(args.workload, args.seed, args.smoke)
    check = oracle.CHECKS[args.workload]
    schedule = (False, True) if args.trace else (False,)
    passes: dict[bool, list[dict]] = {False: [], True: []}
    digests: dict[str, str] = {}
    measure_start = monotonic()
    k = 0
    while True:
        traced = schedule[k % len(schedule)]
        p = run_pass(args.workload, args.seed, traced, args.smoke,
                     started + DEADLINE_S - monotonic())
        check(p["out"], exp, checker)
        # the same seed must give the same outputs, traced or not; verify-all
        # also compares the whole report text of its untraced passes
        for key in ("digest", "report_sha"):
            if key in p["out"]:
                first = digests.setdefault(key, p["out"][key])
                checker.expect(p["out"][key] == first, f"pass {k}: {key} differs from pass 0")
        if "items" in exp:
            p["items"] = exp["items"]
        passes[traced].append(p)
        k += 1
        if k % len(schedule):
            continue
        if args.smoke:
            break
        elapsed = monotonic() - measure_start
        if k >= MIN_PASSES * len(schedule) and elapsed >= args.seconds:
            break
        if monotonic() - started > DEADLINE_S / 2:
            break
    return {"untraced": passes[False], "traced": passes[True]}


def median_of(passes: list[dict], key) -> float:
    return statistics.median(key(p) for p in passes)


def end_to_end(untraced: list[dict]) -> dict:
    return {
        "wall_s": median_of(untraced, lambda p: p["wall_s"]),
        "items_per_s": median_of(untraced, lambda p: p["items"] / p["wall_s"]),
        "peak_rss_mb": median_of(untraced, lambda p: p["rss_mb"]),
        "setup_s": median_of(untraced, lambda p: p["setup_s"]),
    }


def per_layer(runs: dict, checker: oracle.Checker, started: float) -> dict:
    traced = runs["traced"]
    units = {name: unit for name, unit, _ in spec.PER_LAYER}
    layers = {}
    for name in traced[0]["layers"]:
        value = median_of(traced, lambda p: p["layers"][name])
        # counts repeat exactly from pass to pass; keep them whole numbers
        layers[name] = round(value) if units[name] == "count" else value
    layers["cli.import_s"] = median_of(runs["untraced"] + traced, lambda p: p["import_s"])
    layers["cli.startup_s"] = cli_startup(checker, started + DEADLINE_S - monotonic())
    layers["trace.overhead_s"] = (median_of(traced, lambda p: p["wall_s"])
                                  - median_of(runs["untraced"], lambda p: p["wall_s"]))
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one pass at tiny sizes")
    args = parser.parse_args(argv)
    started = monotonic()

    if not (SRC / "grogweb" / "__init__.py").is_file():
        print(f"perfbench: no grogweb package under {SRC}", file=sys.stderr)
        return 2
    checker = oracle.Checker()
    try:
        # compiles the package's bytecode once, outside every measured pass
        spawn([sys.executable, "-c", "import grogweb"], DEADLINE_S)
        runs = measure(args, checker, started)
        if args.trace:
            metrics, names = per_layer(runs, checker, started), spec.PER_LAYER
        else:
            metrics, names = end_to_end(runs["untraced"]), spec.END_TO_END
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    for failure in checker.failures[:20]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"smoke={int(args.smoke)} passes={len(runs['untraced'])} untraced, "
          f"{len(runs['traced'])} traced; checks {checker.attempted}, "
          f"failed {len(checker.failures)}; unscaled wall "
          f"{median_of(runs['untraced'], lambda p: p['wall_raw_s']):.4f} s, speed factor "
          f"{median_of(runs['untraced'], lambda p: p['speed']):.4f}")
    result = {
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
