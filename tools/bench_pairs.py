"""Paired benchmark runs of two checkouts, written as one BENCH_*.json record.

Usage:

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload verify-all \
        --seeds 20150206 1 2 3 4 5 6 7 8 9 --others solve-sweep --out BENCH_x.json

PARENT_DIR and CHANGE_DIR are checkouts of the two commits, with identical
benchmark files (`BENCHMARK.json` and everything under its `paths`); the
script refuses to run otherwise.  For each seed it runs the benchmark
command of `BENCHMARK.json` (`python3 perfbench/run.py --workload W --seed N
--seconds <run_seconds> --trace 0`) once in each checkout, one after the
other, and alternates which side runs first from pair to pair.  Each
workload named by --others gets the same pairs, in `other_workloads`.

The record holds the workload, the command, both commits, the machine, the
method, every pair (each run's JSON result plus the pass count, unscaled
wall time and speed factor of its summary line) and a summary per
end-to-end metric: each side's median and quartiles
(`statistics.quantiles(n=4, method="inclusive")`), the change/parent ratio
of the medians, the pairs the change won (ties count for neither), whether
the change may claim a gain on it, and whether the change's median is
inside the metric's `bound` from `BENCHMARK.json` or the parent's spread
is too wide to tell.
The summary also holds each side's median pass count, on which a
workload's `peak_rss_mb` can depend.  The file is rewritten after every
pair, so an interrupted run keeps the pairs it finished.

Standard library only; it imports nothing of the benchmarked package.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

SUMMARY_LINE = re.compile(
    r"passes=([0-9]+) .*unscaled wall ([0-9.]+) s, speed factor ([0-9.]+)")
SUMMARY_FIELDS = ("passes", "unscaled_wall_s", "speed_factor")


def summary_fields(line: str) -> dict:
    """The pass count, unscaled wall time and speed factor of run.py's
    summary line, each None when the line does not match."""
    found = SUMMARY_LINE.search(line)
    if not found:
        return dict.fromkeys(SUMMARY_FIELDS)
    return dict(zip(SUMMARY_FIELDS, (int(found[1]), float(found[2]), float(found[3]))))


def quartiles(values: list[float]) -> dict:
    """Median and inclusive quartiles of the values (all three equal for one value)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric: each side's median and quartiles, the ratio of
    the medians, the pairs the change won, whether the gap between the
    medians exceeds the parent's interquartile range, the claim verdict,
    and the regression check against the metric's bound; then each side's
    median pass count (None when a run's count is unknown).

    `claim_met` holds when the change's median is the better one, the
    change won at least nine tenths of the pairs and the gap between the
    medians exceeds the parent's interquartile range: the rule for
    claiming a gain.

    The regression check gives `worse_by`, the relative change of the
    medians in the metric's worse direction (negative when the change
    reads better), `within_bound` when it is at most the bound, and
    `unresolved` when the parent's interquartile range is a larger share
    of its median than the bound, unless every change run beats every
    parent run: a spread that wide cannot show a regression of the bound's
    size either way.

    `pairs` holds {"parent": result, "change": result} with perfbench's
    result objects; `end_to_end` holds BENCHMARK.json's {"name", "better",
    "bound"}.
    """
    summary = {}
    for metric in end_to_end:
        name, lower, bound = metric["name"], metric["better"] == "lower", metric["bound"]
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        sides = {"parent": quartiles(parent), "change": quartiles(change)}
        base, median = sides["parent"]["median"], sides["change"]["median"]
        iqr = sides["parent"]["q3"] - sides["parent"]["q1"]
        worse_by = (median - base if lower else base - median) / base
        gap_exceeds_iqr = abs(median - base) > iqr
        all_better = max(change) < min(parent) if lower else min(change) > max(parent)
        summary[name] = {
            **sides,
            "change_over_parent": median / base,
            "change_better_pairs": wins,
            "pairs": len(pairs),
            "gap_exceeds_parent_iqr": gap_exceeds_iqr,
            "claim_met": worse_by < 0 and 10 * wins >= 9 * len(pairs) and gap_exceeds_iqr,
            "bound": bound,
            "worse_by": worse_by,
            "within_bound": worse_by <= bound,
            "unresolved": iqr / base > bound and not all_better,
        }
    counts = {side: [p[side]["passes"] for p in pairs] for side in ("parent", "change")}
    summary["passes"] = {
        side: None if None in c else statistics.median(c) for side, c in counts.items()}
    summary["failed_runs"] = sum(not p[side]["correct"] for p in pairs for side in ("parent", "change"))
    return summary


def benchmark_files(root: Path, spec: dict) -> dict[str, bytes]:
    """BENCHMARK.json and every file under its `paths`, by relative path."""
    files = {"BENCHMARK.json": (root / "BENCHMARK.json").read_bytes()}
    for top in spec["paths"]:
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                files[str(path.relative_to(root))] = path.read_bytes()
    return files


def commit(root: Path) -> str | None:
    out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def run_once(root: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: {' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return {**json.loads(lines[-1]), **summary_fields(lines[-2] if len(lines) > 1 else "")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--others", nargs="*", default=[])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    if benchmark_files(args.parent, spec) != benchmark_files(args.change, spec):
        raise SystemExit("the two checkouts differ in their benchmark files")
    command, seconds = spec["command"], spec["run_seconds"]
    record = {
        "workload": args.workload,
        "command": " ".join([*command, "--workload W --seed S", f"--seconds {seconds} --trace 0"]),
        "parent_commit": commit(args.parent),
        "change_commit": commit(args.change),
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "memory_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        },
        "method": (
            f"paired {seconds} s runs (--trace 0) of checkouts of the parent and the change with "
            f"identical benchmark files, alternating which side runs first from pair to pair, "
            f"on seeds {args.seeds}; times are scaled by perfbench's speed probe; every run made "
            f"is listed; quartiles are statistics.quantiles(n=4, method='inclusive')"
        ),
    }
    sections = [(args.workload, record)]
    if args.others:
        record["other_workloads"] = {w: {} for w in args.others}
        sections += record["other_workloads"].items()
    for workload, section in sections:
        section["pairs"] = []
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(getattr(args, side), command, workload, seed, seconds)
                print(f"{workload} seed {seed} {side}: wall_s "
                      f"{pair[side]['metrics']['wall_s']['value']:.4f}", file=sys.stderr)
            section["pairs"].append(pair)
            section["summary"] = summarize(section["pairs"], spec["end_to_end"])
            args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
