"""Run a fixed list of grogweb CLI calls and keep what each one printed.

Usage:

    python3 tools/cli_outputs.py OUTDIR

OUTDIR must be new or empty.  Each call in CALLS runs `python -m grogweb
ARGS` against the `src/` of the checkout this script sits in, from its
own directory OUTDIR/NAME, and leaves there its exit code (`exit`),
stdout (`stdout`) and stderr (`stderr`), plus any file it wrote with
`--out`.  The input files the
calls read are written first to OUTDIR/inputs, and the calls name them by
relative path, so no output holds OUTDIR itself.  The outputs of two
checkouts then compare with

    python3 PARENT/tools/cli_outputs.py /tmp/a
    python3 CHANGE/tools/cli_outputs.py /tmp/b
    diff -r /tmp/a /tmp/b

The list covers every subcommand and every `--format` choice; `jaco` and
`competition --jaco` at a few orders, direct, in closed form and with
`--check`; `competition`, `grog solve [--witness]` and `grog run
[--require-exit]` on the input files below; `enumerate` on path 3/5/8,
cycle 4/6, star 5/8 and complete 4/5, with and without `--dedup` and
`--distribution`, in text, json and csv, except the walks too slow to
repeat: json `--distribution` walks every web of the stream it prints and
is left out for n >= 6 and K_5, and text `--distribution` walks each
distinct web once and is left out for path 8 (2,580,480 of them);
`verify --all --seed S` in text, in json and with `--out` for S = 42, 1
and 20150206; and the usage errors of the CLI tests.

Standard library only; it imports nothing of the package it runs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# the files the calls read, written to OUTDIR/inputs
INPUTS = {name: json.dumps(obj) + "\n" for name, obj in {
    # a web whose competition graph has one edge and whose solve needs 4 predations
    "web.json": {"n": 4, "arcs": [[1, 2], [2, 3], [4, 3], [4, 1], [2, 4]]},
    "path3.json": {"n": 3, "arcs": [[1, 2], [2, 3]]},
    "jaco7.json": {"n": 7, "arcs": [[1, 2], [2, 3], [3, 4], [3, 5], [4, 5], [4, 6], [4, 7],
                                    [5, 6], [5, 7], [6, 7]]},
    "base.json": {"n": 4, "edges": [[1, 2], [1, 3], [2, 3], [3, 4]]},
    # strategies on web.json: the solver's witness, its first step, an arc
    # the web lacks, and a repeated prey
    "witness.json": [{"predator": 2, "prey": [3]}, {"predator": 2, "prey": [4]},
                     {"predator": 4, "prey": [1]}, {"predator": 4, "prey": [3]}],
    "partial.json": [{"predator": 2, "prey": [3]}],
    "illegal.json": [{"predator": 1, "prey": [3]}],
    "repeated.json": [{"predator": 2, "prey": [3, 3]}],
}.items()}
INPUTS["broken.json"] = '{"n": 3, "arcs": ['

FAMILIES = {"path": (3, 5, 8), "cycle": (4, 6), "star": (5, 8), "complete": (4, 5)}
ENUMERATE_FLAGS = ((), ("--dedup",), ("--distribution",), ("--dedup", "--distribution"))


def _calls() -> list[tuple[str, list[str]]]:
    calls = []

    def add(name: str, *argv: str) -> None:
        calls.append((name, list(argv)))

    for n in (1, 5, 40):
        for fmt in ("text", "json", "dot"):
            add(f"jaco-{n}-{fmt}", "jaco", "--n", str(n), "--format", fmt)
    for n in (5, 40, 300):
        for fmt in ("text", "json", "dot"):
            add(f"competition-jaco-{n}-{fmt}", "competition", "--jaco", str(n), "--format", fmt)
            add(f"competition-jaco-{n}-closed-form-{fmt}",
                "competition", "--jaco", str(n), "--closed-form", "--format", fmt)
    for n in (5, 40, 120):
        add(f"competition-check-{n}", "competition", "--check", "--jaco", str(n))
    for web in ("web", "path3"):
        for fmt in ("text", "json", "dot"):
            add(f"competition-{web}-{fmt}",
                "competition", f"../inputs/{web}.json", "--format", fmt)

    for web in ("web", "path3", "jaco7"):
        for fmt in ("text", "json"):
            add(f"solve-{web}-{fmt}", "grog", "solve", f"../inputs/{web}.json", "--format", fmt)
            add(f"solve-{web}-witness-{fmt}",
                "grog", "solve", f"../inputs/{web}.json", "--witness", "--format", fmt)
    for strategy in ("witness", "partial", "illegal", "repeated"):
        for fmt in ("text", "json"):
            run = ["grog", "run", "../inputs/web.json", "--strategy", f"../inputs/{strategy}.json"]
            add(f"run-{strategy}-{fmt}", *run, "--format", fmt)
            add(f"run-{strategy}-require-exit-{fmt}", *run, "--require-exit", "--format", fmt)
    add("solve-broken", "grog", "solve", "../inputs/broken.json")

    for family, orders in FAMILIES.items():
        for n, flags, fmt in itertools.product(orders, ENUMERATE_FLAGS, ("text", "json", "csv")):
            walks_slowly = ((family, n) == ("path", 8)
                            or fmt == "json" and (n >= 6 or (family, n) == ("complete", 5)))
            if "--distribution" in flags and fmt != "csv" and walks_slowly:
                continue
            name = "-".join(["enumerate", family, str(n), *(f[2:] for f in flags), fmt])
            add(name, "enumerate", "--graph", family, "--n", str(n), *flags, "--format", fmt)
    for fmt in ("text", "json", "csv"):
        add(f"enumerate-file-distribution-{fmt}",
            "enumerate", "--graph", "../inputs/base.json", "--distribution", "--format", fmt)

    for seed in ("42", "1", "20150206"):
        add(f"verify-{seed}-text", "verify", "--all", "--seed", seed)
        add(f"verify-{seed}-json", "verify", "--all", "--seed", seed, "--format", "json")
        add(f"verify-{seed}-out", "verify", "--all", "--seed", seed, "--out", "report.json")
    add("verify-cor-2.5-n-max-6", "verify", "--claim", "cor-2.5", "--n-max", "6")
    add("verify-unknown-claim", "verify", "--claim", "no-such-claim")

    add("usage-no-input", "competition")
    add("usage-check-without-jaco", "competition", "../inputs/web.json", "--check")
    add("usage-closed-form-without-jaco", "competition", "../inputs/web.json", "--closed-form")
    add("usage-family-without-n", "enumerate", "--graph", "star")
    add("usage-file-and-jaco", "competition", "../inputs/web.json", "--jaco", "5")
    add("usage-check-with-json", "competition", "--check", "--jaco", "6", "--format", "json")
    add("usage-check-with-dot", "competition", "--check", "--jaco", "6", "--format", "dot")
    add("usage-check-with-closed-form", "competition", "--check", "--jaco", "6", "--closed-form")
    add("usage-file-with-n", "enumerate", "--graph", "../inputs/base.json", "--n", "9")
    add("usage-n-max-without-range", "verify", "--claim", "lemma-2.1", "--n-max", "5")
    return calls


CALLS = _calls()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path)
    out = parser.parse_args(argv).outdir
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        raise SystemExit(f"{out} is not empty")
    inputs = out / "inputs"
    inputs.mkdir()
    for name, text in INPUTS.items():
        (inputs / name).write_text(text, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    for name, call in CALLS:
        here = out / name
        here.mkdir()
        proc = subprocess.run([sys.executable, "-m", "grogweb", *call], cwd=here, env=env,
                              capture_output=True)
        (here / "exit").write_text(f"{proc.returncode}\n")
        (here / "stdout").write_bytes(proc.stdout)
        (here / "stderr").write_bytes(proc.stderr)
    print(f"{len(CALLS)} calls written under {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
