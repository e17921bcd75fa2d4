"""Rewrite the golden `verify --all` reports from the current code.

Each file holds what `grogweb verify --all --seed S --out F` writes to F.
`tests/test_claims.py` compares them byte for byte and never writes them.
Run this by hand, from the repository root, only for an announced report
change, then review `git diff tests/golden/` before committing:

    PYTHONPATH=src python tests/golden/rewrite.py
"""

import json
from pathlib import Path

from grogweb.claims import HarnessConfig, run_all

GOLDEN = Path(__file__).resolve().parent
SEEDS = (42, 1, 20150206)


def golden_path(seed: int) -> Path:
    return GOLDEN / f"verify-all-seed-{seed}.json"


def report_text(seed: int) -> str:
    """The report `verify --all --seed S` writes, at the default caps."""
    return json.dumps(run_all(HarnessConfig(seed=seed)), indent=2) + "\n"


def main() -> None:
    for seed in SEEDS:
        path = golden_path(seed)
        path.write_text(report_text(seed), encoding="utf-8")
        print(path)


if __name__ == "__main__":
    main()
