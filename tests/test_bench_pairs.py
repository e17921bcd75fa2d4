"""The summary of tools/bench_pairs.py; no benchmark run is spawned here."""

import ast
import importlib.util
import statistics
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "wall_s", "better": "lower", "bound": 0.25},
              {"name": "items_per_s", "better": "higher", "bound": 0.25}]


def result(wall, items, correct=True, passes=20):
    return {"correct": correct, "passes": passes,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "items_per_s": {"value": items, "unit": "1/s"}}}


def test_summary_medians_quartiles_and_wins():
    walls = [(0.30, 0.27), (0.32, 0.28), (0.29, 0.29), (0.35, 0.36), (0.31, 0.26)]
    pairs = [{"parent": result(p, 1 / p, passes=30 + i),
              "change": result(c, 1 / c, correct=i != 1, passes=40 - i)}
             for i, (p, c) in enumerate(walls)]
    summary = bench_pairs.summarize(pairs, END_TO_END)
    wall = summary["wall_s"]
    # inclusive quartiles of 0.29, 0.30, 0.31, 0.32, 0.35 are its 2nd and 4th values
    assert wall["parent"] == pytest.approx({"median": 0.31, "q1": 0.30, "q3": 0.32})
    assert wall["change"] == pytest.approx({"median": 0.28, "q1": 0.27, "q3": 0.29})
    assert wall["change_over_parent"] == pytest.approx(0.28 / 0.31)
    # the tie at 0.29 counts for neither side, 0.36 against 0.35 for the parent
    assert wall["change_better_pairs"] == 3
    assert wall["pairs"] == 5
    assert wall["gap_exceeds_parent_iqr"] is True
    # higher is better: the same pairs won, read the other way round
    assert summary["items_per_s"]["change_better_pairs"] == 3
    assert summary["passes"] == {"parent": 32, "change": 38}
    assert summary["failed_runs"] == 1


def test_summary_of_one_pair_and_a_spread_wider_than_the_gap():
    one = bench_pairs.summarize([{"parent": result(0.5, 2), "change": result(0.4, 2.5)}], END_TO_END)
    assert one["wall_s"]["parent"] == {"median": 0.5, "q1": 0.5, "q3": 0.5}
    assert one["wall_s"]["change_better_pairs"] == 1
    walls = [(0.2, 0.25), (0.4, 0.35), (0.3, 0.29)]
    pairs = [{"parent": result(p, 1 / p), "change": result(c, 1 / c)} for p, c in walls]
    assert bench_pairs.summarize(pairs, END_TO_END)["wall_s"]["gap_exceeds_parent_iqr"] is False
    pairs[1]["change"]["passes"] = None
    assert bench_pairs.summarize(pairs, END_TO_END)["passes"] == {"parent": 20, "change": None}


# parent walls with an interquartile range of 2 % and of 40 % of the median
TIGHT = [1.00, 1.01, 0.99, 1.02, 0.98]
WIDE = [0.6, 1.0, 1.4, 0.8, 1.2]


@pytest.mark.parametrize("parent, change, worse_by, within, unresolved", [
    (TIGHT, [1.10] * 5, 0.10, True, False),
    (TIGHT, [1.40] * 5, 0.40, False, False),
    (WIDE, [1.0, 0.9, 1.1, 1.05, 0.95], 0.0, True, True),
    # every change run beats every parent run, so the wide spread cannot hide it
    (WIDE, [0.5, 0.55, 0.45, 0.5, 0.5], -0.5, True, False),
], ids=["within", "outside", "unresolved", "all-better"])
def test_summary_against_the_bound(parent, change, worse_by, within, unresolved):
    pairs = [{"parent": result(p, 1 / p), "change": result(c, 1 / c)} for p, c in zip(parent, change)]
    summary = bench_pairs.summarize(pairs, END_TO_END)
    wall = summary["wall_s"]
    assert wall["bound"] == 0.25
    assert wall["worse_by"] == pytest.approx(worse_by)
    assert (wall["within_bound"], wall["unresolved"]) == (within, unresolved)
    # higher is better: a lower rate reads worse, by its own relative change
    items = summary["items_per_s"]
    base, median = 1 / statistics.median(parent), 1 / statistics.median(change)
    assert items["worse_by"] == pytest.approx((base - median) / base)
    assert (items["within_bound"], items["unresolved"]) == (within, unresolved)


# ten parent walls with an interquartile range of 0.02 (0.99 to 1.01)
TEN = TIGHT * 2


@pytest.mark.parametrize("change, claim_met", [
    # nine pairs won and one tie: the tie counts for neither side
    ([w - 0.1 for w in TEN[:9]] + [TEN[9]], True),
    # the same gap the other way round is no gain
    ([w + 0.1 for w in TEN], False),
    ([w - 0.1 for w in TEN[:8]] + [w + 0.01 for w in TEN[8:]], False),
    ([w - 0.005 for w in TEN], False),
], ids=["met", "worse", "8-of-10", "inside-iqr"])
def test_summary_claim_verdict(change, claim_met):
    pairs = [{"parent": result(p, 1 / p), "change": result(c, 1 / c)} for p, c in zip(TEN, change)]
    summary = bench_pairs.summarize(pairs, END_TO_END)
    assert summary["wall_s"]["claim_met"] is claim_met
    assert summary["items_per_s"]["claim_met"] is claim_met


def test_summary_line_fields():
    line = ("perfbench: workload=strategy-replay seed=1 trace=0 smoke=0 passes=31 untraced, "
            "0 traced; checks 62, failed 0; unscaled wall 0.7012 s, speed factor 1.0234")
    assert bench_pairs.summary_fields(line) == {
        "passes": 31, "unscaled_wall_s": 0.7012, "speed_factor": 1.0234}
    assert bench_pairs.summary_fields('{"correct": true}') == {
        "passes": None, "unscaled_wall_s": None, "speed_factor": None}


def test_imports_nothing_of_the_package():
    tree = ast.parse(TOOL.read_text())
    names = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    names += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert names and not [n for n in names if n and n.split(".")[0] == "grogweb"]
