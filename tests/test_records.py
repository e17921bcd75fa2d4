"""The value records: named tuples with fixed fields, compared by value.

Every record of the package is a `typing.NamedTuple`.  Fields cannot be
assigned, equal values make equal records with equal hashes, the
`Name(field=value, ...)` repr is the one callers have always seen, and
`_replace` / `_asdict` / `_fields` are the record API.
"""

import pytest

from grogweb.claims import ClaimReport, HarnessConfig, check_competition_closed_form
from grogweb.competition import (
    CompetitionGraph,
    TheoremCheck,
    check_theorem_1_1,
    competition_graph,
)
from grogweb.engine import (
    GreedyResult,
    GrogState,
    PredationBatch,
    RunResult,
    SolveResult,
    Web,
    enumerate_greedy,
    new_state,
    run_strategy,
    solve_exact,
)
from grogweb.graphs import Digraph, GraphError, UGraph, make_digraph, underlying
from grogweb.jaco import JacoGraph, build_jaco
from grogweb.webs import GraphGrogResult, grog_number, path_graph


def _web() -> Web:
    return Web(make_digraph(3, [(1, 2), (2, 3)]))


# record type -> (its fields, a function building a fresh instance)
RECORDS = {
    Digraph: (("n", "arcs"), lambda: make_digraph(3, [(1, 2), (2, 3)])),
    UGraph: (("n", "edges"), lambda: underlying(make_digraph(3, [(1, 2), (2, 3)]))),
    JacoGraph: (("n", "digraph", "in_deg", "out_deg", "jaconian"), lambda: build_jaco(6)),
    CompetitionGraph: (("ugraph", "isolated"), lambda: competition_graph(build_jaco(6).digraph)),
    TheoremCheck: (("n_min", "n_max", "results"), lambda: check_theorem_1_1(6)),
    Web: (("digraph",), _web),
    PredationBatch: (("predator", "prey"), lambda: PredationBatch(1, [2])),
    GrogState: (("web", "remaining", "pop"), lambda: new_state(_web())),
    RunResult: (
        ("final_state", "residual", "predation_count", "used_arcs"),
        lambda: run_strategy(_web(), (PredationBatch(2, [3]),)),
    ),
    SolveResult: (
        ("grog", "witness", "max_predations", "states_explored"), lambda: solve_exact(_web()),
    ),
    GreedyResult: (("count", "min_residual"), lambda: enumerate_greedy(_web())),
    GraphGrogResult: (("grog", "web", "strategy"), lambda: grog_number(path_graph(3))),
    HarnessConfig: (
        ("seed", "n_max_thm11", "n_max_path", "n_max_cycle", "n_max_jaco", "n_max_lemma29",
         "runs_per_web", "random_webs", "random_greedy_webs", "arc_cap"),
        HarnessConfig,
    ),
    ClaimReport: (
        ("claim_id", "mode", "status", "instances", "failures", "values"),
        lambda: check_competition_closed_form(6),
    ),
}
# records holding a list or dict, which hash no more than their fields do
UNHASHABLE = {TheoremCheck, ClaimReport}
IDS = [cls.__name__ for cls in RECORDS]


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_fields_are_pinned(cls):
    fields, make = RECORDS[cls]
    record = make()
    assert type(record) is cls
    assert cls._fields == fields
    assert tuple(record) == tuple(getattr(record, f) for f in fields)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_assigning_a_field_raises(cls):
    record = RECORDS[cls][1]()
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_equality_and_hash_are_by_value(cls):
    make = RECORDS[cls][1]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    changed = a._replace(**{cls._fields[0]: object()})
    assert changed != a and type(changed) is cls


def test_records_are_tuples():
    d = make_digraph(2, [(1, 2)])
    assert d == (2, ((1, 2),))
    n, arcs = d
    assert (n, arcs) == (d.n, d.arcs)
    assert d._asdict() == {"n": 2, "arcs": ((1, 2),)}
    assert HarnessConfig()._replace(seed=7).seed == 7


def test_repr_is_unchanged():
    assert repr(make_digraph(3, [(2, 3), (1, 2)])) == "Digraph(n=3, arcs=((1, 2), (2, 3)))"
    assert repr(PredationBatch(2, [3])) == "PredationBatch(predator=2, prey=frozenset({3}))"
    assert repr(_web()) == "Web(digraph=Digraph(n=3, arcs=((1, 2), (2, 3))))"


class TestPredationBatch:
    def test_prey_is_frozen(self):
        batch = PredationBatch(1, [3, 2, 3])
        assert type(batch.prey) is frozenset
        assert batch.prey == {2, 3}
        assert batch == PredationBatch(1, (2, 3)) == PredationBatch(1, iter([3, 2]))

    # `()` is TestApplyBatch.test_empty_prey_rejected in test_engine.py
    @pytest.mark.parametrize("prey", [[], set(), iter(())])
    def test_empty_prey_is_rejected(self, prey):
        with pytest.raises(GraphError, match="at least one prey"):
            PredationBatch(1, prey)

    def test_replace_and_make_check_their_prey(self):
        batch = PredationBatch(1, [2])
        assert type(batch._replace(prey=[3]).prey) is frozenset
        assert PredationBatch._make((2, [1])) == PredationBatch(2, [1])
        with pytest.raises(GraphError):
            batch._replace(prey=())
        with pytest.raises(GraphError):
            PredationBatch._make((1, []))


def test_incident_arcs_are_kept_per_web():
    a, b = _web(), _web()
    assert "incident_arcs" not in vars(a)
    arcs = a.incident_arcs
    assert arcs == (((1, 2),), ((1, 2), (2, 3)), ((2, 3),))
    assert a.incident_arcs is arcs
    assert "incident_arcs" not in vars(b)
    assert a == b and hash(a) == hash(b)
