"""Fused aggregations run as generated code, not through the interpreter.

TPC-H Q1's aggregation is six fused folds over one ``agg_by``.  Its
agg-map tasks must run entirely in the generated accumulate function
(no ``Expr.evaluate`` per record), and the process pool — which
rebuilds that function in each worker from the shipped spec IR — must
reproduce the serial rows and simulated cost exactly.
"""

from __future__ import annotations

import os

import pytest

from repro.comprehension.exprs import Expr
from repro.engines import scheduler
from repro.engines.cluster import ClusterConfig
from repro.engines.dfs import SimulatedDFS
from repro.engines.sparklike import SparkLikeEngine
from repro.optimizer.pipeline import EmmaConfig
from repro.workloads.tpch import stage_tpch, tpch_q1


@pytest.fixture
def no_env_knobs(monkeypatch):
    """Every run here names its knobs explicitly."""
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            monkeypatch.delenv(name)


def _expr_classes(cls=Expr):
    yield cls
    for sub in cls.__subclasses__():
        yield from _expr_classes(sub)


@pytest.fixture
def evaluate_calls(monkeypatch):
    """Count every ``evaluate`` call on any IR node class."""
    calls = [0]
    for cls in set(_expr_classes()):
        original = vars(cls).get("evaluate")
        if original is None:
            continue

        def spy(self, env, _original=original):
            calls[0] += 1
            return _original(self, env)

        monkeypatch.setattr(cls, "evaluate", spy)
    return calls


def _run_q1(dfs, lineitem, mode):
    engine = SparkLikeEngine(
        cluster=ClusterConfig(num_workers=4),
        dfs=dfs,
        execution_mode=mode,
        max_parallel_tasks=2,
        memory_budget=0,
    )
    rows = tpch_q1.run(
        engine,
        config=EmmaConfig(execution_mode=mode, max_parallel_tasks=2),
        lineitem_path=lineitem,
        ship_date_max="1998-09-02",
    ).fetch()
    return rows, engine.metrics.simulated_seconds


def test_q1_agg_map_never_interprets(
    no_env_knobs, evaluate_calls, monkeypatch
):
    dfs = SimulatedDFS()
    _orders, lineitem = stage_tpch(dfs, sf=0.05)
    inside = {"tasks": 0, "evaluates": 0}
    runner = scheduler._RUNNERS["agg-map"]

    def spying_runner(prepared, partition):
        before = evaluate_calls[0]
        out = runner(prepared, partition)
        inside["tasks"] += 1
        inside["evaluates"] += evaluate_calls[0] - before
        return out

    monkeypatch.setitem(scheduler._RUNNERS, "agg-map", spying_runner)
    rows, simulated = _run_q1(dfs, lineitem, "serial")
    assert rows and inside["tasks"] > 0
    assert inside["evaluates"] == 0

    monkeypatch.setitem(scheduler._RUNNERS, "agg-map", runner)
    pooled_rows, pooled_simulated = _run_q1(dfs, lineitem, "processes")
    assert repr(pooled_rows) == repr(rows)
    assert repr(pooled_simulated) == repr(simulated)
