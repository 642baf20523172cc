"""Tests of the benchmark's own arithmetic and checks.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

import checks
import report
import run
from spans import Recorder, Span, covered, self_times, union_length


def span(id, start, end, parent=None, name="x"):
    return Span(id=id, name=name, start=start, end=end, parent=parent, op="op0")


def test_self_time_subtracts_covered_children():
    spans = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 4.0, parent=0),
        span(2, 2.0, 3.0, parent=1),
        span(3, 6.0, 8.0, parent=0),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 2.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(2.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 5.0, parent=0),
        span(2, 3.0, 7.0, parent=0),
        span(3, 9.0, 12.0, parent=0),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_union_and_coverage():
    assert union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
    assert union_length([]) == 0.0
    spans = [span(0, 0.0, 2.0), span(1, 5.0, 9.0)]
    assert covered(spans, 1.0, 6.0) == pytest.approx(2.0)


def test_recorder_links_nested_calls_and_collapses_recursion():
    recorder = Recorder()

    def leaf():
        return 1

    traced_leaf = recorder.wrap("leaf", leaf)

    def outer(depth):
        if depth:
            return traced_outer(depth - 1)
        return traced_leaf()

    traced_outer = recorder.wrap("outer", outer)
    recorder.op = "op7"
    assert traced_outer(3) == 1
    by_name = {s.name: s for s in recorder.spans}
    assert len(recorder.spans) == 2  # the recursive outer calls collapse
    assert by_name["leaf"].parent == by_name["outer"].id
    assert by_name["outer"].parent is None
    assert {s.op for s in recorder.spans} == {"op7"}


def test_percentile_needs_ten_samples_beyond():
    assert checks.percentile(list(range(199)), 95) is None
    values = [float(i) for i in range(200)]
    assert checks.percentile(values, 95) == 189.0
    assert checks.percentile([1.0] * 20, 50) == 1.0


def test_median():
    assert checks.median([3.0, 1.0, 2.0]) == 2.0
    assert checks.median([4.0, 1.0, 2.0, 3.0]) == 2.5


@dataclass(frozen=True)
class Row:
    key: str
    total: float
    count: int


ORACLE = [Row("A", 1.5, 3), Row("B", 1e6 / 3, 2), Row("C", 0.1 + 0.2, 1)]


def test_oracle_accepts_reordering_and_summation_noise():
    noisy = [Row("C", 0.3, 1), Row("A", 1.5, 3), Row("B", 1e6 / 3 * (1 + 1e-13), 2)]
    assert checks.compare_multisets(noisy, ORACLE) is None


def test_oracle_rejects_one_perturbed_row():
    perturbed = [Row("A", 1.5, 3), Row("B", 1e6 / 3 + 0.01, 2), Row("C", 0.3, 1)]
    assert "B" in checks.compare_multisets(perturbed, ORACLE)
    wrong_count = [Row("A", 1.5, 4), ORACLE[1], ORACLE[2]]
    assert checks.compare_multisets(wrong_count, ORACLE) is not None
    assert checks.compare_multisets(ORACLE[:2], ORACLE) is not None


def test_oracle_compares_duplicates_as_a_multiset():
    assert checks.compare_multisets([(1, 2.0), (1, 2.0)], [(1, 2.0), (1, 2.0)]) is None
    assert checks.compare_multisets([(1, 2.0), (1, 2.0)], [(1, 2.0), (2, 2.0)]) is not None


def test_benchmark_json_lists_the_workloads_and_metrics():
    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOAD_NAMES
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == report.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == report.per_layer_units()


def test_service_rounds_repeat_every_distinct_request():
    sys.path.insert(0, str(Path(__file__).parent.parent / "src"))
    import scenarios

    universe = set(scenarios.service_universe())
    for round_index in range(3):
        sequences = scenarios.service_sequences(7, round_index)
        assert [len(seq) for seq in sequences] == [scenarios.SERVICE_REQUESTS] * 2
        assert {r for seq in sequences for r in seq} == universe
    assert scenarios.service_sequences(7, 1) == scenarios.service_sequences(7, 1)
    assert scenarios.service_sequences(7, 1) != scenarios.service_sequences(8, 1)
