"""Plan and snapshot fingerprints: identity, invalidation, stability.

The regression that matters most: every *plan-affecting* config knob
must invalidate the plan fingerprint (a stale cached plan compiled
with different optimizations would silently serve the wrong plan),
while runtime-only knobs must *not* (one cached plan serves every
backend because results are bit-identical across them).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.databag import DataBag
from repro.engines.dfs import SimulatedDFS
from repro.optimizer.fingerprint import (
    PLAN_KNOBS,
    plan_fingerprint,
    snapshot_fingerprint,
    value_digest,
)
from repro.optimizer.pipeline import EmmaConfig
from repro.workloads.pagerank import pagerank
from repro.workloads.tpch.q1 import tpch_q1


class TestPlanFingerprint:
    def test_deterministic(self):
        cfg = EmmaConfig()
        a = plan_fingerprint(tpch_q1.lifted.program, cfg)
        b = plan_fingerprint(tpch_q1.lifted.program, cfg)
        assert a == b
        assert len(a) == 64  # hex sha256

    def test_distinguishes_programs(self):
        cfg = EmmaConfig()
        assert plan_fingerprint(
            tpch_q1.lifted.program, cfg
        ) != plan_fingerprint(pagerank.lifted.program, cfg)

    @pytest.mark.parametrize("knob", PLAN_KNOBS)
    def test_every_plan_knob_invalidates(self, knob):
        base = EmmaConfig()
        current = getattr(base, knob)
        if isinstance(current, bool):
            flipped = dataclasses.replace(base, **{knob: not current})
        else:
            # String-valued knobs (udf_reordering, columnar,
            # columnar_exchange) toggle between "off" and an on-mode.
            flipped = dataclasses.replace(
                base, **{knob: "off" if current != "off" else "on"}
            )
        assert plan_fingerprint(
            tpch_q1.lifted.program, base
        ) != plan_fingerprint(tpch_q1.lifted.program, flipped)

    def test_udf_reordering_columnar_physical_regression(self):
        # The three knobs that have historically gated whole compile
        # passes each get an explicit regression pin.
        base = EmmaConfig()
        fp = plan_fingerprint(tpch_q1.lifted.program, base)
        for knob, value in (
            ("udf_reordering", False),
            ("columnar", "off"),
            ("physical_planning", False),
        ):
            toggled = dataclasses.replace(base, **{knob: value})
            assert (
                plan_fingerprint(tpch_q1.lifted.program, toggled) != fp
            ), f"toggling {knob} must invalidate the plan cache"

    def test_runtime_knobs_preserve(self):
        # Execution mode, memory budget, and tracing change *how* a
        # plan runs, never *what* was compiled: same fingerprint, so a
        # plan cached under one backend warms every other.
        base = EmmaConfig()
        fp = plan_fingerprint(tpch_q1.lifted.program, base)
        for change in (
            {"execution_mode": "processes"},
            {"memory_budget": 262144},
            {"tracing": True},
            {"max_parallel_tasks": 2},
        ):
            varied = dataclasses.replace(base, **change)
            assert (
                plan_fingerprint(tpch_q1.lifted.program, varied) == fp
            ), f"runtime knob {change} must not invalidate the plan cache"


class TestSnapshotFingerprint:
    def test_path_content_sensitivity(self):
        dfs = SimulatedDFS()
        dfs.put("data/in", [1, 2, 3])
        a = snapshot_fingerprint({"path": "data/in"}, dfs=dfs)
        dfs.put("data/in", [1, 2, 4])
        b = snapshot_fingerprint({"path": "data/in"}, dfs=dfs)
        assert a is not None and b is not None
        # Re-staging different records at the same path invalidates.
        assert a != b

    def test_plain_value_params(self):
        a = snapshot_fingerprint({"k": 3, "eps": 0.5})
        b = snapshot_fingerprint({"k": 3, "eps": 0.5})
        c = snapshot_fingerprint({"k": 4, "eps": 0.5})
        assert a == b != c

    def test_sets_and_dicts_do_not_collide(self):
        # Ints hash to themselves and a plain xor of members makes
        # set(), {0} and {1, 2, 3} one value; a shared digest would
        # serve one run's cached result to the other.
        sets = [set(), {0}, {1, 2, 3}, frozenset({1, 2, 3, 3})]
        digests = [snapshot_fingerprint({"ks": s}) for s in sets]
        assert None not in digests
        assert len(set(digests[:3])) == 3
        assert digests[2] == digests[3]
        dicts = [{}, {0: 0}, {1: 1, 2: 2}, {1: 2, 2: 1}]
        digests = [snapshot_fingerprint({"m": d}) for d in dicts]
        assert len(set(digests)) == len(dicts)
        nested = [({0},), ({1, 2, 3},), [set()], [{0}]]
        digests = [snapshot_fingerprint({"n": v}) for v in nested]
        assert len(set(digests)) == len(nested)

    def test_staged_files_and_bags_holding_sets_do_not_collide(self):
        left, right = SimulatedDFS(), SimulatedDFS()
        left.put("data/in", [{0}, {5}])
        right.put("data/in", [{1, 2, 3}, {5}])
        assert snapshot_fingerprint(
            {"path": "data/in"}, dfs=left
        ) != snapshot_fingerprint({"path": "data/in"}, dfs=right)
        assert value_digest(DataBag([{0}])) != value_digest(
            DataBag([{1, 2, 3}])
        )

    def test_set_free_values_digest_like_stable_hash(self):
        from repro.engines.cluster import content_hash, stable_hash

        for value in (0, -7, 2.5, "a", None, (1, "b", (2.0,)), [1, [2]]):
            assert content_hash(value) == stable_hash(value)

    def test_captured_environment_included(self):
        base = snapshot_fingerprint({}, captured={"damping": 0.85})
        other = snapshot_fingerprint({}, captured={"damping": 0.5})
        assert base != other

    def test_unstable_inputs_are_uncacheable(self):
        # A lambda has no cross-process identity: the whole snapshot
        # must refuse to fingerprint rather than guess.
        assert (
            snapshot_fingerprint({"fn": lambda x: x}) is None
        )
        assert snapshot_fingerprint({"obj": object()}) is None

    def test_workload_captured_env_fingerprints(self):
        # Both benchmark workloads capture module-level helpers
        # (formats, dataclasses, constants) — all must digest.
        for algo in (tpch_q1, pagerank):
            assert (
                snapshot_fingerprint({}, captured=algo.lifted.captured)
                is not None
            ), f"{algo.name} captured environment must be cacheable"


class TestValueDigest:
    def test_named_function_digests(self):
        digest = value_digest(len)
        assert digest is not None and digest[0] == "fn"

    def test_class_digests(self):
        digest = value_digest(SimulatedDFS)
        assert digest == (
            "type",
            "repro.engines.dfs",
            "SimulatedDFS",
        )

    def test_nested_containers(self):
        value = {"a": [1, (2, 3)], "b": SimulatedDFS}
        assert value_digest(value) is not None

    def test_foreign_objects_refused(self):
        class Foreign:
            pass

        assert value_digest(Foreign()) is None
