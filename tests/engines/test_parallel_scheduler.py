"""Unit tests for the host-parallel partition-task scheduler.

Covers the scheduler's three modes, dependency-driven stage graphs,
deterministic by-index merging under out-of-order completion,
speculative straggler re-execution, the source-shipping pickle layer
(chain kernels, compiled UDFs), the EngineError-not-PicklingError
doorway, the end-to-end serial fallback, and the ``stable_hash``
coverage the worker-side memo fingerprints rely on.
"""

import pickle
import threading
import time

import pytest

from repro.comprehension.exprs import BinOp, Compare, Const, Ref
from repro.core.databag import DataBag
from repro.engines.chainkernel import (
    FILTER,
    MAP,
    KernelStep,
    build_chain_kernel,
)
from repro.engines.cluster import ClusterConfig, stable_hash
from repro.engines.metrics import Metrics
from repro.engines.scheduler import (
    BroadcastSemiSpec,
    KernelSpec,
    PartitionTask,
    TaskScheduler,
    TaskSpec,
    TaskStage,
    UdfRef,
    register_runner,
    ship_task,
    stage_of,
)
from repro.engines.sparklike import SparkLikeEngine
from repro.errors import EngineError
from repro.lowering.combinators import CBagRef, CMap, ScalarFn


def inc_step() -> KernelStep:
    """A chain step computing ``x + 1``."""
    return KernelStep(
        MAP, None, 0, ("x",), BinOp("+", Ref("x"), Const(1)), {}
    )


def big_step() -> KernelStep:
    """A chain step keeping ``x > 10``."""
    return KernelStep(
        FILTER, None, 0, ("x",), Compare(">", Ref("x"), Const(10)), {}
    )


class EchoSpec(TaskSpec):
    """Test spec whose runner doubles the task data."""

    kind = "echo"

    def build(self):
        """No artifact needed."""
        return None


class SleepSpec(TaskSpec):
    """Test spec whose runner sleeps, then returns a value."""

    kind = "sleep"

    def build(self):
        """No artifact needed."""
        return None


register_runner("echo", lambda _prepared, data: data * 2)
register_runner(
    "sleep", lambda _prepared, data: (time.sleep(data[0]), data[1])[1]
)


class TestSchedulerModes:
    def test_invalid_mode_raises(self):
        with pytest.raises(EngineError, match="execution mode"):
            TaskScheduler(mode="gpu")

    def test_invalid_engine_mode_raises(self):
        with pytest.raises(EngineError, match="execution_mode"):
            SparkLikeEngine(execution_mode="gpu")

    def test_configure_execution_rebuilds_scheduler(self):
        # Name the mode explicitly: the suite may run under a
        # REPRO_EXECUTION_MODE override (the parallel-backend CI job).
        engine = SparkLikeEngine(
            cluster=ClusterConfig(num_workers=2), execution_mode="serial"
        )
        assert engine.scheduler.mode == "serial"
        engine.configure_execution("threads", max_parallel_tasks=3)
        scheduler = engine.scheduler
        assert scheduler.mode == "threads" and scheduler.width == 3
        engine.configure_execution("serial")
        assert engine.scheduler is not scheduler

    @pytest.mark.parametrize("mode", ["serial", "threads"])
    def test_run_stage_merges_by_task_index(self, mode):
        scheduler = TaskScheduler(mode=mode, max_parallel_tasks=4)
        spec = EchoSpec()
        tasks = [
            PartitionTask(i, spec, [i, i + 1]) for i in range(6)
        ]
        try:
            out = scheduler.run_stage(tasks)
        finally:
            scheduler.close()
        assert out == [[i, i + 1] * 2 for i in range(6)]

    def test_out_of_order_completion_keeps_order(self):
        # Later tasks finish first; the merge must stay positional.
        scheduler = TaskScheduler(
            mode="threads", max_parallel_tasks=4, speculation=False
        )
        spec = SleepSpec()
        delays = [0.15, 0.1, 0.05, 0.0]
        tasks = [
            PartitionTask(i, spec, (d, i))
            for i, d in enumerate(delays)
        ]
        try:
            out = scheduler.run_stage(tasks)
        finally:
            scheduler.close()
        assert out == [0, 1, 2, 3]


class TestStageGraph:
    def test_downstream_stage_consumes_upstream_results(self):
        spec = EchoSpec()
        first = TaskStage(
            "a", lambda _r: [PartitionTask(i, spec, [i]) for i in range(3)]
        )
        second = TaskStage(
            "b",
            lambda results: [
                PartitionTask(0, spec, [sum(x[0] for x in results["a"])])
            ],
            deps=("a",),
        )
        for mode in ("serial", "threads"):
            scheduler = TaskScheduler(mode=mode, max_parallel_tasks=2)
            try:
                results = scheduler.run_graph([second, first])
            finally:
                scheduler.close()
            # a yields [0,0], [1,1], [2,2]; b echoes [sum of firsts].
            assert results["a"] == [[0, 0], [1, 1], [2, 2]]
            assert results["b"] == [[3, 3]]

    def test_independent_stages_both_run(self):
        spec = EchoSpec()
        left = stage_of([PartitionTask(0, spec, [1])], "left")
        right = stage_of([PartitionTask(0, spec, [2])], "right")
        scheduler = TaskScheduler(mode="threads", max_parallel_tasks=2)
        try:
            results = scheduler.run_graph([left, right])
        finally:
            scheduler.close()
        assert results == {"left": [[1, 1]], "right": [[2, 2]]}

    def test_unknown_dependency_raises(self):
        stage = TaskStage("a", lambda _r: [], deps=("ghost",))
        with pytest.raises(EngineError, match="unknown"):
            TaskScheduler().run_graph([stage])

    def test_cyclic_dependencies_raise(self):
        a = TaskStage("a", lambda _r: [], deps=("b",))
        b = TaskStage("b", lambda _r: [], deps=("a",))
        with pytest.raises(EngineError, match="cyclic"):
            TaskScheduler().run_graph([a, b])


class TestSpeculation:
    def test_straggler_is_relaunched(self):
        scheduler = TaskScheduler(
            mode="threads",
            max_parallel_tasks=4,
            speculation=True,
            speculation_quantile=0.5,
            speculation_factor=1.0,
            min_speculation_seconds=0.05,
        )
        spec = SleepSpec()
        delays = [0.0, 0.0, 0.0, 0.6]
        tasks = [
            PartitionTask(i, spec, (d, i))
            for i, d in enumerate(delays)
        ]
        metrics = Metrics()
        try:
            out = scheduler.run_stage(tasks, metrics=metrics)
        finally:
            scheduler.close()
        assert out == [0, 1, 2, 3]
        assert metrics.speculative_launches >= 1
        assert any(
            name == "speculative-launch"
            for name, _attrs in scheduler.events
        )


class TestKernelShipping:
    def test_chain_kernel_pickle_round_trip(self):
        kernel = build_chain_kernel([inc_step(), big_step()])
        clone = pickle.loads(pickle.dumps(kernel))
        data = list(range(20))
        rows_a, rows_b = [], []
        counts_a = kernel.run(data, rows_a.append)
        counts_b = clone.run(data, rows_b.append)
        assert rows_a == rows_b == [x + 1 for x in data if x + 1 > 10]
        assert counts_a == counts_b
        assert clone.source == kernel.source

    def test_kernel_step_rebuilds_closure_after_pickle(self):
        step = pickle.loads(pickle.dumps(inc_step()))
        assert step.closure is None
        assert step.resolve_closure()(41) == 42

    def test_kernel_spec_fingerprint_is_content_based(self):
        a = KernelSpec([inc_step(), big_step()])
        b = KernelSpec([inc_step(), big_step()])
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint[0] == "kernel"

    def test_compiled_udf_pickle_round_trip(self):
        from repro.engines.executor import _CompiledUdf

        fn = ScalarFn(("x",), BinOp("*", Ref("x"), Const(3)))
        closure, native = fn.compile_native({})
        udf = _CompiledUdf(fn, {}, closure, 0, native)
        clone = pickle.loads(pickle.dumps(udf))
        assert clone.closure(7) == udf.closure(7) == 21
        assert clone.extra == udf.extra

    def test_udf_ref_compiles_in_place(self):
        ref = UdfRef(("x",), BinOp("+", Ref("x"), Const(5)), {})
        clone = pickle.loads(pickle.dumps(ref))
        assert clone.compile()(1) == 6
        assert clone.digest() == ref.digest()

    def test_processes_mode_matches_serial(self):
        spec = KernelSpec([inc_step(), big_step()])
        partitions = [list(range(0, 15)), list(range(15, 25)), []]
        tasks = [
            PartitionTask(i, spec, p) for i, p in enumerate(partitions)
        ]
        serial = TaskScheduler(mode="serial").run_stage(tasks)
        metrics = Metrics()
        scheduler = TaskScheduler(mode="processes", max_parallel_tasks=2)
        out = scheduler.run_stage(tasks, metrics=metrics)
        assert out == serial
        assert metrics.serial_fallbacks == 0
        assert metrics.parallel_tasks == len(tasks)
        assert metrics.ipc_bytes_shipped > 0
        assert metrics.ipc_bytes_returned > 0


class TestUnpicklableWork:
    def test_ship_task_raises_engine_error(self):
        spec = KernelSpec([inc_step()])
        with pytest.raises(EngineError, match="process boundary"):
            ship_task(spec, [threading.Lock()], "map")

    def test_executor_falls_back_to_serial(self):
        # Partition data that cannot be pickled (thread locks) must
        # degrade to in-process execution, not crash the job.
        engine = SparkLikeEngine(
            cluster=ClusterConfig(num_workers=2),
            execution_mode="processes",
            max_parallel_tasks=2,
        )
        records = [threading.Lock() for _ in range(4)]
        plan = CMap(
            fn=ScalarFn(("x",), Ref("x")), input=CBagRef(name="xs")
        )
        out = engine.collect(
            engine.defer(plan, {"xs": DataBag(records)})
        )
        assert sorted(map(id, out)) == sorted(map(id, records))
        assert engine.metrics.serial_fallbacks >= 1


class TestStableHashCoverage:
    def test_dict_hash_ignores_insertion_order(self):
        a = {"x": 1, "y": (2, 3)}
        b = {"y": (2, 3), "x": 1}
        assert stable_hash(a) == stable_hash(b)

    def test_dict_and_set_hash_apart(self):
        assert stable_hash({}) != stable_hash(set())
        assert stable_hash({1: 2}) != stable_hash({(1, 2)})

    def test_set_and_frozenset_are_order_independent(self):
        assert stable_hash({3, 1, 2}) == stable_hash(frozenset([2, 3, 1]))

    def test_nested_dicts_in_records(self):
        assert stable_hash(({"a": 1},)) == stable_hash(({"a": 1},))
        assert stable_hash(({"a": 1},)) != stable_hash(({"a": 2},))

    def test_unhashable_object_raises(self):
        with pytest.raises(EngineError, match="stable partition hash"):
            stable_hash(object())


class TestWorkerMemoFingerprints:
    """Specs with different content must never share a worker-memo key.

    ``stable_hash`` xors set members, so each group below hashes to
    one value; a shared fingerprint would let a warm worker serve one
    spec's prebuilt artifact (a broadcast key set, a closure over a
    bound set) to another spec's tasks."""

    _COLLIDING = ([], [0], [1, 2, 3], [1], [2, 3])

    def test_broadcast_semi_key_sets(self):
        key = UdfRef(("x",), Ref("x"))
        fingerprints = {
            BroadcastSemiSpec(keys, key, False).fingerprint
            for keys in self._COLLIDING
        }
        assert len(fingerprints) == len(self._COLLIDING)

    def test_set_and_dict_bindings(self):
        values = [set(keys) for keys in self._COLLIDING] + [
            {0: 1, 1: 0},
            {0: 0, 1: 1},
        ]
        digests = {
            UdfRef(("x",), Ref("x"), {"s": v}).digest() for v in values
        }
        assert len(digests) == len(values)
