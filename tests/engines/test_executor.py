"""Tests for the dataflow executor: semantics + cost accounting."""

from dataclasses import dataclass

import pytest

from repro.comprehension.exprs import (
    AlgebraSpec,
    Attr,
    BinOp,
    Compare,
    Const,
    Index,
    Ref,
    TupleExpr,
)
from repro.core.databag import DataBag
from repro.engines.cluster import ClusterConfig
from repro.engines.costmodel import CostModel
from repro.engines.sparklike import SparkLikeEngine
from repro.errors import EngineError, SimulatedMemoryError
from repro.lowering.combinators import (
    CAggBy,
    CBagRef,
    CCross,
    CDistinct,
    CEqJoin,
    CFilter,
    CFlatMap,
    CFold,
    CGroupBy,
    CMap,
    CMinus,
    CSemiJoin,
    CSource,
    CUnion,
    ScalarFn,
)


@dataclass(frozen=True)
class R:
    k: int
    v: int


def engine(**kwargs) -> SparkLikeEngine:
    kwargs.setdefault("cluster", ClusterConfig(num_workers=4))
    return SparkLikeEngine(**kwargs)


def run_bag(eng, plan, env) -> DataBag:
    return DataBag(eng.collect(eng.defer(plan, env)))


def key_k() -> ScalarFn:
    return ScalarFn(("x",), Attr(Ref("x"), "k"))


class TestElementwiseOperators:
    def test_map(self):
        plan = CMap(
            fn=ScalarFn(("x",), BinOp("*", Ref("x"), Const(2))),
            input=CBagRef(name="xs"),
        )
        eng = engine()
        assert run_bag(eng, plan, {"xs": DataBag([1, 2])}) == DataBag(
            [2, 4]
        )
        assert eng.metrics.udf_invocations == 2

    def test_flat_map(self):
        plan = CFlatMap(
            fn=ScalarFn(("x",), Attr(Ref("x"), "items")),
            input=CBagRef(name="xs"),
        )

        @dataclass(frozen=True)
        class W:
            items: tuple

        result = run_bag(
            engine(), plan, {"xs": DataBag([W((1, 2)), W(())])}
        )
        assert result == DataBag([1, 2])

    @pytest.mark.parametrize("kind", ["map", "filter", "flat_map"])
    def test_partitioner_rule(self, kind):
        """Only a filter keeps its input's hash partitioning (an
        identity map is not recognized as carrying the key through)."""
        eng = engine()
        from repro.engines.executor import JobExecutor

        job = eng._new_job()
        ex = JobExecutor(eng, {}, job)
        shuffled = ex.shuffle_by_key(
            ex.parallelize_local([R(1, 1), R(2, 2)]), key_k()
        )
        source = _env_ref(ex, shuffled)
        if kind == "map":
            comb = CMap(fn=ScalarFn.identity("x"), input=source)
        elif kind == "filter":
            comb = CFilter(
                predicate=ScalarFn(
                    ("x",), Compare(">", Attr(Ref("x"), "v"), Const(0))
                ),
                input=source,
            )
        else:
            comb = CFlatMap(
                fn=ScalarFn(("x",), TupleExpr((Ref("x"),))),
                input=source,
            )
        out = ex._exec(comb)
        assert out.partitions == shuffled.partitions
        if kind == "filter":
            assert out.partitioner is shuffled.partitioner
        else:
            assert out.partitioner is None


class TestShuffleAndJoin:
    def test_shuffle_elided_when_already_partitioned(self):
        eng = engine()
        from repro.engines.executor import JobExecutor

        job = eng._new_job()
        ex = JobExecutor(eng, {}, job)
        bag = ex.parallelize_local([R(i, i) for i in range(20)])
        first = ex.shuffle_by_key(bag, key_k())
        before = eng.metrics.shuffle_bytes
        second = ex.shuffle_by_key(first, key_k())
        assert second is first
        assert eng.metrics.shuffle_bytes == before

    def test_repartition_join(self):
        eng = engine()
        # Force the repartition strategy with a tiny threshold.
        eng.broadcast_join_threshold = 0
        plan = CEqJoin(
            kx=key_k(),
            ky=key_k(),
            left=CBagRef(name="xs"),
            right=CBagRef(name="ys"),
        )
        env = {
            "xs": DataBag([R(1, 10), R(2, 20), R(1, 11)]),
            "ys": DataBag([R(1, 100), R(3, 300)]),
        }
        result = run_bag(eng, plan, env)
        assert result == DataBag(
            [(R(1, 10), R(1, 100)), (R(1, 11), R(1, 100))]
        )
        assert eng.metrics.shuffle_bytes > 0

    def test_broadcast_join_same_result_no_shuffle(self):
        eng = engine()
        eng.broadcast_join_threshold = 10**9
        plan = CEqJoin(
            kx=key_k(),
            ky=key_k(),
            left=CBagRef(name="xs"),
            right=CBagRef(name="ys"),
        )
        env = {
            "xs": DataBag([R(1, 10), R(2, 20)]),
            "ys": DataBag([R(1, 100)]),
        }
        result = run_bag(eng, plan, env)
        assert result == DataBag([(R(1, 10), R(1, 100))])
        assert eng.metrics.shuffle_bytes == 0
        assert eng.metrics.broadcast_bytes > 0

    def test_semi_join(self):
        eng = engine()
        plan = CSemiJoin(
            kx=key_k(),
            ky=key_k(),
            left=CBagRef(name="xs"),
            right=CBagRef(name="ys"),
        )
        env = {
            "xs": DataBag([R(1, 10), R(2, 20), R(1, 11)]),
            "ys": DataBag([R(1, 0), R(1, 1)]),
        }
        # Left multiplicities preserved; right duplicates irrelevant.
        assert run_bag(eng, plan, env) == DataBag(
            [R(1, 10), R(1, 11)]
        )

    def test_anti_join(self):
        plan = CSemiJoin(
            kx=key_k(),
            ky=key_k(),
            left=CBagRef(name="xs"),
            right=CBagRef(name="ys"),
            anti=True,
        )
        env = {
            "xs": DataBag([R(1, 10), R(2, 20)]),
            "ys": DataBag([R(1, 0)]),
        }
        assert run_bag(engine(), plan, env) == DataBag([R(2, 20)])

    def test_semi_join_repartition_path(self):
        eng = engine()
        eng.broadcast_join_threshold = 0
        plan = CSemiJoin(
            kx=key_k(),
            ky=key_k(),
            left=CBagRef(name="xs"),
            right=CBagRef(name="ys"),
        )
        env = {
            "xs": DataBag([R(i, i) for i in range(10)]),
            "ys": DataBag([R(2, 0), R(4, 0)]),
        }
        assert run_bag(eng, plan, env) == DataBag([R(2, 2), R(4, 4)])

    def test_cross(self):
        plan = CCross(
            left=CBagRef(name="xs"), right=CBagRef(name="ys")
        )
        env = {"xs": DataBag([1, 2]), "ys": DataBag(["a"])}
        assert run_bag(engine(), plan, env) == DataBag(
            [(1, "a"), (2, "a")]
        )


class TestGroupingAndAggregation:
    def test_group_by_builds_grp_records(self):
        plan = CGroupBy(key=key_k(), input=CBagRef(name="xs"))
        env = {"xs": DataBag([R(1, 10), R(1, 11), R(2, 20)])}
        groups = run_bag(engine(), plan, env)
        by_key = {g.key: g.values for g in groups}
        assert by_key[1] == DataBag([R(1, 10), R(1, 11)])
        assert by_key[2] == DataBag([R(2, 20)])

    def test_group_by_memory_bound(self):
        eng = engine(
            cost=CostModel(memory_per_worker=64),  # absurdly small
            memory_budget=0,  # no spill tier: the raise must survive
        )
        plan = CGroupBy(key=key_k(), input=CBagRef(name="xs"))
        env = {"xs": DataBag([R(1, i) for i in range(100)])}
        with pytest.raises(SimulatedMemoryError):
            run_bag(eng, plan, env)

    def test_agg_by_computes_product_algebra(self):
        from repro.comprehension.exprs import Lambda

        plan = CAggBy(
            key=key_k(),
            specs=(
                AlgebraSpec("count"),
                AlgebraSpec(
                    "min_by",
                    (Lambda(("x",), Attr(Ref("x"), "v")),),
                ),
            ),
            input=CBagRef(name="xs"),
        )
        env = {"xs": DataBag([R(1, 10), R(1, 5), R(2, 20)])}
        result = {
            r.key: r.aggs for r in run_bag(engine(), plan, env)
        }
        assert result[1] == (2, R(1, 5))
        assert result[2] == (1, R(2, 20))

    def test_agg_by_shuffles_only_partials(self):
        eng_agg = engine()
        eng_grp = engine()
        records = DataBag([R(i % 3, i) for i in range(300)])
        agg_plan = CAggBy(
            key=key_k(),
            specs=(AlgebraSpec("count"),),
            input=CBagRef(name="xs"),
        )
        grp_plan = CGroupBy(key=key_k(), input=CBagRef(name="xs"))
        run_bag(eng_agg, agg_plan, {"xs": records})
        run_bag(eng_grp, grp_plan, {"xs": records})
        assert (
            eng_agg.metrics.shuffle_bytes
            < eng_grp.metrics.shuffle_bytes / 5
        )

    def test_agg_by_aligned_input_skips_shuffle(self):
        eng = engine()
        from repro.engines.executor import JobExecutor

        job = eng._new_job()
        ex = JobExecutor(eng, {}, job)
        shuffled = ex.shuffle_by_key(
            ex.parallelize_local([R(i % 5, i) for i in range(50)]),
            key_k(),
        )
        before = eng.metrics.shuffle_bytes
        result = ex._exec_agg_by(
            CAggBy(
                key=key_k(),
                specs=(AlgebraSpec("count"),),
                input=_env_ref(ex, shuffled),
            )
        )
        assert eng.metrics.shuffle_bytes == before
        assert sum(r.aggs[0] for p in result.partitions for r in p) == 50

    def test_distinct(self):
        plan = CDistinct(input=CBagRef(name="xs"))
        env = {"xs": DataBag([1, 1, 2, 3, 3, 3])}
        assert run_bag(engine(), plan, env) == DataBag([1, 2, 3])

    def test_union_and_minus(self):
        union = CUnion(
            left=CBagRef(name="a"), right=CBagRef(name="b")
        )
        minus = CMinus(
            left=CBagRef(name="a"), right=CBagRef(name="b")
        )
        env = {"a": DataBag([1, 1, 2]), "b": DataBag([1, 3])}
        assert run_bag(engine(), union, env) == DataBag([1, 1, 2, 1, 3])
        assert run_bag(engine(), minus, env) == DataBag([1, 2])


class TestFoldsAndSources:
    def test_global_fold(self):
        plan = CFold(
            spec=AlgebraSpec("sum"), input=CBagRef(name="xs")
        )
        eng = engine()
        assert eng.run_scalar(plan, {"xs": DataBag([1, 2, 3])}) == 6
        assert eng.metrics.driver_collect_bytes > 0

    def test_fold_empty_bag(self):
        plan = CFold(
            spec=AlgebraSpec("min"), input=CBagRef(name="xs")
        )
        assert engine().run_scalar(plan, {"xs": DataBag([])}) is None

    def test_source_reads_dfs_and_charges(self):
        eng = engine()
        eng.dfs.put("data/x", [1, 2, 3])
        plan = CSource(path=Const("data/x"), fmt=Const(None))
        assert run_bag(eng, plan, {}) == DataBag([1, 2, 3])
        assert eng.metrics.dfs_read_bytes > 0

    def test_unbound_bag_ref_raises(self):
        plan = CBagRef(name="nope")
        with pytest.raises(EngineError, match="nope"):
            run_bag(engine(), plan, {})


class TestBroadcastUdfs:
    def test_free_bag_variable_broadcast(self):
        # UDF referencing a driver bag: the engine must broadcast it.
        from repro.comprehension.exprs import FoldCall

        body = FoldCall(Ref("lookup"), AlgebraSpec("max"))
        plan = CMap(
            fn=ScalarFn(("x",), BinOp("+", Ref("x"), body)),
            input=CBagRef(name="xs"),
        )
        eng = engine()
        env = {
            "xs": DataBag([1, 2]),
            "lookup": DataBag([10, 30]),
        }
        assert run_bag(eng, plan, env) == DataBag([31, 32])
        assert eng.metrics.broadcast_bytes > 0

    def test_broadcast_counted_once_per_job(self):
        from repro.comprehension.exprs import FoldCall

        body = FoldCall(Ref("lookup"), AlgebraSpec("max"))
        plan = CMap(
            fn=ScalarFn(("x",), BinOp("+", Ref("x"), body)),
            input=CMap(
                fn=ScalarFn(("x",), BinOp("+", Ref("x"), body)),
                input=CBagRef(name="xs"),
            ),
        )
        eng = engine()
        env = {"xs": DataBag([1]), "lookup": DataBag([5])}
        run_bag(eng, plan, env)
        # One broadcast despite two UDFs referencing the same bag.
        W = eng.cluster.num_workers
        assert eng.metrics.records_broadcast == 1 * W

    def test_scalar_free_variables_are_closed_over(self):
        plan = CMap(
            fn=ScalarFn(("x",), BinOp("+", Ref("x"), Ref("k"))),
            input=CBagRef(name="xs"),
        )
        eng = engine()
        env = {"xs": DataBag([1]), "k": 41}
        assert run_bag(eng, plan, env) == DataBag([42])
        assert eng.metrics.broadcast_bytes == 0


class TestSerialModeDispatch:
    def test_serial_operators_run_through_the_task_graph(
        self, monkeypatch
    ):
        """Serial mode runs the scheduler's task runners inline: every
        per-partition operator reaches ``TaskScheduler.run_graph``."""
        import dataclasses

        from repro.engines.scheduler import TaskScheduler

        kinds: list[str] = []
        original = TaskScheduler.run_graph

        def spy(self, stages, metrics=None):
            def recording(stage):
                def build(results):
                    tasks = stage.build(results)
                    kinds.extend(t.spec.kind for t in tasks)
                    return tasks

                return dataclasses.replace(stage, build=build)

            return original(
                self, [recording(s) for s in stages], metrics=metrics
            )

        monkeypatch.setattr(TaskScheduler, "run_graph", spy)
        eng = engine(execution_mode="serial")
        eng.broadcast_join_threshold = 0  # force the repartition join
        join = CEqJoin(
            kx=key_k(),
            ky=key_k(),
            left=CBagRef(name="xs"),
            right=CBagRef(name="ys"),
        )
        groups = CGroupBy(
            key=ScalarFn(("p",), Attr(Index(Ref("p"), Const(0)), "k")),
            input=join,
        )
        plan = CAggBy(
            key=ScalarFn(("g",), Attr(Ref("g"), "key")),
            specs=(AlgebraSpec("count"),),
            input=groups,
        )
        env = {
            "xs": DataBag([R(i % 3, i) for i in range(12)]),
            "ys": DataBag([R(k, 0) for k in range(3)]),
        }
        result = run_bag(eng, plan, env)
        assert sorted((r.key, r.aggs) for r in result) == [
            (0, (1,)),
            (1, (1,)),
            (2, (1,)),
        ]
        assert eng.metrics.repartition_joins == 1
        assert {"bucket", "join-probe", "group", "agg-map", "agg-merge"} <= (
            set(kinds)
        )


def _env_ref(executor, bag):
    """A CBagRef whose env entry is a prepared PartitionedBag."""
    name = f"__fixed_{id(bag)}__"
    executor.env[name] = bag
    return CBagRef(name=name)
