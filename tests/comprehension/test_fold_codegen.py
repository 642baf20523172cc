"""Generated fold code against the ``make_algebra`` interpreter.

``compile_aggregation`` and ``compile_fold`` must reproduce the
interpreter exactly — compared by ``repr``, so ``-0.0`` vs ``0.0``,
``1`` vs ``1.0`` and the winner of a ``min``/``max`` tie all count —
for every alias of :data:`FOLD_ALIASES`, in each of three shapes: no
fused pipeline, a fused head, and a fused head plus a guard that is
false for some records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import pytest

from repro.comprehension.exprs import (
    FOLD_ALIASES,
    AlgebraSpec,
    Attr,
    BinOp,
    Call,
    Compare,
    Const,
    Env,
    FoldCall,
    Lambda,
    ListExpr,
    MapCall,
    Ref,
    compile_aggregation,
    compile_fold,
)
from repro.core.databag import DataBag
from repro.engines.cluster import ClusterConfig
from repro.engines.sparklike import SparkLikeEngine
from repro.lowering.combinators import CAggBy, CBagRef, CFold, ScalarFn


@dataclass(frozen=True)
class Rec:
    k: int
    v: object
    w: int


NAN = float("nan")

#: -0.0, NaN, mixed int/float, and equal values of different types so
#: min/max ties (1 vs 1.0, 0.0 vs -0.0) show which operand won
VALUES = [-0.0, 1, 1.0, 2.5, NAN, 0.0, -3, 1.0, 1, -0.0, 2.5, 7, NAN, -3.0]
RECORDS = [Rec(i % 3, v, i % 4) for i, v in enumerate(VALUES)]


def _key_of(y):
    return y.w if isinstance(y, Rec) else y


def _new_list():
    return []


def _extend(a, b):
    # Mutates its left operand: a zero shared between keys or between
    # partitions would show up as cross-talk in the result.
    a.extend(b)
    return a


ENV = Env(
    {
        "keyfn": _key_of,
        "new_list": _new_list,
        "extend": _extend,
        "small": DataBag([1, 2]),
    }
)

#: the lifted arguments of each alias; the user fold's zero is a
#: mutable factory and its union mutates the left operand
ARGS = {
    "fold": (
        Ref("new_list"),
        Lambda(("y",), ListExpr((Ref("y"),))),
        Ref("extend"),
    ),
    "exists": (Lambda(("y",), Compare(">", Ref("y"), Const(1))),),
    "forall": (Lambda(("y",), Compare(">", Ref("y"), Const(-1))),),
    "min_by": (Ref("keyfn"),),
    "max_by": (Ref("keyfn"),),
}

HEAD = Attr(Ref("r"), "v")
GUARD = Compare(">", Attr(Ref("r"), "w"), Const(0))


def _spec(alias: str, shape: str) -> AlgebraSpec:
    spec = AlgebraSpec(alias, ARGS.get(alias, ()))
    if shape == "head":
        return spec.fused_with("r", HEAD, ())
    if shape == "guarded":
        return spec.fused_with("r", HEAD, (GUARD,))
    return spec


# -- the interpreter: the pre-codegen runner loops, kept as reference -------


def interpreted_agg_map(specs, env, records, key):
    algebras = [s.make_algebra(env) for s in specs]
    acc = {}
    for x in records:
        k = key(x)
        entry = acc.get(k)
        if entry is None:
            acc[k] = [a.union(a.zero(), a.singleton(x)) for a in algebras]
        else:
            for j, a in enumerate(algebras):
                entry[j] = a.union(entry[j], a.singleton(x))
    return acc


def interpreted_merge(specs, env, pairs):
    algebras = [s.make_algebra(env) for s in specs]
    merged = {}
    for k, accs in pairs:
        entry = merged.get(k)
        if entry is None:
            merged[k] = list(accs)
        else:
            for j, a in enumerate(algebras):
                entry[j] = a.union(entry[j], accs[j])
    return merged


def generated_agg_map(code, records, key):
    acc = {}
    accumulate = code.accumulator(acc, key)
    for x in records:
        accumulate(x)
    return acc


def _partials(run, records):
    """Two partitions' ``(key, accumulators)`` pairs."""
    half = len(records) // 2
    return [
        (k, tuple(v))
        for part in (records[:half], records[half:])
        for k, v in run(part).items()
    ]


ALIASES = sorted(FOLD_ALIASES)
SHAPES = ["plain", "head", "guarded"]


def _records_for(alias: str, shape: str):
    # Without a head the arithmetic and comparing aliases see the raw
    # elements, so they fold the numbers; everything else folds records.
    if shape == "plain" and alias in (
        "sum",
        "product",
        "min",
        "max",
        "exists",
        "forall",
    ):
        return VALUES
    return RECORDS


def _key(x):
    if isinstance(x, Rec):
        return x.k
    return 9 if x != x else int(abs(x)) % 3  # NaN gets a key of its own


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("alias", ALIASES)
class TestAgainstInterpreter:
    def test_accumulate(self, alias, shape):
        specs = (_spec(alias, shape), AlgebraSpec("count"))
        records = _records_for(alias, shape)
        code = compile_aggregation(specs, ENV)
        assert code.fallbacks == ()
        assert repr(generated_agg_map(code, records, _key)) == repr(
            interpreted_agg_map(specs, ENV, records, _key)
        )

    def test_merge(self, alias, shape):
        specs = (_spec(alias, shape), AlgebraSpec("count"))
        records = _records_for(alias, shape)
        code = compile_aggregation(specs, ENV)
        generated = code.merge(
            _partials(lambda p: generated_agg_map(code, p, _key), records)
        )
        interpreted = interpreted_merge(
            specs,
            ENV,
            _partials(
                lambda p: interpreted_agg_map(specs, ENV, p, _key), records
            ),
        )
        assert repr(generated) == repr(interpreted)

    def test_fold(self, alias, shape):
        spec = _spec(alias, shape)
        records = _records_for(alias, shape)
        code = compile_fold(spec, ENV)
        algebra = spec.make_algebra(ENV)
        half = len(records) // 2
        parts = [records[:half], records[half:], []]
        generated = [code.fold(p) for p in parts]
        interpreted = [algebra(p) for p in parts]
        assert repr(generated) == repr(interpreted)
        assert repr(code.merge(generated)) == repr(
            algebra.merge(interpreted)
        )


class TestBitIdentity:
    def test_first_union_keeps_zero(self):
        # union(zero(), s) for sum is 0 + s, which turns -0.0 into 0.0.
        code = compile_aggregation((AlgebraSpec("sum"),), ENV)
        acc = generated_agg_map(code, [-0.0], lambda x: 0)
        assert repr(acc) == "{0: [0.0]}"

    def test_failed_guard_still_unions_zero(self):
        # A zero that is visible in the result: every record whose
        # guard fails must still contribute union(acc, zero()).
        spec = AlgebraSpec(
            "fold",
            (
                Ref("marked_zero"),
                Lambda(("y",), ListExpr((Ref("y"),))),
                Ref("extend"),
            ),
        ).fused_with("r", HEAD, (GUARD,))
        env = Env({"marked_zero": lambda: ["zero"], "extend": _extend})
        generated = compile_fold(spec, env).fold(RECORDS)
        assert repr(generated) == repr(spec.make_algebra(env)(RECORDS))
        failing = sum(1 for r in RECORDS if not r.w > 0)
        assert generated.count("zero") == 1 + failing

    def test_min_max_ties_keep_first(self):
        for alias, expected in (("min", "[1]"), ("max", "[1]")):
            code = compile_aggregation((AlgebraSpec(alias),), ENV)
            acc = generated_agg_map(code, [1, 1.0], lambda x: 0)
            assert repr(acc[0]) == expected

    def test_nan_order_matches(self):
        for values in ([NAN, 1.0], [1.0, NAN]):
            code = compile_fold(AlgebraSpec("min"), ENV)
            assert repr(code.fold(values)) == repr(
                AlgebraSpec("min").make_algebra(ENV)(values)
            )
            assert math.isnan(code.fold(values)) == (values[0] != values[0])

    def test_mutable_zero_is_fresh_per_key(self):
        spec = _spec("fold", "plain")
        code = compile_aggregation((spec,), ENV)
        acc = generated_agg_map(code, RECORDS, _key)
        lists = [v[0] for v in acc.values()]
        assert len({id(x) for x in lists}) == len(lists)
        assert sum(len(x) for x in lists) == len(RECORDS)


class TestFallback:
    #: a bag operator in the head: outside the compilable subset
    BAG_HEAD = BinOp(
        "+",
        FoldCall(
            MapCall(
                Ref("small"),
                Lambda(("y",), BinOp("*", Ref("y"), Const(2))),
            ),
            AlgebraSpec("sum"),
        ),
        Attr(Ref("r"), "w"),
    )

    def test_bag_head_takes_interpreted_singleton(self):
        specs = (
            AlgebraSpec("sum").fused_with("r", self.BAG_HEAD, ()),
            AlgebraSpec("count"),
        )
        code = compile_aggregation(specs, ENV)
        assert [j for j, _reason in code.fallbacks] == [0]
        assert "FoldCall" in code.fallbacks[0][1]
        assert "_ag_fb0(_ag_x)" in code.source
        assert repr(generated_agg_map(code, RECORDS, _key)) == repr(
            interpreted_agg_map(specs, ENV, RECORDS, _key)
        )

    def test_reserved_names_fall_back(self):
        env = Env({"_ag_k": 5})
        spec = AlgebraSpec("sum").fused_with(
            "r", BinOp("+", Ref("_ag_k"), Attr(Ref("r"), "w")), ()
        )
        code = compile_fold(spec, env)
        assert [j for j, _reason in code.fallbacks] == [0]
        assert repr(code.fold(RECORDS)) == repr(
            spec.make_algebra(env)(RECORDS)
        )
        # A lambda parameter named like the record local would capture
        # the fused variable inside the lambda body.
        shadowing = Lambda(
            ("_ag_x",), BinOp("+", Ref("_ag_x"), Attr(Ref("r"), "w"))
        )
        spec = AlgebraSpec("sum").fused_with(
            "r", Call(shadowing, (Attr(Ref("r"), "w"),)), ()
        )
        code = compile_fold(spec, env)
        assert code.fallbacks == ((0, "not compilable: _ag_x"),)
        assert code.fold(RECORDS) == spec.make_algebra(env)(RECORDS)

    def test_fallback_is_traced(self):
        engine = SparkLikeEngine(
            cluster=ClusterConfig(num_workers=2), execution_mode="serial"
        )
        tracer = engine.enable_tracing()
        spec = AlgebraSpec("sum").fused_with("r", self.BAG_HEAD, ())
        env = {"xs": DataBag(RECORDS), "small": DataBag([1, 2])}
        plan = CAggBy(
            key=ScalarFn(("x",), Attr(Ref("x"), "k")),
            specs=(spec, AlgebraSpec("count")),
            input=CBagRef(name="xs"),
        )
        rows = engine.collect(engine.defer(plan, env))
        expected = interpreted_agg_map(
            plan.specs, Env(env), RECORDS, lambda x: x.k
        )
        assert {r.key: list(r.aggs) for r in rows} == expected
        fold = CFold(spec=spec, input=CBagRef(name="xs"))
        total = engine.run_scalar(fold, env)
        assert total == spec.make_algebra(Env(env))(RECORDS)
        events = [
            e
            for s in tracer.spans()
            for e in s.events
            if e.name == "fold fallback"
        ]
        assert [e.attrs["spec"] for e in events] == ["0:sum", "0:sum"]
        assert all("FoldCall" in e.attrs["reason"] for e in events)
