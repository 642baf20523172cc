"""The four benchmark workloads and how one run of each is measured.

Every workload runs on the Spark-like engine with
``ClusterConfig(num_workers=8)`` and ``bench_cost_model()``, with every
``EmmaConfig`` field and engine setting passed explicitly (see
:func:`emma_config`), so no ``REPRO_*`` environment default can change
what is measured.  An *op* is one query run (batch workloads) or one
service request (``service-mix``), always through public API:
``Algorithm.run``, ``JobService.submit``/``JobHandle.result`` and
``compile_program``.

A run has four phases:

1. inputs are generated from the seed (not timed);
2. one timed set-up: DFS staging, lifting the programs from source,
   engine or service construction, the first compile, and one warm-up
   op (which also starts the process pool in processes mode);
3. ops run closed-loop for the requested seconds; between ops (or
   ``service-mix`` rounds) each program is compiled cold
   (``compile_s``), and the set-up is repeated at points spread over
   the window (``setup_s`` is the median of all set-ups), so that one
   stretch of host load cannot set either median; neither counts as
   op time;
4. every distinct output is checked against the ``LocalEngine`` direct
   interpreter (not timed).
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import linecache
import multiprocessing
import os
import random
import resource
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.engines.cluster import ClusterConfig
from repro.engines.dfs import SimulatedDFS
from repro.engines.local import LocalEngine
from repro.engines.plancache import PlanCache
from repro.engines.sparklike import SparkLikeEngine
from repro.experiments.runner import bench_cost_model
from repro.optimizer import pipeline
from repro.optimizer.pipeline import EmmaConfig
from repro.server import JobService
from repro.workloads.graphs import generate_follower_graph
from repro.workloads.tpch.datagen import generate_tpch

import checks
import report

NUM_WORKERS = 8
#: host task slots of the parallel backend; fixed rather than 0 ("one
#: per core") so the measured configuration does not follow the host
MAX_PARALLEL_TASKS = 2
#: seconds a service request may take before it counts as failed
#: (requests normally take well under a second; batch ops have no
#: timeout)
OP_TIMEOUT_S = 30.0


def emma_config(
    execution_mode: str = "serial",
    memory_budget: int = 0,
    columnar: str = "auto",
    columnar_exchange: str = "auto",
) -> EmmaConfig:
    """An ``EmmaConfig`` with every field given, none left to defaults."""
    return EmmaConfig(
        inlining=True,
        unnesting=True,
        fold_group_fusion=True,
        caching=True,
        partition_pulling=True,
        filter_pushdown=True,
        operator_chaining=True,
        physical_planning=True,
        udf_reordering="auto",
        fault_plan=None,
        retry_policy=None,
        checkpoint_interval=0,
        tracing=False,
        columnar=columnar,
        columnar_exchange=columnar_exchange,
        execution_mode=execution_mode,
        max_parallel_tasks=MAX_PARALLEL_TASKS,
        speculative_execution=True,
        memory_budget=memory_budget,
    )


def make_engine(dfs: SimulatedDFS, config: EmmaConfig) -> SparkLikeEngine:
    """A fresh engine whose runtime settings all come from ``config``."""
    return SparkLikeEngine(
        cluster=ClusterConfig(num_workers=NUM_WORKERS),
        cost=bench_cost_model(),
        dfs=dfs,
        time_budget=None,
        fault_plan=config.fault_plan,
        retry_policy=config.retry_policy,
        checkpoint_interval=config.checkpoint_interval,
        execution_mode=config.execution_mode,
        max_parallel_tasks=config.max_parallel_tasks,
        speculative_execution=config.speculative_execution,
        columnar=config.columnar,
        columnar_exchange=config.columnar_exchange,
        memory_budget=config.memory_budget,
    )


def config_record(config: EmmaConfig) -> dict[str, Any]:
    """The effective configuration, for the run's environment record."""
    return {f.name: repr(getattr(config, f.name)) for f in dataclasses.fields(config)}


def relift(module_name: str, name: str) -> Any:
    """Lift a workload program again from its source, as a new driver would.

    Re-executes the decorated definition in a copy of its module's
    namespace, so the new ``Algorithm`` has an empty compile memo and
    captures the same module objects (record classes, formats).
    """
    import importlib

    module = importlib.import_module(module_name)
    source = getattr(module, name).lifted.source
    filename = f"<perfbench {module_name}.{name}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = dict(vars(module))
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


def stop_process_pool() -> None:
    """Stop the engine's shared process pool and wait for its workers.

    The scheduler's own exit hook does not wait; the benchmark must, so
    that each set-up starts a pool and no worker outlives the run.
    """
    from repro.engines import scheduler

    pool = scheduler._POOL
    if pool is not None:
        scheduler._POOL = None
        scheduler._POOL_WIDTH = 0
        pool.shutdown(wait=True, cancel_futures=True)


def _vm_hwm_kb(pid: int | str) -> int | None:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live children."""
    own = _vm_hwm_kb("self")
    if own is None:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    total = own
    for child in multiprocessing.active_children():
        total += _vm_hwm_kb(child.pid) or 0
    return total / 1024


@dataclass
class Op:
    """One timed op."""

    id: str
    key: tuple
    start: float
    end: float
    traced: bool
    ok: bool = True
    error: str = ""
    #: simulated seconds when the op executed (None: served from cache)
    simulated: float | None = None
    #: engine counters of the op, for traced ops
    counters: dict[str, float] = field(default_factory=dict)
    #: service requests: the plan-knob variant, the op id of the job's
    #: own spans (traced ops) and the job's admission stamps
    variant: str = ""
    job_tag: str | None = None
    admitted: tuple[float, float] | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class RunResult:
    setup_s: list[float]
    ops: list[Op]
    timed_s: float
    compile_s: dict[str, list[float]]
    simulated_s: float
    peak_rss_mb: float
    failures: list[str]
    #: plan-cache statistics and bytes over the traced rounds
    cache_stats: dict[str, float] = field(default_factory=dict)
    env: dict[str, Any] = field(default_factory=dict)


def counters_of(metrics: Any) -> dict[str, float]:
    """The engine counters the per-layer report uses."""
    return {name: getattr(metrics, name) for name in report.OP_COUNTERS}


class References:
    """First output per program input, and the checks every op must pass."""

    def __init__(self) -> None:
        self.first: dict[tuple, tuple[str, list]] = {}
        self._lock = threading.Lock()

    def check(self, key: tuple, rows: list) -> str | None:
        """Require repr-identity with the first compiled run of ``key``."""
        text = repr(rows)
        with self._lock:
            first = self.first.setdefault(key, (text, rows))
        if first[0] != text:
            return f"{key}: output differs from the first compiled run"
        return None


class Workload:
    """A workload: its ``name`` and :meth:`run`.  Why each one exists is
    in BENCHMARK.json."""

    name: str

    def run(self, seed: int, seconds: float, probes: Any, workdir: str) -> RunResult:
        raise NotImplementedError


def timed_setup(setup: Callable[[], Any], teardown: Callable[[Any], None], state: Any) -> tuple[Any, float]:
    """Tear ``state`` down (if any), set up afresh; return the new state
    and the seconds the set-up took."""
    if state is not None:
        teardown(state)
    gc.collect()
    started = time.perf_counter()
    state = setup()
    return state, time.perf_counter() - started


def compile_samples(
    programs: list[tuple[str, Any, EmmaConfig]], into: dict[str, list[float]]
) -> float:
    """One cold ``compile_program`` call per program, bypassing every
    plan memo; appends each duration to ``into`` and returns their sum.

    Runs between ops, so the samples spread over the whole timed
    window rather than one stretch of host load.
    """
    total = 0.0
    for label, algorithm, config in programs:
        started = time.perf_counter()
        pipeline.compile_program(algorithm.lifted.program, config)
        elapsed = time.perf_counter() - started
        into.setdefault(label, []).append(elapsed)
        total += elapsed
    return total


def _oracle_failures(
    refs: References,
    ops: list[Op],
    dfs: SimulatedDFS,
    oracle_of: Callable[[tuple], tuple[Any, dict]],
) -> list[str]:
    """Check each distinct output against the direct interpreter.

    Every op's output is repr-identical to its key's first output (see
    :class:`References`), so checking the first one decides them all;
    a wrong first output fails every op of its key.
    """
    failures: list[str] = []
    engine = LocalEngine()
    engine.dfs = dfs
    expected: dict[tuple, list] = {}
    for key, (_text, rows) in sorted(refs.first.items(), key=lambda kv: repr(kv[0])):
        algorithm, params = oracle_of(key)
        oracle_key = (algorithm.name, tuple(sorted(params.items())))
        if oracle_key not in expected:
            expected[oracle_key] = checks.rows_of(algorithm.run(engine, **params))
        problem = checks.compare_multisets(rows, expected[oracle_key])
        if problem is None:
            continue
        failures.append(f"{key}: {problem}")
        for op in ops:
            if op.key == key and op.ok:
                op.ok = False
                op.error = "oracle mismatch"
    return failures


# -- batch workloads: one closed-loop client, a fresh engine per op ----------


@dataclass
class BatchWorkload(Workload):
    name: str
    module: str
    program: str
    execution_mode: str
    memory_budget: int
    make_inputs: Callable[[int], tuple[dict[str, list], dict[str, Any]]]
    #: timed set-ups per run: one before the ops, the rest spread evenly
    #: over the timed window
    setups: int = 5

    def run(self, seed: int, seconds: float, probes: Any, workdir: str) -> RunResult:
        files, params = self.make_inputs(seed)
        config = emma_config(self.execution_mode, self.memory_budget)
        refs = References()
        key = (self.program, tuple(sorted(params.items())))
        setup_failures: list[str] = []

        def one_op(algorithm: Any, dfs: SimulatedDFS) -> tuple[list, float, dict]:
            engine = make_engine(dfs, config)
            rows = checks.rows_of(algorithm.run(engine, config=config, **params))
            return rows, engine.metrics.simulated_seconds, counters_of(engine.metrics)

        def setup() -> tuple[Any, SimulatedDFS]:
            dfs = SimulatedDFS()
            for path, records in files.items():
                dfs.put(path, records)
            algorithm = relift(self.module, self.program)
            algorithm.compiled(config)
            rows, _sim, _counters = one_op(algorithm, dfs)
            problem = refs.check(key, rows)
            if problem:
                setup_failures.append(f"warm-up: {problem}")
            return algorithm, dfs

        if probes is not None:
            probes.install()
        try:
            # In processes mode the set-up's warm-up op starts the pool;
            # stopping it first makes every set-up include that start.
            state, first = timed_setup(setup, lambda _state: stop_process_pool(), None)
            setup_times = [first]
            compile_s: dict[str, list[float]] = {}

            def between(elapsed: float) -> float:
                """Compile samples after every op, and a set-up when one
                is due; returns the seconds spent."""
                nonlocal state
                programs = [(self.program, state[0], config)]
                spent = compile_samples(programs, compile_s)
                if len(setup_times) < self.setups and elapsed >= len(setup_times) * seconds / self.setups:
                    if probes is not None:
                        probes.install()
                    started = time.perf_counter()
                    state, took = timed_setup(setup, lambda _state: stop_process_pool(), state)
                    setup_times.append(took)
                    spent += time.perf_counter() - started
                return spent

            started = time.perf_counter()
            ops, between_s = self._timed_ops(
                seconds,
                probes,
                lambda: one_op(*state),
                between,
                lambda: len(setup_times) < self.setups,
                refs,
                key,
            )
            timed_s = time.perf_counter() - started - between_s
            rss = peak_rss_mb()
        finally:
            if probes is not None:
                probes.uninstall()
            stop_process_pool()
        algorithm, dfs = state
        failures = setup_failures + _oracle_failures(
            refs, ops, dfs, lambda k: (algorithm, dict(k[1]))
        )
        failures += [f"{op.id}: {op.error}" for op in ops if not op.ok]
        simulated = [op.simulated for op in ops if op.simulated is not None]
        return RunResult(
            setup_s=setup_times,
            ops=ops,
            timed_s=timed_s,
            compile_s=compile_s,
            simulated_s=sum(simulated) / len(simulated) if simulated else float("nan"),
            peak_rss_mb=rss,
            failures=failures,
            env={"config": config_record(config), "params": repr(params)},
        )

    @staticmethod
    def _timed_ops(
        seconds: float,
        probes: Any,
        op: Callable[[], tuple[list, float, dict]],
        between: Callable[[float], float],
        pending: Callable[[], bool],
        refs: References,
        key: tuple,
    ) -> tuple[list[Op], float]:
        """Closed loop for ``seconds``; a traced run alternates traced ops.

        ``between`` runs after each op, with the seconds elapsed since
        the loop started; the seconds it reports are returned so they
        can be left out of the op throughput.  The loop also goes on
        while ``pending()`` says set-ups are still due.
        """
        ops: list[Op] = []
        between_s = 0.0
        started = time.perf_counter()
        deadline = started + seconds
        min_ops = 2 if probes is not None else 1
        while len(ops) < min_ops or time.perf_counter() < deadline or pending():
            traced = probes is not None and len(ops) % 2 == 1
            if probes is not None:
                (probes.install if traced else probes.uninstall)()
                probes.recorder.op = f"op{len(ops)}"
            record = Op(id=f"op{len(ops)}", key=key, start=0.0, end=0.0, traced=traced)
            record.start = time.perf_counter()
            try:
                rows, simulated, counters = op()
            except Exception as exc:  # noqa: BLE001 - a failed op is counted
                record.end = time.perf_counter()
                record.ok, record.error = False, f"{type(exc).__name__}: {exc}"
            else:
                record.end = time.perf_counter()
                record.simulated = simulated
                record.counters = counters if traced else {}
                problem = refs.check(key, rows)
                if problem:
                    record.ok, record.error = False, problem
            ops.append(record)
            if probes is not None:
                probes.recorder.op = None
            between_s += between(time.perf_counter() - started)
        return ops, between_s


def _tpch_inputs(sf: float, q1: bool) -> Callable[[int], tuple[dict[str, list], dict[str, Any]]]:
    def make(seed: int) -> tuple[dict[str, list], dict[str, Any]]:
        orders, lineitems = generate_tpch(sf, seed=seed)
        if q1:
            params = {"lineitem_path": "data/tpch/lineitem", "ship_date_max": "1998-09-02"}
            return {"data/tpch/lineitem": lineitems}, params
        params = {
            "orders_path": "data/tpch/orders",
            "lineitem_path": "data/tpch/lineitem",
            "date_min": "1993-07-01",
            "date_max": "1993-10-01",
        }
        return {"data/tpch/orders": orders, "data/tpch/lineitem": lineitems}, params

    return make


#: TPC-H scale factor of the batch queries (1 500 orders, ~6 000
#: lineitems per unit; the direct-interpreter oracle of Q4 grows with
#: the square of the input, which bounds the size)
TPCH_SF = 2.0
#: PageRank graph size, iterations and driver budget (the budget is
#: set so that partitions spill at this size)
PAGERANK_VERTICES = 400
PAGERANK_ITERATIONS = 5
PAGERANK_BUDGET = 65536


def _pagerank_inputs(seed: int) -> tuple[dict[str, list], dict[str, Any]]:
    graph = generate_follower_graph(PAGERANK_VERTICES, 3, seed=seed)
    params = {
        "graph_path": "data/graph",
        "num_pages": PAGERANK_VERTICES,
        "max_iterations": PAGERANK_ITERATIONS,
    }
    return {"data/graph": graph}, params


# -- service-mix: a running JobService fed by closed-loop client threads -----

#: service inputs (small, so cache and compile work dominates)
SERVICE_SF = 0.5
SERVICE_VERTICES = 400
SERVICE_CLIENTS = 2
#: requests each client sends per round; with the 30 distinct requests
#: below, a round's result hit share is 1 - 30/600 = 95%.  At an 82%
#: share executions run most of the time, hits queue behind them for
#: the GIL, and the median latency swings between about 2.5 and 7 ms
#: with host load; see README.md
SERVICE_REQUESTS = 300
#: cold compiles of each program after each round
COMPILES_BETWEEN_ROUNDS = 3
SERVICE_PROGRAMS = {
    "tpch_q1": ("repro.workloads.tpch.q1", "tpch_q1"),
    "tpch_q4": ("repro.workloads.tpch.q4", "tpch_q4"),
    "tpch_q4_udf": ("repro.workloads.tpch.q4", "tpch_q4_udf"),
    "pagerank": ("repro.workloads.pagerank", "pagerank"),
}
Q1_DATES = ("1998-06-01", "1998-07-01", "1998-08-01", "1998-09-02")
Q4_WINDOWS = (
    ("1993-01-01", "1993-04-01"),
    ("1993-07-01", "1993-10-01"),
    ("1994-01-01", "1994-04-01"),
    ("1995-04-01", "1995-07-01"),
)
PAGERANK_SERVICE_ITERATIONS = (1, 2, 3)
#: plan-knob variants a request carries; each one compiles its own plan
VARIANTS = {
    "auto": emma_config(),
    "row": emma_config(columnar="off", columnar_exchange="off"),
}
#: the set-up's warm-up request uses a variant and date no round sends,
#: so every round starts with the same cold caches
WARMUP_CONFIG = emma_config(columnar_exchange="off")
WARMUP_PARAMS = {"lineitem_path": "data/tpch/lineitem", "ship_date_max": "1998-05-01"}


def _service_params() -> dict[str, list[tuple]]:
    """Every parameter set each program is requested with."""
    orders, lineitem = "data/tpch/orders", "data/tpch/lineitem"
    q4 = [
        (("date_max", hi), ("date_min", lo), ("lineitem_path", lineitem), ("orders_path", orders))
        for lo, hi in Q4_WINDOWS
    ]
    return {
        "tpch_q1": [(("lineitem_path", lineitem), ("ship_date_max", d)) for d in Q1_DATES],
        "tpch_q4": q4,
        "tpch_q4_udf": q4,
        "pagerank": [
            (("graph_path", "data/graph"), ("max_iterations", n), ("num_pages", SERVICE_VERTICES))
            for n in PAGERANK_SERVICE_ITERATIONS
        ],
    }


def service_universe() -> list[tuple[str, tuple, str]]:
    """Every distinct request: (program, params, variant)."""
    return [
        (program, items, variant)
        for program, sets in _service_params().items()
        for items in sets
        for variant in VARIANTS
    ]


def service_sequences(seed: int, round_index: int) -> list[list[tuple[str, tuple, str]]]:
    """Each client's requests for one round: (program, params, variant).

    Every distinct request appears at least once per round (so each
    round executes the same set of cache misses); the rest are uniform
    draws from the distinct requests.  The order is a seeded shuffle,
    new in every round.
    """
    rng = random.Random(f"service-mix/{seed}/{round_index}")
    universe = service_universe()
    rng.shuffle(universe)
    sequences = []
    for client in range(SERVICE_CLIENTS):
        mine = universe[client::SERVICE_CLIENTS]
        mine += rng.choices(universe, k=SERVICE_REQUESTS - len(mine))
        rng.shuffle(mine)
        sequences.append(mine)
    return sequences


def pin_to_one_cpu() -> int | None:
    """Pin this process, and the threads it starts later, to one CPU.

    The service's threads share one GIL, so one CPU runs them all.  On
    two CPUs a GIL hand-off between the client, admission and job
    threads can cross CPUs, and then its cost follows how busy the other
    CPU is (on a 2-vCPU host a cache hit took 1.8-2.5 ms that way and
    1.0-1.3 ms pinned).
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class ServiceWorkload(Workload):
    """Rounds of requests; each round starts with a timed set-up of a
    fresh service, cache and programs, so the set-up samples spread over
    the whole run."""

    name = "service-mix"

    def run(self, seed: int, seconds: float, probes: Any, workdir: str) -> RunResult:
        pinned_cpu = pin_to_one_cpu()
        orders, lineitems = generate_tpch(SERVICE_SF, seed=seed)
        files = {
            "data/tpch/orders": orders,
            "data/tpch/lineitem": lineitems,
            "data/graph": generate_follower_graph(SERVICE_VERTICES, 3, seed=seed),
        }
        refs = References()
        setup_failures: list[str] = []
        cache_dirs = (os.path.join(workdir, f"plancache-{i}") for i in itertools.count())

        def factory(dfs: SimulatedDFS) -> SparkLikeEngine:
            return make_engine(dfs, VARIANTS["auto"])

        def setup() -> tuple[JobService, dict[str, Any], SimulatedDFS]:
            dfs = SimulatedDFS()
            for path, records in files.items():
                dfs.put(path, records)
            algorithms = {p: relift(m, n) for p, (m, n) in SERVICE_PROGRAMS.items()}
            service = JobService(
                factory,
                dfs=dfs,
                cache=PlanCache(cache_dir=next(cache_dirs), memory_limit=0),
                max_concurrent=2,
                default_quota=2,
                quotas=None,
            )
            handle = service.submit(
                algorithms["tpch_q1"], WARMUP_PARAMS, tenant="warm-up", config=WARMUP_CONFIG
            )
            rows = checks.rows_of(handle.result(timeout=OP_TIMEOUT_S))
            problem = refs.check(("tpch_q1", tuple(sorted(WARMUP_PARAMS.items()))), rows)
            if problem:
                setup_failures.append(f"warm-up: {problem}")
            return service, algorithms, dfs

        ops: list[Op] = []
        timed_s = 0.0
        first_runs: list[float] = []
        cache_stats: dict[str, float] = {}
        compile_s: dict[str, list[float]] = {}
        setup_times: list[float] = []
        state = None
        try:
            deadline = None
            rounds = 0
            min_rounds = 2 if probes is not None else 1
            while rounds < min_rounds or time.perf_counter() < deadline:
                if probes is not None:
                    probes.install()
                state, took = timed_setup(setup, lambda old: old[0].shutdown(), state)
                setup_times.append(took)
                if deadline is None:
                    deadline = time.perf_counter() + seconds
                service, algorithms, dfs = state
                traced = probes is not None and rounds % 2 == 1
                if probes is not None:
                    (probes.install if traced else probes.uninstall)()
                sequences = service_sequences(seed, rounds)
                round_ops = self._round(rounds, service, algorithms, sequences, refs, probes, traced)
                ops += round_ops
                timed_s += max(op.end for op in round_ops) - min(op.start for op in round_ops)
                executed: dict[tuple, float] = {}
                for op in sorted(round_ops, key=lambda o: o.start):
                    if op.simulated is not None:
                        executed.setdefault((op.key, op.variant), op.simulated)
                first_runs += executed.values()
                if traced:
                    _add_cache_stats(cache_stats, service.cache)
                programs = [(p, algorithms[p], VARIANTS["auto"]) for p in SERVICE_PROGRAMS]
                for _ in range(COMPILES_BETWEEN_ROUNDS):
                    compile_samples(programs, compile_s)
                rounds += 1
            rss = peak_rss_mb()
        finally:
            if state is not None:
                state[0].shutdown()
            if probes is not None:
                probes.uninstall()

        def oracle_of(key: tuple) -> tuple[Any, dict]:
            # Q4-UDF is Q4 with black-box selections (same result
            # multiset); its own direct run interprets the full
            # orders x lineitem cross product, far too slow to repeat.
            program = "tpch_q4" if key[0] == "tpch_q4_udf" else key[0]
            return algorithms[program], dict(key[1])

        failures = setup_failures + _oracle_failures(refs, ops, dfs, oracle_of)
        failures += [f"{op.id}: {op.error}" for op in ops if not op.ok]
        hits = sum(1 for op in ops if op.ok and op.simulated is None)
        return RunResult(
            setup_s=setup_times,
            ops=ops,
            timed_s=timed_s,
            compile_s=compile_s,
            simulated_s=sum(first_runs) / len(first_runs),
            peak_rss_mb=rss,
            failures=failures,
            cache_stats=cache_stats,
            env={
                "config": {v: config_record(c) for v, c in VARIANTS.items()},
                "requests_per_round": SERVICE_CLIENTS * SERVICE_REQUESTS,
                "result_hit_share": round(hits / len(ops), 4),
                "pinned_cpu": pinned_cpu,
            },
        )

    @staticmethod
    def _round(
        index: int,
        service: JobService,
        algorithms: dict[str, Any],
        sequences: list[list[tuple[str, tuple, str]]],
        refs: References,
        probes: Any,
        traced: bool,
    ) -> list[Op]:
        per_client: list[list[Op]] = [[] for _ in sequences]

        def client(c: int) -> None:
            for n, (program, items, variant) in enumerate(sequences[c]):
                op_id = f"r{index}c{c}n{n}"
                if probes is not None:
                    probes.recorder.op = op_id if traced else None
                record = Op(
                    id=op_id, key=(program, items), start=0.0, end=0.0, traced=traced, variant=variant
                )
                record.start = time.perf_counter()
                try:
                    handle = service.submit(
                        algorithms[program], dict(items), tenant=f"client{c}", config=VARIANTS[variant]
                    )
                    value = handle.result(timeout=OP_TIMEOUT_S)
                    rows = checks.rows_of(value)
                except Exception as exc:  # noqa: BLE001 - a failed op is counted
                    record.end = time.perf_counter()
                    record.ok, record.error = False, f"{type(exc).__name__}: {exc}"
                else:
                    record.end = time.perf_counter()
                    record.admitted = (handle.submitted_at, handle.admitted_at)
                    if not handle.served_from_cache:
                        record.simulated = handle.metrics.simulated_seconds
                    if traced:
                        record.counters = counters_of(handle.metrics)
                        record.job_tag = probes.job_tag(service, handle.job_id)
                    problem = refs.check(record.key, rows)
                    if problem:
                        record.ok, record.error = False, problem
                per_client[c].append(record)

        threads = [
            threading.Thread(target=client, args=(c,), name=f"perfbench-client{c}")
            for c in range(len(sequences))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(OP_TIMEOUT_S * len(sequences[0]))
            if thread.is_alive():
                raise RuntimeError(f"{thread.name} did not finish")
        return [op for ops in per_client for op in ops]


def _add_cache_stats(total: dict[str, float], cache: PlanCache) -> None:
    stats = cache.stats
    written = sum(
        entry.stat().st_size for entry in os.scandir(cache.cache_dir) if entry.is_file()
    )
    for name, value in (
        ("plan_hits", stats.plan_hits),
        ("plan_misses", stats.plan_misses),
        ("result_hits", stats.result_hits),
        ("result_misses", stats.result_misses),
        ("bytes_written", written),
    ):
        total[name] = total.get(name, 0) + value


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        BatchWorkload(
            name="tpch-q1",
            module="repro.workloads.tpch.q1",
            program="tpch_q1",
            execution_mode="serial",
            memory_budget=0,
            make_inputs=_tpch_inputs(TPCH_SF, q1=True),
        ),
        BatchWorkload(
            name="tpch-q4",
            module="repro.workloads.tpch.q4",
            program="tpch_q4",
            execution_mode="serial",
            memory_budget=0,
            make_inputs=_tpch_inputs(TPCH_SF, q1=False),
        ),
        BatchWorkload(
            name="pagerank-pool",
            module="repro.workloads.pagerank",
            program="pagerank",
            execution_mode="processes",
            memory_budget=PAGERANK_BUDGET,
            make_inputs=_pagerank_inputs,
        ),
        ServiceWorkload(),
    )
}
