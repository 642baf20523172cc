"""A dependency-driven partition-task scheduler with real parallelism.

The simulated engines charge *modelled* seconds per partition; this
module is the orthogonal axis the ROADMAP's north star asks for — the
same per-partition work executed **genuinely in parallel** on the host
machine.  A :class:`TaskScheduler` runs the partition tasks of a job
DAG out of order in one of three modes:

* ``serial`` — the default: tasks run inline, in order, in the driver
  process — the same task runners the parallel modes use, with no
  pool, pickling, or speculation.
* ``threads`` — tasks fan out on a ``ThreadPoolExecutor``.  Kernels
  and UDF closures are shared by reference; useful for I/O-bound UDFs
  and as a GIL-bound sanity midpoint between serial and processes.
* ``processes`` — tasks fan out on a shared spawn-context
  ``ProcessPoolExecutor``.  Chain kernels and compiled scalar UDFs
  ship as *source* (IR + bindings — see
  :mod:`repro.engines.chainkernel`), are re-hydrated in the worker and
  memoized per worker process by a content fingerprint, and partitions
  cross the boundary through a small pickle serialization layer with
  byte accounting (``Metrics.ipc_bytes_shipped`` / ``ipc_bytes_returned``).

Three invariants make the parallel modes safe to enable anywhere:

1. **Deterministic merge** — every task is a pure function of its
   payload, and stage results are merged by task index, so outputs are
   bit-identical to serial execution no matter the completion order.
2. **Driver-side accounting** — all simulated-cost charging (and the
   fault injector's ``on_task`` boundary, whose decisions are a pure
   function of the monotone task sequence number) happens in the
   driver *after* a stage returns, in deterministic partition order.
   ``Metrics.simulated_seconds`` and injected fault schedules are
   therefore identical across modes; only wall-clock time changes.
3. **Serial fallback** — any failure of the parallel path (a UDF
   closure capturing an unpicklable object, a broken pool) falls back
   to inline serial execution of the same pure tasks, counted in
   ``Metrics.serial_fallbacks``.  A genuine task error reproduces and
   raises in the serial re-run, so the fallback can never mask a bug.

Straggler robustness: once most of a stage has completed, the slowest
still-running tasks are speculatively re-launched on the pool and the
first result per task index wins (purity makes the duplicate harmless
— the Dremel/Spark "backup task" trick).
"""

from __future__ import annotations

import atexit
import itertools
import os
import pickle
import sys
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.comprehension.exprs import AlgebraSpec, Env
from repro.comprehension.pretty import pretty
from repro.core.databag import DataBag
from repro.core.grp import Grp
from repro.engines.chainkernel import (
    ChainKernel,
    KernelStep,
    VectorKernel,
    build_chain_kernel,
    build_key_kernel,
    build_vector_kernel,
)
from repro.engines.columnar import (
    ColumnBatch,
    ColumnSchema,
    bucket_indices,
    probe_join,
    scatter_batch,
)
from repro.engines.cluster import hash_partition_index, stable_hash
from repro.errors import EngineError
from repro.lowering.combinators import AggResult, ScalarFn

#: the execution modes selectable via ``EmmaConfig(execution_mode=...)``
EXECUTION_MODES = ("serial", "threads", "processes")

_TOKENS = itertools.count()


def default_execution_mode() -> str:
    """The execution mode adopted when a caller names none explicitly.

    The ``REPRO_EXECUTION_MODE`` environment variable overrides the
    built-in ``"serial"`` default, so a whole test suite or CI job can
    run under the parallel backend without touching any call site (the
    ``parallel-backend`` CI job sets it to ``"processes"``).  The value
    is validated downstream by :class:`TaskScheduler`.
    """
    return os.environ.get("REPRO_EXECUTION_MODE", "serial")


def default_max_parallel_tasks() -> int:
    """Concurrent-task width adopted when a caller names none.

    ``REPRO_MAX_PARALLEL_TASKS`` overrides the built-in ``0`` (one slot
    per host CPU core); non-numeric values fail loudly.
    """
    raw = os.environ.get("REPRO_MAX_PARALLEL_TASKS", "0")
    try:
        return int(raw)
    except ValueError:
        raise EngineError(
            f"REPRO_MAX_PARALLEL_TASKS must be an integer, got {raw!r}"
        ) from None


# -- content fingerprints ---------------------------------------------------


def _memo_hash(value: Any) -> int:
    """``stable_hash``, with sets and dicts digested member by member.

    ``stable_hash`` xors set and dict members together, and ints hash
    to themselves, so ``set()``, ``{0}`` and ``{1, 2, 3}`` share one
    value.  That is harmless for partitioning, but a worker-memo key
    that collides serves one spec's artifact to another spec's tasks.
    Here the member hashes are sorted and combined positionally.
    """
    if isinstance(value, (set, frozenset)):
        return stable_hash(("set", sorted(map(stable_hash, value))))
    if isinstance(value, dict):
        return stable_hash(
            ("dict", sorted(map(stable_hash, value.items())))
        )
    return stable_hash(value)


def _value_digest(value: Any) -> tuple | None:
    """A process-independent digest of one captured binding value.

    Returns ``None`` for values with no stable content identity (the
    spec then gets a unique token fingerprint: still memoizable within
    one stage, just not across jobs).  Deliberately never falls back to
    ``repr`` — reprs embedding ``id()`` addresses could collide across
    garbage-collection reuse and alias two different kernels.
    """
    if isinstance(value, type):
        return ("type", value.__module__, value.__qualname__)
    if isinstance(value, DataBag):
        try:
            return ("bag", stable_hash(value.fetch()))
        except EngineError:
            return None
    if callable(value):
        module = getattr(value, "__module__", None)
        qualname = getattr(value, "__qualname__", None)
        if module and qualname and "<locals>" not in qualname:
            return ("fn", module, qualname)
        return None
    try:
        return ("val", _memo_hash(value))
    except EngineError:
        return None


def _bindings_digest(
    bindings: Mapping[str, Any] | None,
) -> tuple | None:
    """Order-independent digest of a name→value closure binding map."""
    if bindings is None:
        return ()
    items = []
    for name in sorted(bindings):
        digest = _value_digest(bindings[name])
        if digest is None:
            return None
        items.append((name, digest))
    return tuple(items)


def _algebra_digest(spec: AlgebraSpec) -> tuple:
    """Structural digest of a symbolic fold algebra."""
    return (
        spec.alias,
        tuple(pretty(a) for a in spec.args),
        pretty(spec.head) if spec.head is not None else None,
        tuple(pretty(g) for g in spec.guards),
        spec.var,
    )


def _token() -> tuple:
    """A driver-unique fingerprint for specs without content identity."""
    return ("token", os.getpid(), next(_TOKENS))


# -- picklable UDF / task specs ---------------------------------------------


@dataclass(frozen=True)
class UdfRef:
    """A scalar UDF as shippable source: parameters, IR body, bindings.

    The compiled closure never travels; :meth:`compile` rebuilds it in
    the receiving process with the same native-vs-interpreter fallback
    the driver used, so both sides run semantically identical code.
    """

    params: tuple[str, ...]
    body: Any
    bindings: dict[str, Any] = field(default_factory=dict)

    def compile(self) -> Callable:
        """Materialize the closure over the shipped bindings."""
        return ScalarFn(tuple(self.params), self.body).compile_native(
            dict(self.bindings)
        )[0]

    def digest(self) -> tuple | None:
        """Content digest, or ``None`` when a binding has no identity."""
        bindings = _bindings_digest(self.bindings)
        if bindings is None:
            return None
        return (tuple(self.params), pretty(self.body), bindings)


class TaskSpec:
    """What a partition task *does* — shared by every task of a stage.

    A spec is picklable and carries a ``fingerprint`` identifying the
    executable artifact it builds (a compiled kernel, a hash table, a
    fold algebra).  Workers memoize built artifacts by fingerprint, so
    a loop that re-runs the same kernel every iteration re-hydrates it
    once per worker process, not once per task.  The driver-side build
    is cached on the spec itself (``_prepared``) and never pickled.
    """

    kind = "abstract"

    def __init__(self, fingerprint: tuple | None = None) -> None:
        self.fingerprint = fingerprint if fingerprint is not None else _token()
        self._prepared: Any = None

    def build(self) -> Any:
        """Construct the executable artifact (subclass hook)."""
        raise NotImplementedError

    def prepared(self) -> Any:
        """The driver-side artifact, built once per spec object."""
        if self._prepared is None:
            self._prepared = self.build()
        return self._prepared

    def __getstate__(self) -> dict[str, Any]:
        """Ship everything except the driver-side built artifact."""
        state = dict(self.__dict__)
        state["_prepared"] = None
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        """Restore; the artifact is rebuilt (or memo-served) on use."""
        self.__dict__.update(state)


class KernelSpec(TaskSpec):
    """Run a fused chain kernel over a partition: ``(rows, counts)``."""

    kind = "kernel"

    def __init__(
        self,
        steps: Sequence[KernelStep],
        prepared: ChainKernel | None = None,
    ) -> None:
        digests = []
        fingerprint: tuple | None = None
        for step in steps:
            if step.body is None:
                digests = None
                break
            bindings = _bindings_digest(step.bindings)
            body = (
                pretty(step.body),
                tuple(step.params),
                bindings,
                step.kind,
                step.extra,
            )
            if bindings is None:
                digests = None
                break
            digests.append(body)
        if digests is not None:
            fingerprint = ("kernel", tuple(digests))
        super().__init__(fingerprint)
        self.steps = tuple(steps)
        if prepared is not None:
            self._prepared = prepared

    def build(self) -> ChainKernel:
        """Regenerate + compile the kernel source from the step IR."""
        return build_chain_kernel(self.steps)


class VectorKernelSpec(TaskSpec):
    """Run a vectorized chain kernel over a :class:`ColumnBatch`.

    The task payload is a whole batch (typed column buffers) instead of
    a row list; the result is ``(out_batch, counts)`` with the counts
    tuple identical in shape and value to the row kernel's, so the
    driver charges both planes through the same accounting path.
    """

    kind = "vkernel"

    def __init__(
        self,
        steps: Sequence[KernelStep],
        schema: ColumnSchema,
        prepared: VectorKernel | None = None,
    ) -> None:
        row_spec = KernelSpec(steps)
        fingerprint: tuple | None = None
        if row_spec.fingerprint[0] != "token":
            fingerprint = (
                "vkernel",
                row_spec.fingerprint,
                schema.signature(),
            )
        super().__init__(fingerprint)
        self.steps = tuple(steps)
        self.schema = schema
        if prepared is not None:
            self._prepared = prepared

    def build(self) -> VectorKernel:
        """Regenerate + compile the vector kernel from the step IR."""
        return build_vector_kernel(self.steps, self.schema)


class AggMapSpec(TaskSpec):
    """Mapper-side partial aggregation, optionally fused with a chain.

    The task streams a partition (through the chain kernel when one is
    fused in) straight into per-key fold-algebra accumulators and
    returns ``(pairs, counts)`` where ``pairs`` is the insertion-ordered
    ``[(key, accumulator_tuple), ...]`` list and ``counts`` the kernel
    counters (``None`` without a fused chain).
    """

    kind = "agg-map"

    def __init__(
        self,
        key: UdfRef,
        specs: Sequence[AlgebraSpec],
        bindings: dict[str, Any],
        steps: Sequence[KernelStep] | None = None,
        prepared: tuple | None = None,
    ) -> None:
        key_digest = key.digest()
        bindings_digest = _bindings_digest(bindings)
        fingerprint: tuple | None = None
        if key_digest is not None and bindings_digest is not None:
            steps_spec = None
            if steps is not None:
                steps_spec = KernelSpec(steps)
                if steps_spec.fingerprint[0] == "token":
                    steps_spec = None
            if steps is None or steps_spec is not None:
                fingerprint = (
                    "agg-map",
                    key_digest,
                    tuple(_algebra_digest(s) for s in specs),
                    bindings_digest,
                    steps_spec.fingerprint if steps_spec else None,
                )
        super().__init__(fingerprint)
        self.key = key
        self.specs = tuple(specs)
        self.bindings = bindings
        self.steps = tuple(steps) if steps is not None else None
        if prepared is not None:
            self._prepared = prepared

    def build(self) -> tuple:
        """(kernel | None, key closure, concrete fold algebras)."""
        kernel = (
            build_chain_kernel(self.steps) if self.steps is not None else None
        )
        key_fn = self.key.compile()
        env = Env.of(self.bindings)
        algebras = [s.make_algebra(env) for s in self.specs]
        return kernel, key_fn, algebras


class AggMergeSpec(TaskSpec):
    """Reducer-side merge of shuffled partial aggregates."""

    kind = "agg-merge"

    def __init__(
        self,
        specs: Sequence[AlgebraSpec],
        bindings: dict[str, Any],
        prepared: tuple | None = None,
    ) -> None:
        bindings_digest = _bindings_digest(bindings)
        fingerprint = None
        if bindings_digest is not None:
            fingerprint = (
                "agg-merge",
                tuple(_algebra_digest(s) for s in specs),
                bindings_digest,
            )
        super().__init__(fingerprint)
        self.specs = tuple(specs)
        self.bindings = bindings
        if prepared is not None:
            self._prepared = prepared

    def build(self) -> tuple:
        """The concrete fold algebras, rebuilt from their symbolic IR."""
        env = Env.of(self.bindings)
        return tuple(s.make_algebra(env) for s in self.specs)


class GroupSpec(TaskSpec):
    """Materialize ``Grp`` records for one shuffled partition."""

    kind = "group"

    def __init__(
        self, key: UdfRef, prepared: Callable | None = None
    ) -> None:
        digest = key.digest()
        super().__init__(
            ("group", digest) if digest is not None else None
        )
        self.key = key
        if prepared is not None:
            self._prepared = prepared

    def build(self) -> Callable:
        """The compiled grouping-key closure."""
        return self.key.compile()


class BucketSpec(TaskSpec):
    """Hash-bucket one partition's records for a shuffle.

    Returns a list of ``num_partitions`` record lists; the driver
    merges buckets across tasks in partition order, reproducing the
    serial shuffle's record order exactly.  The per-record
    ``stable_hash`` is process-independent by construction, so worker
    processes bucket identically to the driver.
    """

    kind = "bucket"

    def __init__(
        self,
        key: UdfRef,
        num_partitions: int,
        prepared: Callable | None = None,
    ) -> None:
        digest = key.digest()
        fingerprint = None
        if digest is not None:
            fingerprint = ("bucket", digest, num_partitions)
        super().__init__(fingerprint)
        self.key = key
        self.num_partitions = num_partitions
        if prepared is not None:
            self._prepared = prepared

    def build(self) -> Callable:
        """The compiled shuffle-key closure."""
        return self.key.compile()


class ColumnarBucketSpec(TaskSpec):
    """Hash-bucket one partition shipped as a :class:`ColumnBatch`.

    The columnar twin of :class:`BucketSpec`: the payload is a typed
    batch instead of a row list, the shuffle key is evaluated as a
    column through a single-step vector kernel, and the result is a
    list of ``num_partitions`` destination *sub-batches* (scattered in
    source order, so the driver's merge reproduces the row shuffle's
    record order exactly).  Bucket assignment is bit-identical to
    ``hash_partition_index`` by construction of
    :func:`~repro.engines.columnar.bucket_indices`.
    """

    kind = "columnar-bucket"

    def __init__(
        self,
        key: UdfRef,
        key_step: KernelStep,
        schema: ColumnSchema,
        num_partitions: int,
        prepared: tuple | None = None,
    ) -> None:
        digest = key.digest()
        fingerprint = None
        if digest is not None:
            fingerprint = (
                "columnar-bucket",
                digest,
                schema.signature(),
                num_partitions,
            )
        super().__init__(fingerprint)
        self.key = key
        self.key_step = key_step
        self.schema = schema
        self.num_partitions = num_partitions
        if prepared is not None:
            self._prepared = prepared

    def build(self) -> tuple:
        """(key vector kernel, destination count)."""
        return (
            build_key_kernel(self.key_step, self.schema),
            self.num_partitions,
        )


class ColumnarGroupSpec(TaskSpec):
    """Materialize ``Grp`` records from one shuffled batch.

    The columnar twin of :class:`GroupSpec`: the payload is the
    partition as a full-width :class:`ColumnBatch`; the worker
    evaluates the grouping key as a column, then groups the
    reconstructed records with run detection (adjacent equal keys skip
    the hash probe — shuffled partitions cluster equal keys when the
    upstream scatter preserved source runs).
    """

    kind = "columnar-group"

    def __init__(
        self,
        key: UdfRef,
        key_step: KernelStep,
        schema: ColumnSchema,
        prepared: tuple | None = None,
    ) -> None:
        digest = key.digest()
        fingerprint = None
        if digest is not None:
            fingerprint = ("columnar-group", digest, schema.signature())
        super().__init__(fingerprint)
        self.key = key
        self.key_step = key_step
        self.schema = schema
        if prepared is not None:
            self._prepared = prepared

    def build(self) -> tuple:
        """(key vector kernel,) — tuple for memo-shape uniformity."""
        return (build_key_kernel(self.key_step, self.schema),)


class ColumnarJoinProbeSpec(TaskSpec):
    """Hash join build/probe over key columns of a partition pair.

    The columnar twin of :class:`JoinProbeSpec`: each side of the
    payload is either a full-width :class:`ColumnBatch` (keys evaluated
    through the side's vector kernel) or a plain row list (that
    partition fell back — keys evaluated through the compiled closure).
    Build and probe orders match the row runner exactly, so the output
    pair order is bit-identical.
    """

    kind = "columnar-join-probe"

    def __init__(
        self,
        kx: UdfRef,
        ky: UdfRef,
        x_step: KernelStep,
        x_schema: ColumnSchema,
        y_step: KernelStep,
        y_schema: ColumnSchema,
        prepared: tuple | None = None,
    ) -> None:
        dx, dy = kx.digest(), ky.digest()
        fingerprint = None
        if dx is not None and dy is not None:
            fingerprint = (
                "columnar-join-probe",
                dx,
                dy,
                x_schema.signature(),
                y_schema.signature(),
            )
        super().__init__(fingerprint)
        self.kx = kx
        self.ky = ky
        self.x_step = x_step
        self.x_schema = x_schema
        self.y_step = y_step
        self.y_schema = y_schema
        if prepared is not None:
            self._prepared = prepared

    def build(self) -> tuple:
        """(kx closure, ky closure, left key kernel, right key kernel)."""
        return (
            self.kx.compile(),
            self.ky.compile(),
            build_key_kernel(self.x_step, self.x_schema),
            build_key_kernel(self.y_step, self.y_schema),
        )


class JoinProbeSpec(TaskSpec):
    """Co-partitioned hash join probe over a ``(left, right)`` pair."""

    kind = "join-probe"

    def __init__(
        self,
        kx: UdfRef,
        ky: UdfRef,
        prepared: tuple | None = None,
    ) -> None:
        dx, dy = kx.digest(), ky.digest()
        fingerprint = None
        if dx is not None and dy is not None:
            fingerprint = ("join-probe", dx, dy)
        super().__init__(fingerprint)
        self.kx = kx
        self.ky = ky
        if prepared is not None:
            self._prepared = prepared

    def build(self) -> tuple:
        """Both compiled key closures."""
        return self.kx.compile(), self.ky.compile()


class BroadcastProbeSpec(TaskSpec):
    """Broadcast hash join probe: the small side rides in the spec.

    Like Spark's broadcast join, each worker builds the hash table
    from the shipped records — once per worker process thanks to the
    fingerprint memo, mirroring a real broadcast variable.
    """

    kind = "broadcast-probe"

    def __init__(
        self,
        records: list[Any],
        key_small: UdfRef,
        key_big: UdfRef,
        small_first: bool,
        prepared: tuple | None = None,
    ) -> None:
        ds, db = key_small.digest(), key_big.digest()
        fingerprint = None
        if ds is not None and db is not None:
            try:
                fingerprint = (
                    "broadcast-probe",
                    ds,
                    db,
                    small_first,
                    stable_hash(records),
                )
            except EngineError:
                fingerprint = None
        super().__init__(fingerprint)
        self.records = records
        self.key_small = key_small
        self.key_big = key_big
        self.small_first = small_first
        if prepared is not None:
            self._prepared = prepared

    def build(self) -> tuple:
        """(hash table over the small side, big-side key closure)."""
        ks = self.key_small.compile()
        table: dict[Any, list[Any]] = {}
        for r in self.records:
            table.setdefault(ks(r), []).append(r)
        return table, self.key_big.compile(), self.small_first


class SemiProbeSpec(TaskSpec):
    """Co-partitioned (anti-)semi-join probe over a partition pair."""

    kind = "semi-probe"

    def __init__(
        self,
        kx: UdfRef,
        ky: UdfRef,
        anti: bool,
        prepared: tuple | None = None,
    ) -> None:
        dx, dy = kx.digest(), ky.digest()
        fingerprint = None
        if dx is not None and dy is not None:
            fingerprint = ("semi-probe", dx, dy, anti)
        super().__init__(fingerprint)
        self.kx = kx
        self.ky = ky
        self.anti = anti
        if prepared is not None:
            self._prepared = prepared

    def build(self) -> tuple:
        """Both compiled key closures plus the anti flag."""
        return self.kx.compile(), self.ky.compile(), self.anti


class BroadcastSemiSpec(TaskSpec):
    """Broadcast (anti-)semi-join filter: key set rides in the spec."""

    kind = "broadcast-semi"

    def __init__(
        self,
        keys: list[Any],
        kx: UdfRef,
        anti: bool,
        prepared: tuple | None = None,
    ) -> None:
        dx = kx.digest()
        fingerprint = None
        if dx is not None:
            try:
                fingerprint = (
                    "broadcast-semi",
                    dx,
                    anti,
                    _memo_hash(set(keys)),
                )
            except (EngineError, TypeError):
                fingerprint = None
        super().__init__(fingerprint)
        self.keys = keys
        self.kx = kx
        self.anti = anti
        if prepared is not None:
            self._prepared = prepared

    def build(self) -> tuple:
        """(key set, probe-side key closure, anti flag)."""
        return set(self.keys), self.kx.compile(), self.anti


class FoldSpec(TaskSpec):
    """Per-partition partial of a structural fold (``algebra(p)``)."""

    kind = "fold"

    def __init__(
        self,
        spec: AlgebraSpec,
        bindings: dict[str, Any],
        prepared: Any | None = None,
    ) -> None:
        bindings_digest = _bindings_digest(bindings)
        fingerprint = None
        if bindings_digest is not None:
            fingerprint = (
                "fold",
                _algebra_digest(spec),
                bindings_digest,
            )
        super().__init__(fingerprint)
        self.spec = spec
        self.bindings = bindings
        if prepared is not None:
            self._prepared = prepared

    def build(self) -> Any:
        """The concrete fold algebra over the shipped bindings."""
        return self.spec.make_algebra(Env.of(self.bindings))


# -- task runners -----------------------------------------------------------


def _run_kernel(kernel: ChainKernel, partition: list[Any]) -> tuple:
    """Stream a partition through a chain kernel; collect the rows."""
    rows: list[Any] = []
    counts = kernel.run(partition, rows.append)
    return rows, counts


def _run_vector_kernel(kernel: VectorKernel, batch: ColumnBatch) -> tuple:
    """Run a vector kernel over one shipped batch: ``(batch, counts)``."""
    return kernel.run_batch(batch)


def _run_agg_map(prepared: tuple, partition: list[Any]) -> tuple:
    """Partial-aggregate a partition (chain-fused when steps shipped)."""
    kernel, key_fn, algebras = prepared
    acc: dict[Any, list[Any]] = {}

    def accumulate(x: Any) -> None:
        k = key_fn(x)
        entry = acc.get(k)
        if entry is None:
            acc[k] = [
                a.union(a.zero(), a.singleton(x)) for a in algebras
            ]
        else:
            for j, a in enumerate(algebras):
                entry[j] = a.union(entry[j], a.singleton(x))

    if kernel is None:
        for x in partition:
            accumulate(x)
        counts = None
    else:
        counts = kernel.run(partition, accumulate)
    return [(k, tuple(v)) for k, v in acc.items()], counts


def _run_agg_merge(algebras: tuple, partition: list[Any]) -> list[Any]:
    """Merge shuffled ``(key, accumulators)`` pairs into results."""
    merged: dict[Any, list[Any]] = {}
    for k, accs in partition:
        entry = merged.get(k)
        if entry is None:
            merged[k] = list(accs)
        else:
            for j, a in enumerate(algebras):
                entry[j] = a.union(entry[j], accs[j])
    return [AggResult(k, tuple(v)) for k, v in merged.items()]


def _run_group(key_fn: Callable, partition: list[Any]) -> list[Any]:
    """Materialize the groups of one shuffled partition."""
    groups: dict[Any, list[Any]] = {}
    for x in partition:
        groups.setdefault(key_fn(x), []).append(x)
    return [Grp(k, DataBag(vs)) for k, vs in groups.items()]


def _run_bucket(key_fn: Callable, task_data: tuple) -> list[list[Any]]:
    """Hash-bucket one partition's records into destination lists."""
    partition, num_partitions = task_data
    buckets: list[list[Any]] = [[] for _ in range(num_partitions)]
    for record in partition:
        buckets[hash_partition_index(key_fn(record), num_partitions)].append(
            record
        )
    return buckets


def _run_columnar_bucket(
    prepared: tuple, batch: ColumnBatch
) -> list[ColumnBatch]:
    """Bucket one shipped batch into destination sub-batches."""
    kernel, num_partitions = prepared
    keys = kernel.run_batch(batch)[0].columns[0]
    dests = bucket_indices(keys, num_partitions)
    return scatter_batch(batch, dests, num_partitions)


#: marks "no previous key yet" in the run-detecting group loop
_NO_KEY = object()


def group_rows_by_keys(rows: list[Any], keys: list[Any]) -> dict:
    """Group records by their precomputed keys, detecting key runs.

    Exactly equivalent to ``groups.setdefault(key_fn(x), []).append(x)``
    over the same sequence — insertion order, value order, and the key
    objects stored in the dict all match — but adjacent equal keys
    append straight to the previous group without re-probing the hash
    table (the run-detection half of the columnar group-by).
    """
    groups: dict[Any, list[Any]] = {}
    last_key: Any = _NO_KEY
    last_list: list[Any] | None = None
    for x, k in zip(rows, keys):
        if last_list is not None and k == last_key:
            last_list.append(x)
            continue
        entry = groups.get(k)
        if entry is None:
            groups[k] = entry = [x]
        else:
            entry.append(x)
        last_key = k
        last_list = entry
    return groups


def _run_columnar_group(prepared: tuple, batch: ColumnBatch) -> list[Any]:
    """Group one shipped batch by its key column."""
    (kernel,) = prepared
    rows = batch.to_records()
    keys = kernel.run_batch(batch)[0].to_records()
    groups = group_rows_by_keys(rows, keys)
    return [Grp(k, DataBag(vs)) for k, vs in groups.items()]


def _side_rows_and_keys(
    side: Any, kernel: Any, key_fn: Callable
) -> tuple[list[Any], list[Any]]:
    """(records, keys) of one join side: batch or row-list payload."""
    if isinstance(side, ColumnBatch):
        return (
            side.to_records(),
            kernel.run_batch(side)[0].columns[0],
        )
    return side, [key_fn(x) for x in side]


def _run_columnar_join_probe(prepared: tuple, task_data: tuple) -> list[Any]:
    """Build-and-probe one pair whose sides may ship as batches."""
    kx, ky, x_kernel, y_kernel = prepared
    lp, rp = task_data
    rrows, rkeys = _side_rows_and_keys(rp, y_kernel, ky)
    lrows, lkeys = _side_rows_and_keys(lp, x_kernel, kx)
    return probe_join(lrows, lkeys, rrows, rkeys)


def _run_join_probe(prepared: tuple, task_data: tuple) -> list[Any]:
    """Build-and-probe one co-partitioned (left, right) pair."""
    kx, ky = prepared
    lp, rp = task_data
    table: dict[Any, list[Any]] = {}
    for r in rp:
        table.setdefault(ky(r), []).append(r)
    rows: list[Any] = []
    for x in lp:
        for m in table.get(kx(x), ()):
            rows.append((x, m))
    return rows


def _run_broadcast_probe(prepared: tuple, partition: list[Any]) -> list[Any]:
    """Probe a big-side partition against the broadcast hash table."""
    table, kb, small_first = prepared
    rows: list[Any] = []
    for x in partition:
        for m in table.get(kb(x), ()):
            rows.append((m, x) if small_first else (x, m))
    return rows


def _run_semi_probe(prepared: tuple, task_data: tuple) -> list[Any]:
    """(Anti-)semi-join one co-partitioned (left, right) pair."""
    kx, ky, anti = prepared
    lp, rp = task_data
    keys = {ky(r) for r in rp}
    if anti:
        return [x for x in lp if kx(x) not in keys]
    return [x for x in lp if kx(x) in keys]


def _run_broadcast_semi(prepared: tuple, partition: list[Any]) -> list[Any]:
    """Filter a partition against the broadcast key set."""
    keys, kx, anti = prepared
    if anti:
        return [x for x in partition if kx(x) not in keys]
    return [x for x in partition if kx(x) in keys]


def _run_fold(algebra: Any, partition: list[Any]) -> Any:
    """One partition's fold partial."""
    return algebra(partition)


_RUNNERS: dict[str, Callable[[Any, Any], Any]] = {
    "kernel": _run_kernel,
    "vkernel": _run_vector_kernel,
    "agg-map": _run_agg_map,
    "agg-merge": _run_agg_merge,
    "group": _run_group,
    "bucket": _run_bucket,
    "columnar-bucket": _run_columnar_bucket,
    "columnar-group": _run_columnar_group,
    "columnar-join-probe": _run_columnar_join_probe,
    "join-probe": _run_join_probe,
    "broadcast-probe": _run_broadcast_probe,
    "semi-probe": _run_semi_probe,
    "broadcast-semi": _run_broadcast_semi,
    "fold": _run_fold,
}


def register_runner(kind: str, runner: Callable[[Any, Any], Any]) -> None:
    """Register a custom task runner (test hook for exotic stages)."""
    _RUNNERS[kind] = runner


# -- tasks and stages -------------------------------------------------------


@dataclass
class PartitionTask:
    """One schedulable unit: a spec applied to one partition's data."""

    index: int
    spec: TaskSpec
    data: Any
    label: str = ""


@dataclass
class TaskStage:
    """A stage of a task graph: a task builder plus its dependencies.

    ``build`` receives the results of every dependency stage (a dict
    ``stage_id -> ordered result list``) and returns this stage's
    tasks — so downstream task *construction* can consume upstream
    results, which is what makes the scheduler dependency-driven
    rather than a flat fan-out.  Stages with disjoint dependencies
    (e.g. the two bucket stages of a repartition join whose sides the
    physical planner marked motion-``required``) have their tasks in
    flight simultaneously.
    """

    stage_id: str
    build: Callable[[dict[str, list[Any]]], list[PartitionTask]]
    deps: tuple[str, ...] = ()


def stage_of(tasks: list[PartitionTask], stage_id: str = "stage") -> TaskStage:
    """Wrap a fixed task list as a single dependency-free stage."""
    return TaskStage(stage_id, lambda _results: tasks)


# -- worker-process side ----------------------------------------------------

#: per-worker-process memo of built artifacts, keyed by spec fingerprint
_WORKER_MEMO: dict[tuple, Any] = {}


def _worker_init(paths: list[str]) -> None:
    """Process-pool initializer: mirror the driver's import path."""
    for p in paths:
        if p not in sys.path:
            sys.path.append(p)


def _prepare_memoized(spec: TaskSpec) -> tuple[Any, bool]:
    """Build (or memo-serve) a spec's artifact in this worker process."""
    key = (spec.kind, spec.fingerprint)
    hit = _WORKER_MEMO.get(key)
    if hit is not None:
        return hit, False
    built = spec.build()
    _WORKER_MEMO[key] = built
    return built, True


def _process_entry(payload: bytes) -> bytes:
    """Worker-side task body: unpickle, rehydrate, run, pickle back.

    Large partition data arrives as a :class:`~repro.engines.spill.
    SpillFileRef` instead of inline bytes (the file-backed shuffle):
    the worker resolves the ref against the shared host filesystem
    before running, so only the small ref ever crosses the pipe.
    """
    from repro.engines.spill import SpillFileRef, load_payload_file

    spec, data = pickle.loads(payload)
    if isinstance(data, SpillFileRef):
        data = load_payload_file(data)
    started = time.perf_counter()
    prepared, rehydrated = _prepare_memoized(spec)
    value = _RUNNERS[spec.kind](prepared, data)
    return pickle.dumps(
        (value, time.perf_counter() - started, rehydrated),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


# -- the shared process pool ------------------------------------------------

_POOL: ProcessPoolExecutor | None = None
_POOL_WIDTH = 0


def _shared_process_pool(width: int) -> ProcessPoolExecutor:
    """The module-wide spawn pool, grown (never shrunk) to ``width``.

    Spawning interpreters is expensive (each worker re-imports the
    package), so one pool is shared across engines, jobs, and tests
    for the life of the driver process.
    """
    global _POOL, _POOL_WIDTH
    if _POOL is not None and _POOL_WIDTH >= width:
        return _POOL
    import multiprocessing

    if _POOL is not None:
        _POOL.shutdown(wait=False, cancel_futures=True)
    _POOL = ProcessPoolExecutor(
        max_workers=width,
        mp_context=multiprocessing.get_context("spawn"),
        initializer=_worker_init,
        initargs=(list(sys.path),),
    )
    _POOL_WIDTH = width
    return _POOL


def _shutdown_pool() -> None:
    """``atexit`` hook: stop the shared pool's worker processes."""
    global _POOL
    if _POOL is not None:
        _POOL.shutdown(wait=False, cancel_futures=True)
        _POOL = None


atexit.register(_shutdown_pool)


# -- serialization layer ----------------------------------------------------


def ship_task(spec: TaskSpec, data: Any, label: str = "") -> bytes:
    """Pickle one task payload, translating failures to EngineError.

    This is the only doorway through which work leaves the driver; a
    UDF that captured an unpicklable object (an open file, a lock, a
    lambda) surfaces here as a clear :class:`EngineError` naming the
    task — never as a raw ``PicklingError`` from deep inside the pool.
    """
    try:
        return pickle.dumps(
            (spec, data), protocol=pickle.HIGHEST_PROTOCOL
        )
    except Exception as exc:
        raise EngineError(
            f"task {label or spec.kind!r} cannot cross a process "
            f"boundary: its kernel/UDF closure or partition data is "
            f"not picklable ({type(exc).__name__}: {exc}); falling "
            f"back to in-process execution"
        ) from exc


# -- the scheduler ----------------------------------------------------------


class TaskScheduler:
    """Executes partition-task graphs in serial/threads/processes mode.

    The public surface is :meth:`run_stage` (one fan-out, results
    merged by task order) and :meth:`run_graph` (dependency-driven
    stages whose ready tasks interleave out of order).  Speculative
    re-execution of stragglers is controlled by the ``speculation*``
    knobs; ``events`` collects (name, attrs) pairs for the tracer.
    """

    def __init__(
        self,
        mode: str = "serial",
        max_parallel_tasks: int = 0,
        speculation: bool = True,
        speculation_quantile: float = 0.75,
        speculation_factor: float = 1.5,
        max_speculative_per_stage: int = 2,
        min_speculation_seconds: float = 0.05,
        spill: Any = None,
    ) -> None:
        if mode not in EXECUTION_MODES:
            raise EngineError(
                f"unknown execution mode {mode!r}: expected one of "
                f"{', '.join(EXECUTION_MODES)}"
            )
        self.mode = mode
        #: concurrent task slots (0 → one per host CPU)
        self.width = max_parallel_tasks or (os.cpu_count() or 1)
        self.speculation = speculation
        #: stage-completion fraction before stragglers are considered
        self.speculation_quantile = speculation_quantile
        #: how much slower than the median a task must be to speculate
        self.speculation_factor = speculation_factor
        self.max_speculative_per_stage = max_speculative_per_stage
        #: floor under which tasks are never worth duplicating
        self.min_speculation_seconds = min_speculation_seconds
        #: (name, attrs) pairs for the engine to drain into its tracer
        self.events: list[tuple[str, dict[str, Any]]] = []
        #: the engine's :class:`~repro.engines.spill.SpillManager` when
        #: a finite memory budget enables the file-backed shuffle —
        #: large processes-mode payloads then travel as spill-file refs
        self.spill = spill
        #: shuffle spill files shipped for the in-flight graph, deleted
        #: when the graph run finishes (speculative copies re-read them)
        self._shipped_refs: list[Any] = []
        self._thread_pool: ThreadPoolExecutor | None = None

    # -- public API --------------------------------------------------------

    def run_stage(
        self, tasks: list[PartitionTask], metrics: Any = None
    ) -> list[Any]:
        """Run one fan-out of tasks; results ordered by task position."""
        return self.run_graph([stage_of(tasks)], metrics=metrics)["stage"]

    def run_graph(
        self, stages: list[TaskStage], metrics: Any = None
    ) -> dict[str, list[Any]]:
        """Run a dependency-driven stage graph; see :class:`TaskStage`."""
        order = self._toposort(stages)
        if self.mode == "serial":
            return self._run_serial(order)
        try:
            return self._run_parallel(order, metrics)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            # Any parallel-path failure — unpicklable closures, a
            # broken pool — degrades to inline serial execution of the
            # same pure tasks.  A genuine task bug reproduces (and
            # raises) in the serial re-run, so nothing is masked.
            if metrics is not None:
                metrics.serial_fallbacks += 1
            self.events.append(
                (
                    "serial-fallback",
                    {
                        "mode": self.mode,
                        "reason": f"{type(exc).__name__}: {exc}"[:300],
                    },
                )
            )
            return self._run_serial(order)
        finally:
            if self._shipped_refs and self.spill is not None:
                for ref in self._shipped_refs:
                    self.spill.delete_ref(ref)
            self._shipped_refs.clear()

    def close(self) -> None:
        """Release the scheduler's thread pool (process pool is shared)."""
        if self._thread_pool is not None:
            self._thread_pool.shutdown(wait=False, cancel_futures=True)
            self._thread_pool = None

    # -- execution paths ---------------------------------------------------

    @staticmethod
    def _toposort(stages: list[TaskStage]) -> list[TaskStage]:
        """Dependency-order the stages; reject unknown/cyclic deps."""
        by_id = {s.stage_id: s for s in stages}
        order: list[TaskStage] = []
        done: set[str] = set()
        pending = deque(stages)
        spins = 0
        while pending:
            stage = pending.popleft()
            missing = [d for d in stage.deps if d not in by_id]
            if missing:
                raise EngineError(
                    f"stage {stage.stage_id!r} depends on unknown "
                    f"stage(s) {missing}"
                )
            if all(d in done for d in stage.deps):
                order.append(stage)
                done.add(stage.stage_id)
                spins = 0
            else:
                pending.append(stage)
                spins += 1
                if spins > len(pending):
                    raise EngineError(
                        "cyclic dependencies in task-stage graph: "
                        + ", ".join(s.stage_id for s in pending)
                    )
        return order

    def _run_serial(
        self, order: list[TaskStage]
    ) -> dict[str, list[Any]]:
        """Inline execution, in order — the zero-overhead reference."""
        results: dict[str, list[Any]] = {}
        for stage in order:
            tasks = stage.build(results)
            results[stage.stage_id] = [
                _RUNNERS[t.spec.kind](t.spec.prepared(), t.data)
                for t in tasks
            ]
        return results

    def _pool(self) -> ThreadPoolExecutor | ProcessPoolExecutor:
        if self.mode == "threads":
            if self._thread_pool is None:
                self._thread_pool = ThreadPoolExecutor(
                    max_workers=self.width,
                    thread_name_prefix="repro-task",
                )
            return self._thread_pool
        return _shared_process_pool(self.width)

    def _submit(
        self,
        pool: ThreadPoolExecutor | ProcessPoolExecutor,
        task: PartitionTask,
        metrics: Any,
    ) -> tuple[Future, bytes | None]:
        """Submit one task; returns the future plus its payload bytes
        (kept for speculative resubmission in processes mode)."""
        if self.mode == "processes":
            if self.spill is not None:
                payload, ref = self.spill.ship_task_payload(
                    task.spec, task.data, task.label
                )
                if ref is not None:
                    self._shipped_refs.append(ref)
                    # Counted once per task at submit (driver-side) so
                    # the metric stays deterministic under speculation.
                    self.spill.count_ref_read(ref)
            else:
                payload = ship_task(task.spec, task.data, task.label)
            if metrics is not None:
                metrics.ipc_bytes_shipped += len(payload)
            return pool.submit(_process_entry, payload), payload
        prepared = task.spec.prepared()
        runner = _RUNNERS[task.spec.kind]
        return pool.submit(runner, prepared, task.data), None

    def _run_parallel(
        self, order: list[TaskStage], metrics: Any
    ) -> dict[str, list[Any]]:
        """Out-of-order execution with speculative straggler re-runs."""
        pool = self._pool()
        results: dict[str, list[Any]] = {}
        collected: dict[str, dict[int, Any]] = {}
        stage_info: dict[str, dict[str, Any]] = {}
        remaining = deque(order)
        launched: set[str] = set()
        #: future -> (stage_id, position, attempt)
        in_flight: dict[Future, tuple[str, int, int]] = {}

        def launch_ready() -> None:
            while remaining and all(
                d in results for d in remaining[0].deps
            ):
                stage = remaining.popleft()
                tasks = stage.build(results)
                launched.add(stage.stage_id)
                collected[stage.stage_id] = {}
                info = {
                    "tasks": tasks,
                    "payloads": {},
                    "started": {},
                    "durations": [],
                    "speculated": set(),
                }
                stage_info[stage.stage_id] = info
                if metrics is not None and tasks:
                    metrics.parallel_stages += 1
                for pos, task in enumerate(tasks):
                    fut, payload = self._submit(pool, task, metrics)
                    in_flight[fut] = (stage.stage_id, pos, 0)
                    info["payloads"][pos] = (payload, task)
                    info["started"][pos] = time.perf_counter()
                    if metrics is not None:
                        metrics.parallel_tasks += 1
                if not tasks:
                    results[stage.stage_id] = []

        def record(stage_id: str, pos: int, attempt: int, fut: Future) -> None:
            info = stage_info[stage_id]
            got = collected[stage_id]
            raw = fut.result()
            if pos in got:
                return  # the other attempt won the race
            if self.mode == "processes":
                if metrics is not None:
                    metrics.ipc_bytes_returned += len(raw)
                value, task_seconds, rehydrated = pickle.loads(raw)
                if rehydrated and metrics is not None:
                    metrics.kernels_rehydrated += 1
            else:
                value, task_seconds = raw, 0.0
            got[pos] = value
            info["durations"].append(
                time.perf_counter() - info["started"][pos]
            )
            info["started"].pop(pos, None)
            if attempt > 0 and metrics is not None:
                metrics.speculative_wins += 1
                self.events.append(
                    (
                        "speculative-win",
                        {"stage": stage_id, "task": pos},
                    )
                )
            if len(got) == len(info["tasks"]):
                results[stage_id] = [
                    got[i] for i in range(len(info["tasks"]))
                ]

        def speculate() -> None:
            if not self.speculation:
                return
            now = time.perf_counter()
            for stage_id, info in stage_info.items():
                if stage_id in results or not info["tasks"]:
                    continue
                total = len(info["tasks"])
                done_n = len(collected[stage_id])
                if done_n < max(1, int(total * self.speculation_quantile)):
                    continue
                if len(info["speculated"]) >= self.max_speculative_per_stage:
                    continue
                durations = sorted(info["durations"])
                median = durations[len(durations) // 2] if durations else 0.0
                threshold = max(
                    self.min_speculation_seconds,
                    median * self.speculation_factor,
                )
                for pos, started in list(info["started"].items()):
                    if pos in info["speculated"]:
                        continue
                    if now - started <= threshold:
                        continue
                    payload, task = info["payloads"][pos]
                    if self.mode == "processes":
                        fut = pool.submit(_process_entry, payload)
                        if metrics is not None:
                            metrics.ipc_bytes_shipped += len(payload)
                    else:
                        fut = pool.submit(
                            _RUNNERS[task.spec.kind],
                            task.spec.prepared(),
                            task.data,
                        )
                    in_flight[fut] = (stage_id, pos, 1)
                    info["speculated"].add(pos)
                    if metrics is not None:
                        metrics.speculative_launches += 1
                    self.events.append(
                        (
                            "speculative-launch",
                            {"stage": stage_id, "task": pos},
                        )
                    )
                    if (
                        len(info["speculated"])
                        >= self.max_speculative_per_stage
                    ):
                        break

        launch_ready()
        while in_flight:
            done, _pending = wait(
                list(in_flight), timeout=0.05, return_when=FIRST_COMPLETED
            )
            for fut in done:
                stage_id, pos, attempt = in_flight.pop(fut)
                record(stage_id, pos, attempt, fut)
            speculate()
            launch_ready()
        launch_ready()
        missing = [s.stage_id for s in order if s.stage_id not in results]
        if missing:
            raise EngineError(
                f"task graph finished with incomplete stages: {missing}"
            )
        return results
