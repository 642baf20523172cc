"""The layer probes of the traced run.

Each probe replaces one public ``repro`` function or method with a
wrapper that records a span (see :mod:`spans`).  A module-level function
is replaced in every loaded ``repro`` module that bound it by name
(``from x import f``), so the call sites see the wrapper.  Probes can be
removed again between ops, which lets one run compare traced and
untraced ops of the same workload.

Two probes reach behind the public surface, because no public function
marks the boundary: ``JobExecutor._exec`` is the one dispatch point
every combinator passes through (span name ``executor.<kind>``; its
``_dag_memo`` tells a memo hit from an execution), and
``JobService._run_cached`` is where a job thread starts work for one
submission (span name ``server.execute``; it also tags the job thread's
spans with the job id).
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import threading
from collections import defaultdict
from typing import Any

from spans import Recorder

#: (span name, module, attribute) of every probed function; an
#: attribute ``Class.method`` names a method
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("frontend.lift", "repro.frontend.lift", "lift_function"),
    ("frontend.run_compiled", "repro.frontend.runtime", "run_compiled"),
    ("optimizer.compile_program", "repro.optimizer.pipeline", "compile_program"),
    ("optimizer.plan_fingerprint", "repro.optimizer.fingerprint", "plan_fingerprint"),
    ("optimizer.snapshot_fingerprint", "repro.optimizer.fingerprint", "snapshot_fingerprint"),
    ("optimizer.inline_single_use", "repro.optimizer.inlining", "inline_single_use"),
    ("optimizer.plan_caching", "repro.optimizer.caching", "plan_caching"),
    ("optimizer.normalize", "repro.comprehension.normalize", "normalize"),
    ("optimizer.fold_group_fusion", "repro.optimizer.fold_group_fusion", "fold_group_fusion"),
    ("lowering.lower", "repro.lowering.rules", "lower"),
    ("optimizer.reorder_operators", "repro.optimizer.reorder", "reorder_operators"),
    ("lowering.chain_operators", "repro.lowering.chaining", "chain_operators"),
    ("optimizer.select_columnar", "repro.optimizer.columnar_select", "select_columnar"),
    ("optimizer.annotate_physical", "repro.optimizer.physical_props", "annotate_physical"),
    ("plancache.lookup_plan", "repro.engines.plancache", "PlanCache.lookup_plan"),
    ("plancache.lookup_result", "repro.engines.plancache", "PlanCache.lookup_result"),
    ("plancache.store_plan", "repro.engines.plancache", "PlanCache.store_plan"),
    ("plancache.store_result", "repro.engines.plancache", "PlanCache.store_result"),
    ("engine.collect", "repro.engines.base", "Engine.collect"),
    ("engine.cache", "repro.engines.base", "Engine.cache"),
    ("stateful.update", "repro.engines.stateful", "DistributedStatefulBag.update"),
    ("stateful.update", "repro.engines.stateful", "DistributedStatefulBag.update_with_messages"),
    ("scheduler.run_graph", "repro.engines.scheduler", "TaskScheduler.run_graph"),
    ("scheduler.ship_task", "repro.engines.scheduler", "ship_task"),
    ("scheduler.wait", "repro.engines.scheduler", "wait"),
    ("chainkernel.build", "repro.engines.chainkernel", "build_chain_kernel"),
    ("chainkernel.build", "repro.engines.chainkernel", "build_vector_kernel"),
    ("chainkernel.build", "repro.engines.chainkernel", "build_key_kernel"),
    ("columnar.build_batch", "repro.engines.columnar", "build_batch"),
    ("columnar.bucket_indices", "repro.engines.columnar", "bucket_indices"),
    ("columnar.scatter_batch", "repro.engines.columnar", "scatter_batch"),
    ("columnar.probe_join", "repro.engines.columnar", "probe_join"),
    ("columnar.concat_batches", "repro.engines.columnar", "concat_batches"),
    ("spill.evict_to_budget", "repro.engines.spill", "SpillManager.evict_to_budget"),
    ("spill.ship_task_payload", "repro.engines.spill", "SpillManager.ship_task_payload"),
    ("sizes.estimate", "repro.engines.sizes", "estimate_record_bytes"),
    ("sizes.estimate", "repro.engines.sizes", "estimate_bag_bytes"),
    ("sizes.estimate", "repro.engines.sizes", "estimate_partitions_bytes"),
    ("sizes.estimate", "repro.engines.sizes", "estimate_column_bytes"),
    ("sizes.estimate", "repro.engines.sizes", "estimate_blocks_bytes"),
    ("sizes.estimate", "repro.engines.sizes", "estimate_batch_bytes"),
)


def combinator_kind(comb: Any) -> str:
    """``CAggBy`` -> ``AggBy``: the combinator's class without its prefix."""
    name = type(comb).__name__
    return name[1:] if name[:1] == "C" and name[1:2].isupper() else name


class Probes:
    """Installs and removes the span wrappers of :data:`TARGETS`."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        #: (span name, op id) -> rows output by that combinator kind
        self.rows: dict[tuple[str, str | None], int] = defaultdict(int)
        self._rows_lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any, Any]] | None = None
        #: service -> its number in :meth:`job_tag` (the services stay
        #: referenced here, so a number is never reused)
        self._services: dict[Any, int] = {}
        self.installed = False

    def _plan(self) -> list[tuple[Any, str, Any, Any]]:
        """Every (owner, attribute, original, wrapper) to swap."""
        # Engines import parts of the package lazily; import it all so
        # every module that binds a probed function is found.
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)
        patches = []
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                patches.append(
                    (owner, method, original, self.recorder.wrap(name, original))
                )
                continue
            original = getattr(module, attr)
            wrapper = self.recorder.wrap(name, original)
            owners = [module]
            if getattr(original, "__module__", "").startswith("repro"):
                owners = [
                    m
                    for m_name, m in sorted(sys.modules.items())
                    if m_name.split(".")[0] == "repro"
                    and getattr(m, "__dict__", None) is not None
                ]
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        patches.append((owner, key, original, wrapper))
        patches.append(self._executor_patch())
        patches.append(self._server_patch())
        return patches

    def _executor_patch(self) -> tuple[Any, str, Any, Any]:
        from repro.engines.executor import JobExecutor

        original = JobExecutor.__dict__["_exec"]
        recorder = self.recorder

        def label(_executor: Any, comb: Any) -> str:
            return "executor." + combinator_kind(comb)

        traced = recorder.wrap(label, original, collapse=False)

        def exec_counting_rows(executor: Any, comb: Any) -> Any:
            # A DAG-memo hit returns a bag already counted when it was
            # built; count each combinator once per execution.
            memo_hit = id(comb) in executor._dag_memo
            bag = traced(executor, comb)
            count = getattr(bag, "count", None)
            if count is not None and not memo_hit:
                with self._rows_lock:
                    self.rows[(label(executor, comb), recorder.op)] += count()
            return bag

        return (JobExecutor, "_exec", original, exec_counting_rows)

    def _server_patch(self) -> tuple[Any, str, Any, Any]:
        from repro.server import JobService

        original = JobService.__dict__["_run_cached"]
        recorder = self.recorder
        traced = recorder.wrap("server.execute", original)

        def run_cached_as_job(service: Any, job: Any, *args: Any, **kwargs: Any) -> Any:
            previous = recorder.op
            recorder.op = self.job_tag(service, job.job_id)
            try:
                return traced(service, job, *args, **kwargs)
            finally:
                recorder.op = previous

        return (JobService, "_run_cached", original, run_cached_as_job)

    def install(self) -> None:
        if self.installed:
            return
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.installed = True

    def uninstall(self) -> None:
        if not self.installed:
            return
        for owner, attr, original, _wrapper in reversed(self._patches or []):
            setattr(owner, attr, original)
        self.installed = False

    def job_tag(self, service: Any, job_id: int) -> str:
        """The op id under which a service job's own spans are recorded.

        Job ids restart in every ``JobService``, so the tag also numbers
        the service.
        """
        number = self._services.setdefault(service, len(self._services))
        return f"job{number}.{job_id}"
