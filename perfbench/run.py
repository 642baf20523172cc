"""Run one workload of the host-time benchmark and print its metrics.

Run from the repository root::

    python3 perfbench/run.py --workload tpch-q1 --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer
metrics instead and writes every span to
``.perfbench/spans-<workload>-seed<n>.jsonl``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

import checks

WORKLOAD_NAMES = ("tpch-q1", "tpch-q4", "pagerank-pool", "service-mix")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def clear_repro_environment() -> list[str]:
    """Remove every ``REPRO_*`` variable; they set engine defaults.

    The benchmark passes every setting explicitly, and clearing the
    variables also keeps them from the process pool's workers and from
    ``default_plan_cache()``, which would otherwise serve batch ops
    from a result cache.
    """
    names = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in names:
        del os.environ[name]
    return names


def environment(cleared: list[str]) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cleared_env": cleared,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro package under {src}; run from the repository root",
            file=sys.stderr,
        )
        return 2
    cleared = clear_repro_environment()
    sys.path.insert(0, str(src))
    out_dir = root / ".perfbench"
    workdir = out_dir / f"run-{os.getpid()}"
    temp_dir = workdir / "tmp"
    temp_dir.mkdir(parents=True)
    # Spill files, plan caches and temp dirs stay inside the checkout;
    # pool workers inherit the variable.
    os.environ["TMPDIR"] = str(temp_dir)
    tempfile.tempdir = str(temp_dir)
    try:
        import report
        import scenarios

        workload = scenarios.WORKLOADS[args.workload]
        recorder = probes = None
        if args.trace:
            from layers import Probes
            from spans import Recorder

            recorder = Recorder()
            probes = Probes(recorder)
        result = workload.run(args.seed, args.seconds, probes, str(workdir))
        if args.trace:
            metrics = report.per_layer(result, recorder, probes.rows)
            units = report.per_layer_units()
            spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            recorder.write_jsonl(str(spans_path))
        else:
            metrics = report.end_to_end(result)
            units = report.END_TO_END
    finally:
        if "scenarios" in sys.modules:
            sys.modules["scenarios"].stop_process_pool()
        # The spawn-mode pool starts multiprocessing's resource tracker;
        # stop it too, and wait for it, so no process outlives the run.
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for op in result.ops if not op.ok)
    env = environment(cleared)
    env.update(result.env)
    print(
        f"# perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}"
    )
    print("# env " + json.dumps(env, sort_keys=True))
    for problem in result.failures[:20]:
        print(f"# failure: {problem}")
    latencies = [op.seconds for op in result.ops]
    p95 = checks.percentile(latencies, 95)
    print(
        f"# ops={len(result.ops)} failed={failed} "
        f"ops_failed_frac={failed / len(result.ops):.4f} "
        f"op_s_p95={'n/a (fewer than 200 ops)' if p95 is None else f'{p95:.6f}'}"
    )
    if args.trace:
        print(f"# spans written to {spans_path.relative_to(root)}")
    for name, unit in units.items():
        print(f"{name:<40} {metrics[name]:>16.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0 and not result.failures,
                "attempted": len(result.ops),
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
