"""End-to-end and per-layer benchmark of the repro simulator.

Run from the repository root::

    python3 perfbench/run.py --workload swf_stream --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

One invocation sets up one workload, then repeats its timed run, cold
each time, until ``--seconds`` have passed.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced runs and reports the per-layer metrics.  Human-
readable lines come first; the last line of standard output is one JSON
object (``correct``, ``attempted``, ``failed``, ``metrics``).
``--workload all`` runs every workload both ways, each in its own
process.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

#: Set-up time counts from here, before the imports it includes.
_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("swf_stream", "policy_sweep", "migration_cba")
#: Preparations per run; set-up time reports their median.
SETUP_REPEATS = 3
#: Fresh interpreters that time the imports again; set-up time takes
#: the median of their import times and this process's own.
IMPORT_PROBES = 2
#: What a probe runs: the imports this process makes before it is ready.
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import sys; "
    "sys.path[:0] = sys.argv[1:]; import perfbench.tracing, perfbench.workloads; "
    "print(time.perf_counter() - start)"
)

#: Per-layer metrics and their units, in report order.  ``_s`` values
#: are self times summed over the parent and its pool workers, except
#: ``sweep.task_s`` (inclusive ``run_task`` time summed over workers).
LAYER_UNITS = {
    "swf.ingest_s": "s",
    "swf.records": "count",
    "swf.chunks": "count",
    "workload.generate_s": "s",
    "workload.jobs": "count",
    "pricing.quote_build_s": "s",
    "pricing.quote_rows": "count",
    "pricing.quote_builds": "count",
    "pricing.settle_s": "s",
    "pricing.settle_rows": "count",
    "pricing.shards_built": "count",
    "pricing.shards_peak_live": "count",
    "methods.charge_many_s": "s",
    "methods.charge_many_calls": "count",
    "methods.charge_many_rows": "count",
    "methods.probe_calls": "count",
    "events.pops": "count",
    "cluster.startable_calls": "count",
    "cluster.jobs_started": "count",
    "cluster.wait_estimates": "count",
    "policies.select_calls": "count",
    "engine.loop_s": "s",
    "migration.loop_s": "s",
    "migration.segments": "count",
    "migration.moves": "count",
    "migration.multi_tick_batches": "count",
    "migration.multi_tick_ticks": "count",
    "spill.append_s": "s",
    "spill.blocks": "count",
    "spill.bytes": "B",
    "sweep.wait_s": "s",
    "sweep.task_s": "s",
    "sweep.transport_s": "s",
    "sweep.transport_bytes": "B",
    "sweep.cache_hits": "count",
    "sweep.cache_misses": "count",
    "sweep.pool_idle_frac": "ratio",
    "store.put_s": "s",
    "store.get_s": "s",
    "store.hits": "count",
    "store.misses": "count",
    "other_s": "s",
}


class Run:
    """One timed run of a workload, plus what its checks found."""

    def __init__(
        self, traced: bool, wall_s: float, inspection: Any, trace: Any
    ) -> None:
        self.traced = traced
        self.wall_s = wall_s
        self.inspection = inspection
        #: Merged per-layer totals of a traced run (None when untraced).
        self.trace = trace
        self.failed_ops = {op for op, found in inspection.problems.items() if found}

    @property
    def attempted(self) -> int:
        return len(self.inspection.problems)


def timed_run(workload: Any, tracer: Any, traced: bool) -> Run:
    """One cold run; a run that raises fails all of its operations."""
    from perfbench import tracing
    from perfbench.workloads import cold_start, raised

    cold_start()
    gc.collect()
    if traced:
        instrumentation = tracing.Instrumentation(tracer).install()
        tracer.clear()
        tracer.enter("other")
    start = time.perf_counter()
    try:
        out = workload.run()
    except Exception as exc:
        out = exc
    wall_s = time.perf_counter() - start
    if traced:
        tracer.exit()
        instrumentation.restore()
    if not isinstance(out, Exception):
        try:
            inspection = workload.inspect(out)
        except Exception as exc:
            out = exc
    if isinstance(out, Exception):
        print(f"{workload.name}: run raised {out!r}")
        inspection = raised(workload.operations(), out)
    if not traced:
        return Run(False, wall_s, inspection, None)
    records = [tracer.snapshot(), *tracing.collect(tracer.flush_dir)]
    merged = tracing.merge(records)
    merged["additive"] = all(tracing.additive(r) for r in records)
    return Run(True, records[0]["root_s"], inspection, merged)


def layer_values(run: Run, workers: int) -> dict[str, float]:
    """The per-layer metrics of one traced run."""
    self_s = run.trace["self_s"]
    counts = {**run.trace["counts"], **run.inspection.counts}
    out = {
        name: self_s.get(name[:-2], 0.0) if unit == "s" else counts.get(name, 0)
        for name, unit in LAYER_UNITS.items()
    }
    task_s = run.trace["total_s"].get("sweep.task", 0.0)
    out["sweep.task_s"] = task_s
    if task_s:
        out["sweep.pool_idle_frac"] = 1.0 - task_s / (workers * run.wall_s)
    segments = counts.get("migration.segments", 0)
    out["migration.moves"] = segments - run.inspection.jobs if segments else 0
    return out


def measure(workload: Any, seconds: float, trace: bool, tracer: Any) -> list[Run]:
    """Repeat cold timed runs until ``seconds`` have passed.

    Traced mode starts untraced, traced, traced (the minimum for the
    overhead and count-determinism checks), then alternates.
    """
    plan = [False, True, True] if trace else [False]
    runs: list[Run] = []
    deadline = time.perf_counter() + seconds
    while len(runs) < len(plan) or time.perf_counter() < deadline:
        if len(runs) < len(plan):
            traced = plan[len(runs)]
        else:
            traced = trace and not runs[-1].traced
        runs.append(timed_run(workload, tracer, traced))
    return runs


def check_digests(name: str, seed: int, runs: list[Run]) -> None:
    """Fail operations whose digest differs from the pin or, in a traced
    run, from the first untraced run's."""
    from perfbench.workloads import pinned_digests

    pinned = pinned_digests(name, seed)
    reference = next(r for r in runs if not r.traced).inspection.digests
    for run in runs:
        for op, digest in run.inspection.digests.items():
            if pinned and pinned.get(op) != digest:
                run.failed_ops.add(op)
                print(f"{name}: {op} digest differs from the pin for seed {seed}")
            if run.traced and reference.get(op) != digest:
                run.failed_ops.add(op)
                print(f"{name}: {op} traced digest differs from untraced")
        for op, found in run.inspection.problems.items():
            for problem in found:
                print(f"{name}: {op}: {problem}")


def import_s(own_s: float) -> float:
    """Median import time over this process and fresh interpreters."""
    samples = [own_s]
    for _ in range(IMPORT_PROBES):
        probe = [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), str(ROOT)]
        out = subprocess.run(probe, stdout=subprocess.PIPE, text=True, check=True)
        samples.append(float(out.stdout))
    print(f"import times: {', '.join(f'{s:.4f}' for s in samples)} s")
    return statistics.median(samples)


def peak_rss_mb() -> float:
    # Children include the import probes, which peak below any workload.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end_metrics(runs: list[Run], setup_s: float) -> dict[str, Any]:
    walls = [r.wall_s for r in runs]
    rates = [r.inspection.jobs / r.wall_s for r in runs]
    if len(walls) > 1:
        q1, _, q3 = statistics.quantiles(walls, n=4)
        print(f"wall_s over {len(walls)} runs: q1 {q1:.4f} s, q3 {q3:.4f} s")
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "jobs_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def layer_metrics(runs: list[Run], workers: int) -> dict[str, Any]:
    """Per-layer metrics of the traced runs; fails a traced run whose
    counts differ from the first traced run's or whose self times do
    not add up."""
    traced = [r for r in runs if r.traced]
    layers = [layer_values(r, workers) for r in traced]
    first = layers[0]
    exact = [k for k, unit in LAYER_UNITS.items() if unit in ("count", "B")]
    for run, values in zip(traced, layers):
        if any(values[k] != first[k] for k in exact) or not run.trace["additive"]:
            print("traced run has nondeterministic counts or non-additive self times")
            run.failed_ops.update(run.inspection.problems)
    metrics = {}
    for name, unit in LAYER_UNITS.items():
        if unit in ("s", "ratio"):
            value = statistics.median(v[name] for v in layers)
        else:
            value = first[name]
        metrics[name] = {"value": value, "unit": unit}
    traced_wall = statistics.median(r.wall_s for r in traced)
    plain_wall = statistics.median(r.wall_s for r in runs if not r.traced)
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
    return metrics


def report(
    name: str, seed: int, seconds: float, trace: bool, workdir: Path
) -> dict[str, Any]:
    from perfbench import tracing
    from perfbench.workloads import WORKLOADS

    own_import_s = time.perf_counter() - _START
    workload = WORKLOADS[name](seed, workdir)
    prep = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.prepare()
        prep.append(time.perf_counter() - start)
    setup_s = statistics.median(prep)
    if not trace:
        setup_s += import_s(own_import_s)

    flush_dir = workdir / "trace"
    flush_dir.mkdir()
    runs = measure(workload, seconds, trace, tracing.Tracer(flush_dir))
    check_digests(name, seed, runs)
    if trace:
        metrics = layer_metrics(runs, getattr(workload, "workers", 1))
    else:
        metrics = end_to_end_metrics(runs, setup_s)
    attempted = sum(r.attempted for r in runs)
    failed = sum(len(r.failed_ops) for r in runs)

    print(f"{name} seed={seed} trace={int(trace)}: {len(runs)} timed runs")
    width = max(len(metric) for metric in metrics)
    for metric, entry in metrics.items():
        value = entry["value"]
        shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {metric:<{width}}  {shown} {entry['unit']}")
    rate = f"{failed / attempted:>16.6g}"
    print(f"  {'error_rate':<{width}}  {rate} ({failed}/{attempted} operations)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_all(seed: int, seconds: int) -> int:
    """Every workload untraced then traced, each in a fresh process."""
    summary: dict[str, Any] = {}
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in ("0", "1"):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", trace,
            ]  # fmt: skip
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                status = 1
                continue
            summary[f"{name}/trace={trace}"] = json.loads(lines[-1])
    print(json.dumps(summary))
    return status


def stop_resource_tracker() -> None:
    """Stop (and wait for) the helper process shared memory starts."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=(*WORKLOAD_NAMES, "all")
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    program = ROOT / "src" / "repro"
    if not program.is_dir():
        print(f"perfbench: no program to measure (missing {program})", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # The benchmark fixes the sweep configuration; ambient knobs must
    # not change what is measured.
    for knob in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[knob]
    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    try:
        result = report(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run still uses it
            pass
        stop_resource_tracker()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
