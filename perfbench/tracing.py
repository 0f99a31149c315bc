"""Per-layer tracing from outside the program.

The benchmark never edits ``src/``: it wraps the public functions at
each layer boundary for the duration of a traced run and restores them
afterwards.  Coarse layers get *spans* (timed, with self time); hot
per-event calls (calendar pops, policy selects, ``startable`` scans,
probe closures) get counters only, so the tracer's own cost stays a
small, reported overhead.

Self time of a span is its duration minus the time its child spans
cover.  Within one process the self times of all spans add up to the
summed duration of that process's root spans; the benchmark checks this
identity on every traced run.

Pool workers forked during a traced run inherit the wrappers.  A worker
detects that it was forked (its pid changed), drops the state it
inherited, and appends its totals to ``flush_dir`` every time one of its
root spans closes, because pool workers may exit without running exit
hooks.  The parent merges those records with :func:`collect`.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

import numpy as np


class Tracer:
    """Span and counter recorder for one process (and its forked workers)."""

    def __init__(
        self,
        flush_dir: Path | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.flush_dir = flush_dir
        self.clock = clock
        self.self_s: Counter[str] = Counter()
        self.total_s: Counter[str] = Counter()
        #: Mutated in place only: counting wrappers hold a reference.
        self.counts: Counter[str] = Counter()
        self.root_s = 0.0
        self._stack: list[list[Any]] = []
        self._pid = os.getpid()
        self.worker = False

    def clear(self) -> None:
        self.self_s.clear()
        self.total_s.clear()
        self.counts.clear()
        self.root_s = 0.0
        self._stack.clear()

    def enter(self, name: str) -> None:
        pid = os.getpid()
        if pid != self._pid:
            # A forked pool worker: the parent's open spans and totals
            # are not ours to report.
            self._pid = pid
            self.worker = True
            self.clear()
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child_s = self._stack.pop()
        duration = self.clock() - start
        self.self_s[name] += duration - child_s
        self.total_s[name] += duration
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_s += duration
            if self.worker and self.flush_dir is not None:
                self.flush()

    def snapshot(self) -> dict[str, Any]:
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counts": dict(self.counts),
            "root_s": self.root_s,
        }

    def flush(self) -> None:
        """Append this worker's totals since the last flush and reset."""
        path = self.flush_dir / f"worker-{os.getpid()}.jsonl"
        with path.open("a") as fh:
            fh.write(json.dumps(self.snapshot()) + "\n")
            fh.flush()
        self.clear()


def collect(flush_dir: Path) -> list[dict[str, Any]]:
    """Read and delete every worker record flushed into ``flush_dir``."""
    records: list[dict[str, Any]] = []
    for path in sorted(flush_dir.glob("worker-*.jsonl")):
        records.extend(json.loads(line) for line in path.read_text().splitlines())
        path.unlink()
    return records


def merge(records: list[dict[str, Any]]) -> dict[str, Counter[str]]:
    """Sum snapshots key by key (``root_s`` is not merged: it is per process)."""
    out: dict[str, Counter[str]] = {
        key: Counter() for key in ("self_s", "total_s", "counts")
    }
    for record in records:
        for key, acc in out.items():
            acc.update(record[key])
    return out


def additive(record: dict[str, Any]) -> bool:
    """True when the record's self times add up to its root-span time."""
    return math.isclose(
        sum(record["self_s"].values()),
        record["root_s"],
        rel_tol=1e-9,
        abs_tol=1e-9,
    )


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------
def _spanned(
    tracer: Tracer,
    name: str,
    fn: Callable[..., Any],
    after: Callable[[tuple[Any, ...], Any, Any], None] | None = None,
    before: Callable[[tuple[Any, ...]], Any] | None = None,
) -> Callable[..., Any]:
    enter, leave = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        token = before(args) if before is not None else None
        enter(name)
        try:
            out = fn(*args, **kwargs)
            # Inside the span, so a worker's root-span flush includes it.
            if after is not None:
                after(args, out, token)
        finally:
            leave()
        return out

    return wrapper


def _counted(
    counts: Counter[str], name: str, fn: Callable[..., Any]
) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _shm_bytes(descriptor: Any) -> int:
    return sum(
        length * np.dtype(dtype).itemsize for _, dtype, length, _ in descriptor.layout
    )


class Instrumentation:
    """Wraps every traced public function; :meth:`restore` undoes it."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[Any, str, Any]] = []

    def _patch(
        self,
        owner: Any,
        attr: str,
        wrap: Callable[[Callable[..., Any]], Callable[..., Any]],
    ) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(wrap(raw.__func__)))
        else:
            setattr(owner, attr, wrap(raw))
        self._undo.append((owner, attr, raw))

    def _span(self, owner: Any, attr: str, name: str, **hooks: Any) -> None:
        self._patch(owner, attr, lambda fn: _spanned(self.tracer, name, fn, **hooks))

    def _count(self, owner: Any, attr: str, name: str) -> None:
        self._patch(owner, attr, lambda fn: _counted(self.tracer.counts, name, fn))

    def install(self) -> "Instrumentation":
        from repro.accounting import methods
        from repro.accounting.base import AccountingMethod
        from repro.accounting.pricing import (
            OutcomeTable,
            PricingKernel,
            QuoteTable,
            SegmentLedger,
            ShardedPricingKernel,
        )
        from repro.accounting.spill import OutcomeSpillStore
        from repro.sim import policies, swf
        from repro.sim.cluster import ClusterSim
        from repro.sim.engine import MultiClusterSimulator
        from repro.sim.events import EventCalendar
        from repro.sim.migration import MigratingSimulator
        from repro.sim.result_store import ResultStore
        from repro.sim.sweep import SweepRunner
        from repro.sim.workload import PatelWorkloadGenerator

        tracer = self.tracer
        counts = tracer.counts

        def count(name: str, amount: int) -> None:
            counts[name] += amount

        # sim.swf: time each next() on the chunk iterator.
        def chunks(fn: Callable[..., Any]) -> Callable[..., Any]:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                inner = fn(*args, **kwargs)
                while True:
                    tracer.enter("swf.ingest")
                    try:
                        chunk = next(inner, None)
                    finally:
                        tracer.exit()
                    if chunk is None:
                        return
                    count("swf.chunks", 1)
                    count("swf.records", len(chunk))
                    yield chunk

            return wrapper

        self._patch(swf, "iter_swf_job_chunks", chunks)

        # sim.workload
        self._span(
            PatelWorkloadGenerator, "generate", "workload.generate",
            after=lambda a, out, t: count("workload.jobs", len(out)),
        )

        # accounting.pricing
        def quote_built(args: tuple[Any, ...], out: Any, token: Any) -> None:
            count("pricing.quote_builds", 1)
            count("pricing.quote_rows", len(out))

        self._span(QuoteTable, "build", "pricing.quote_build", after=quote_built)
        for owner, attr in (
            (PricingKernel, "price_outcomes"),
            (ShardedPricingKernel, "price_block"),
        ):
            self._span(
                owner, attr, "pricing.settle",
                after=lambda a, out, t: count("pricing.settle_rows", len(out)),
            )
        self._span(
            SegmentLedger, "settle", "pricing.settle",
            after=lambda a, out, t: count("pricing.settle_rows", len(out[0])),
        )

        # accounting.methods
        def charged(args: tuple[Any, ...], out: Any, token: Any) -> None:
            count("methods.charge_many_calls", 1)
            count("methods.charge_many_rows", len(out))

        def probing(fn: Callable[..., Any]) -> Callable[..., Any]:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                return _counted(counts, "methods.probe_calls", fn(*args, **kwargs))

            return wrapper

        classes = {AccountingMethod} | {type(m) for m in methods.all_methods()}
        for cls in sorted(classes, key=lambda c: c.__name__):
            if "charge_many" in vars(cls):
                self._span(cls, "charge_many", "methods.charge_many", after=charged)
            if "probe_kernel" in vars(cls):
                self._patch(cls, "probe_kernel", probing)

        # sim.events, sim.cluster, sim.policies: counters only (per event).
        self._count(EventCalendar, "pop", "events.pops")
        self._count(ClusterSim, "estimated_wait_s", "cluster.wait_estimates")

        def startable(fn: Callable[..., Any]) -> Callable[..., Any]:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                out = fn(*args, **kwargs)
                counts["cluster.startable_calls"] += 1
                counts["cluster.jobs_started"] += len(out)
                return out

            return wrapper

        self._patch(ClusterSim, "startable", startable)
        for cls in vars(policies).values():
            if (
                isinstance(cls, type)
                and issubclass(cls, policies.Policy)
                and cls is not policies.Policy
                and "select" in vars(cls)
            ):
                self._count(cls, "select", "policies.select_calls")

        # sim.engine, sim.migration
        self._span(MultiClusterSimulator, "run", "engine.loop")
        self._span(MigratingSimulator, "run", "migration.loop")
        self._count(SegmentLedger, "add", "migration.segments")

        # accounting.spill
        def spilled(args: tuple[Any, ...], out: Any, token: Any) -> None:
            store = args[0]
            count("spill.blocks", store.n_blocks - token[0])
            count("spill.bytes", store.spilled_bytes - token[1])

        self._span(
            OutcomeSpillStore, "append", "spill.append",
            before=lambda a: (a[0].n_blocks, a[0].spilled_bytes),
            after=spilled,
        )

        # sim.sweep
        self._span(SweepRunner, "run", "sweep.wait")
        self._span(SweepRunner, "run_task", "sweep.task")

        def shipped(args: tuple[Any, ...], out: Any, token: Any) -> None:
            count("sweep.transport_bytes", _shm_bytes(out))

        self._span(OutcomeTable, "to_shm", "sweep.transport", after=shipped)
        self._span(OutcomeTable, "stream_to_shm", "sweep.transport", after=shipped)
        self._span(OutcomeTable, "attach", "sweep.transport")

        # sim.result_store
        self._span(
            ResultStore, "get", "store.get",
            after=lambda a, out, t: count(
                "store.misses" if out is None else "store.hits", 1
            ),
        )
        self._span(ResultStore, "put", "store.put")
        return self

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)
