"""The columnar pricing core shared by every execution layer.

The engine, the migration simulator, and the FaaS frontend all price the
same thing — (duration, energy, cores, start time) tuples on a known
machine — and PR 1 showed that pricing them one :class:`UsageRecord` at
a time is the dominant cost at paper scale.  This module is the single
batched substrate those three layers now sit on, so any new driver
(a policy variant, a migration strategy, a trace replayer) inherits the
fast path by construction instead of re-implementing its own hot loop.

The quote-table / settle contract
---------------------------------
Everything here follows one contract with two halves:

* **Quote tables** are built *up front*, before any event loop runs.
  :class:`PricingKernel` takes the jobs as a
  :class:`~repro.sim.job.JobBlock` and prices every
  (job, eligible machine) pair with one
  :meth:`~repro.accounting.base.AccountingMethod.charge_many` call per
  machine.  This is legal because submission-time quotes depend only on
  per-job constants (arrival time *is* the submit time), so a policy's
  :class:`~repro.sim.policies.MachineView` costs are row lookups, never
  fresh ``charge()`` calls.

* **Settlement is deferred**.  Work that accrues *during* a run —
  finished jobs (:meth:`ShardedPricingKernel.price_block`), migration
  segments (:class:`SegmentLedger`), FaaS invocations
  (:class:`SettlementQueue`) — is appended to a struct-of-arrays ledger
  as plain scalars and priced at the end in one vectorized pass per
  machine.  The vectorized methods use the same IEEE operation order as
  the scalar ones, and accumulations are replayed in append order, so
  settled results are **bit-identical** to the per-record reference
  paths (the test suite asserts exact equality for all five accounting
  methods).

The deferred-settlement queue additionally keeps *admission control*
exact: each queued record carries a cheap sound upper bound on its
eventual charge (:meth:`~repro.accounting.base.AccountingMethod.charge_upper_bound`),
so a balance check can be answered optimistically without settling; only
when the bound cannot prove affordability does the queue settle and the
check fall back to the exact balance.  Admission decisions are therefore
identical to the debit-immediately reference path.

:class:`OutcomeTable` is the columnar result container: one NumPy array
per :class:`~repro.sim.job.JobOutcome` field plus a machine code table.
It is what makes ``SimulationResult`` aggregates array expressions and
what the sweep engine ships between processes through shared memory
without pickling per-row objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Hashable,
    Iterable,
    Mapping,
    Sequence,
    cast,
)

import numpy as np
import numpy.typing as npt

from repro.accounting.base import (
    AccountingMethod,
    MachinePricing,
    UsageBatch,
    UsageRecord,
)
from repro.accounting.methods import CarbonBasedAccounting
from repro.units import operational_carbon_g

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a sim cycle
    from multiprocessing.shared_memory import SharedMemory

    from repro.sim.job import Job, JobBlock, JobOutcome, Take

#: Column types: FloatArray for priced quantities, IntArray for ids and
#: codes, AnyArray where one annotation spans mixed-dtype columns.
FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.int64]
AnyArray = npt.NDArray[Any]

#: The comparable value-identity of a pricing catalogue
#: (see :meth:`QuoteTable.fingerprint`).
PricingFingerprint = tuple[object, ...]


# ---------------------------------------------------------------------------
# Columnar outcomes
# ---------------------------------------------------------------------------
#: (field name, dtype) of every OutcomeTable column, in storage order.
OUTCOME_FIELDS: tuple[tuple[str, str], ...] = (
    ("job_id", "int64"),
    ("user", "int64"),
    ("machine_code", "int32"),
    ("cores", "int64"),
    ("submit_s", "float64"),
    ("start_s", "float64"),
    ("end_s", "float64"),
    ("energy_j", "float64"),
    ("cost", "float64"),
    ("work_core_hours", "float64"),
    ("operational_carbon_g", "float64"),
    ("attributed_carbon_g", "float64"),
)


class OutcomeTable:
    """Struct-of-arrays replacement for a ``list[JobOutcome]``.

    Machines are dictionary-encoded: ``machine_code[i]`` indexes the
    ``machines`` name table.  Row objects are materialized lazily via
    :meth:`rows` for consumers that still want
    :class:`~repro.sim.job.JobOutcome` instances; every aggregate the
    simulator reports is an array expression over the columns.
    """

    __slots__ = ("machines", "_rows_cache") + tuple(
        name for name, _ in OUTCOME_FIELDS
    )

    # Column attributes are assigned dynamically from OUTCOME_FIELDS in
    # __init__; these declarations give them static types.
    machines: list[str]
    job_id: IntArray
    user: IntArray
    machine_code: npt.NDArray[np.int32]
    cores: IntArray
    submit_s: FloatArray
    start_s: FloatArray
    end_s: FloatArray
    energy_j: FloatArray
    cost: FloatArray
    work_core_hours: FloatArray
    operational_carbon_g: FloatArray
    attributed_carbon_g: FloatArray
    _rows_cache: "list[JobOutcome] | None"

    def __init__(self, machines: Sequence[str], **columns: AnyArray) -> None:
        self.machines = list(machines)
        n = None
        for name, dtype in OUTCOME_FIELDS:
            col = np.asarray(columns[name], dtype=dtype)
            if n is None:
                n = len(col)
            elif len(col) != n:
                raise ValueError("outcome columns must have equal lengths")
            setattr(self, name, col)
        if len(self.machines) == 0 and (n or 0) > 0:
            raise ValueError("non-empty table needs a machine name table")
        self._rows_cache = None

    def __len__(self) -> int:
        return len(self.job_id)

    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, machines: Sequence[str] = ()) -> "OutcomeTable":
        return cls(
            machines,
            **{name: np.empty(0, dtype=dt) for name, dt in OUTCOME_FIELDS},
        )

    @classmethod
    def from_rows(
        cls,
        rows: Sequence["JobOutcome"],
        machines: Sequence[str] = (),
    ) -> "OutcomeTable":
        """Pack row objects into columns.

        ``machines`` seeds the code table (a scenario's machine list, so
        machines that served zero jobs still get a code); machines seen
        only in ``rows`` are appended after it.
        """
        names = list(machines)
        code_of = {name: i for i, name in enumerate(names)}
        codes = np.empty(len(rows), dtype=np.int32)
        for i, row in enumerate(rows):
            code = code_of.get(row.machine)
            if code is None:
                code = code_of[row.machine] = len(names)
                names.append(row.machine)
            codes[i] = code
        table = cls(
            names,
            job_id=np.array([r.job_id for r in rows], dtype=np.int64),
            user=np.array([r.user for r in rows], dtype=np.int64),
            machine_code=codes,
            cores=np.array([r.cores for r in rows], dtype=np.int64),
            submit_s=np.array([r.submit_s for r in rows], dtype=float),
            start_s=np.array([r.start_s for r in rows], dtype=float),
            end_s=np.array([r.end_s for r in rows], dtype=float),
            energy_j=np.array([r.energy_j for r in rows], dtype=float),
            cost=np.array([r.cost for r in rows], dtype=float),
            work_core_hours=np.array(
                [r.work_core_hours for r in rows], dtype=float
            ),
            operational_carbon_g=np.array(
                [r.operational_carbon_g for r in rows], dtype=float
            ),
            attributed_carbon_g=np.array(
                [r.attributed_carbon_g for r in rows], dtype=float
            ),
        )
        table._rows_cache = list(rows)
        return table

    # ------------------------------------------------------------------
    def rows(self) -> list["JobOutcome"]:
        """The lazy row view: ``JobOutcome`` objects, built once."""
        if self._rows_cache is None:
            from repro.sim.job import JobOutcome

            machines = self.machines
            cols = [
                self.job_id.tolist(),
                self.user.tolist(),
                self.machine_code.tolist(),
                self.cores.tolist(),
                self.submit_s.tolist(),
                self.start_s.tolist(),
                self.end_s.tolist(),
                self.energy_j.tolist(),
                self.cost.tolist(),
                self.work_core_hours.tolist(),
                self.operational_carbon_g.tolist(),
                self.attributed_carbon_g.tolist(),
            ]
            self._rows_cache = [
                JobOutcome(
                    job_id=jid,
                    user=user,
                    machine=machines[code],
                    cores=cores,
                    submit_s=submit,
                    start_s=start,
                    end_s=end,
                    energy_j=energy,
                    cost=cost,
                    work_core_hours=work,
                    operational_carbon_g=op,
                    attributed_carbon_g=attr,
                )
                for jid, user, code, cores, submit, start, end, energy, cost, work, op, attr in zip(*cols)
            ]
        return self._rows_cache

    def row(self, i: int) -> "JobOutcome":
        return self.rows()[i]

    # ------------------------------------------------------------------
    def __getstate__(self) -> dict[str, object]:
        """Pickle columns only — the row cache is rebuildable."""
        state: dict[str, object] = {
            name: getattr(self, name) for name, _ in OUTCOME_FIELDS
        }
        state["machines"] = self.machines
        return state

    def __setstate__(self, state: dict[str, object]) -> None:
        self.machines = cast("list[str]", state.pop("machines"))
        for name, _ in OUTCOME_FIELDS:
            setattr(self, name, state[name])
        self._rows_cache = None

    # ------------------------------------------------------------------
    # Shared-memory transport (mirrors QuoteTable.to_shm()/attach(): the
    # sender packs columns into one named block and ships the small
    # picklable descriptor; the receiver copies out, closes, and unlinks).
    def to_shm(self, hand_off: bool = False) -> OutcomeTableShm:
        """Copy the columns into a shared-memory block.

        Returns the :class:`OutcomeTableShm` descriptor another process
        passes to :meth:`attach`.  With ``hand_off=True`` the caller
        declares the *receiving* process responsible for
        :meth:`OutcomeTableShm.unlink` (the sweep workers' result path),
        and this process's resource tracker forgets the block.
        """
        return _pack_outcome_columns(
            [self], len(self), self.machines, hand_off=hand_off
        )

    @classmethod
    def stream_to_shm(
        cls,
        blocks: Iterable[OutcomeTable],
        n_rows: int,
        machines: Sequence[str],
        hand_off: bool = False,
    ) -> OutcomeTableShm:
        """Pack an iterable of outcome blocks into one shm block.

        The streamed-sweep result path: blocks come straight off an
        :class:`~repro.accounting.spill.OutcomeSpillStore` iterator, so
        only one block of rows is ever resident in this process while
        packing ``n_rows`` total rows for the receiver.
        """
        return _pack_outcome_columns(blocks, n_rows, machines, hand_off=hand_off)

    @classmethod
    def attach(cls, descriptor: OutcomeTableShm) -> OutcomeTable:
        """Rebuild a table from a descriptor (copy-out semantics).

        Columns are copied into process-local arrays and the block is
        closed immediately, so the returned table's lifetime is
        independent of the block's.  The caller still owns
        :meth:`OutcomeTableShm.unlink`.
        """
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=descriptor.shm_name)
        try:
            columns = {
                name: np.ndarray(
                    (length,), np.dtype(ds), buffer=shm.buf, offset=off
                ).copy()
                for name, ds, length, off in descriptor.layout
            }
        finally:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - half-built views
                pass
        return cls(list(descriptor.machines), **columns)


def fingerprint_digest(*parts: object) -> str:
    """Stable hex digest of fingerprint material.

    The content address used by the sweep result store
    (:mod:`repro.sim.result_store`): callers fold a task's identity
    fields together with a :data:`PricingFingerprint` and get back a
    filesystem-safe key.  ``repr`` of the primitive fingerprint parts
    (strings, ints, bools, ``None``, and shortest-roundtrip floats) is
    deterministic across processes and platforms, so equal
    configurations always map to the same digest and any value change —
    a different carbon trace, a machine rename, a method swap — maps to
    a different one.
    """
    import hashlib

    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


def _forfeit_shm_cleanup(shm: SharedMemory) -> None:
    """Hand a block's cleanup responsibility to another process.

    The creating process must not let its resource tracker unlink the
    block at interpreter exit — the receiving process unlinks after
    copying out.  Best-effort: a no-op on platforms without the
    tracker.
    """
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing import resource_tracker

        resource_tracker.unregister(
            shm._name, "shared_memory"
        )  # type: ignore[attr-defined]
    except Exception:
        pass


@dataclass(frozen=True, slots=True)
class OutcomeTableShm:
    """Picklable descriptor of an :meth:`OutcomeTable.to_shm` block.

    Carries the shared-memory block name, the machine name table, and
    the exact byte layout — ``(field, dtype, length, offset)`` per
    column — needed to rebuild the columns with
    :meth:`OutcomeTable.attach`.
    """

    shm_name: str
    machines: tuple[str, ...]
    layout: tuple[tuple[str, str, int, int], ...]

    def unlink(self) -> None:
        """Free the named block (receiver-side cleanup; idempotent)."""
        from multiprocessing import shared_memory

        try:
            block = shared_memory.SharedMemory(name=self.shm_name)
        except FileNotFoundError:
            return
        block.close()
        block.unlink()


def _outcome_shm_layout(n_rows: int) -> tuple[tuple[str, str, int, int], ...]:
    """The fixed ``(field, dtype, length, offset)`` byte layout of an
    ``n_rows``-row outcome block (column dtypes are static, so the
    layout is computable before any data is seen)."""
    layout: list[tuple[str, str, int, int]] = []
    offset = 0
    for name, dtype in OUTCOME_FIELDS:
        dt = np.dtype(dtype)
        layout.append((name, dt.str, n_rows, offset))
        offset += n_rows * dt.itemsize
    return tuple(layout)


def _pack_outcome_columns(
    blocks: Iterable[OutcomeTable],
    n_rows: int,
    machines: Sequence[str],
    hand_off: bool,
) -> OutcomeTableShm:
    """Copy an iterable of outcome blocks into one shared block.

    Blocks are consumed strictly one at a time, so packing a streamed
    (spill-store-backed) result never materializes more than one block
    of rows beyond the destination buffer itself.
    """
    from multiprocessing import shared_memory

    machine_list = list(machines)
    layout = _outcome_shm_layout(n_rows)
    total = layout[-1][3] + n_rows * np.dtype(OUTCOME_FIELDS[-1][1]).itemsize
    shm = shared_memory.SharedMemory(create=True, size=max(1, total))
    try:
        views = {
            name: np.ndarray((length,), np.dtype(ds), buffer=shm.buf, offset=off)
            for name, ds, length, off in layout
        }
        row = 0
        for block in blocks:
            if block.machines != machine_list:
                raise ValueError(
                    "outcome block has a different machine table than "
                    "the declared one"
                )
            n_block = len(block)
            if row + n_block > n_rows:
                raise ValueError("outcome blocks exceed the declared row count")
            for name, _ in OUTCOME_FIELDS:
                views[name][row : row + n_block] = getattr(block, name)
            row += n_block
        if row != n_rows:
            raise ValueError("outcome blocks fall short of the declared row count")
        descriptor = OutcomeTableShm(
            shm_name=shm.name,
            machines=tuple(machine_list),
            layout=layout,
        )
    except BaseException:
        # Nothing has seen the block's name yet, so a failed pack must
        # unlink here or the named block outlives the process.
        views = {}
        try:
            shm.close()
        except BufferError:  # pragma: no cover - half-built views
            pass
        shm.unlink()
        raise
    views = {}
    shm.close()
    if hand_off:
        _forfeit_shm_cleanup(shm)
    return descriptor


# ---------------------------------------------------------------------------
# Quote tables
# ---------------------------------------------------------------------------
class QuoteTable:
    """The workload-determined half of a pricing kernel.

    Everything in here is a pure function of ``(jobs, machine pricings,
    accounting method)``: the jobs' :class:`~repro.sim.job.JobBlock`
    and the submission-time quotes.  Nothing is mutated after
    :meth:`build`, so one table can back any number of simulation runs
    over the same workload — a policy sweep builds each distinct table
    once and every run adopts it through :class:`PricingKernel` instead
    of re-pricing the whole workload.

    Exposed views (all columns are views into ``block`` or ``cost``):

    * ``static_views`` — per-job ``(machine, runtime, energy, cost)``
      tuples in the job's own eligibility order (what policies consume),
    * flat per-machine ``runtime`` / ``energy`` / ``cost`` arrays keyed
      by the job's ``row_of`` index (what the outcome post-pass and the
      migration re-evaluation reuse),
    * ``elig_rank`` — the block's dense ``(n_jobs, n_machines)`` int32
      eligibility ranks (:data:`~repro.sim.job.ELIG_RANK_INELIGIBLE`
      marks machines the job cannot use).  This is what lets a
      vectorized argmin replay the scalar decision loops'
      first-strict-improvement tie-breaking exactly: among equal-cost
      machines the scalar walk keeps the *earliest* one, so a masked
      argmin over ``elig_rank`` restricted to the cost minima selects
      the identical winner.
    """

    __slots__ = (
        "method_name",
        "machine_names",
        "pricing_fingerprint",
        "block",
        "row_of",
        "job_id",
        "user",
        "cores",
        "submit",
        "work",
        "runtime",
        "energy",
        "cost",
        "static_views",
        "elig_rank",
        "_shm",
    )

    def __init__(self) -> None:
        # Populated by :meth:`build`; direct construction is internal.
        self.method_name: str = "?"
        self.machine_names: list[str] = []
        self.pricing_fingerprint: PricingFingerprint = ()
        self.row_of: dict[int, int] = {}
        self.runtime: dict[str, FloatArray] = {}
        self.energy: dict[str, FloatArray] = {}
        self.cost: dict[str, FloatArray] = {}
        self.static_views: list[tuple[tuple[str, float, float, float], ...]] = []
        self.elig_rank = np.empty((0, 0), dtype=np.int32)
        #: The shared-memory mapping backing this table's columns when
        #: it came from :meth:`attach`; ``None`` for owned arrays.
        self._shm: "SharedMemory | None" = None

    def __len__(self) -> int:
        return len(self.job_id)

    @staticmethod
    def fingerprint(pricings: Mapping[str, MachinePricing]) -> PricingFingerprint:
        """Cheap value fingerprint of a pricing catalogue.

        Scenarios share machine *names* but differ in carbon traces and
        rate overrides, so name equality alone cannot catch a table
        built against the wrong scenario.  This folds every scalar
        pricing attribute plus a trace digest (length, endpoints, sum)
        into a comparable tuple — O(machines x trace length), thousands
        of times cheaper than rebuilding the table.
        """
        parts = []
        for name, pricing in pricings.items():
            trace = pricing.intensity
            if trace is None:
                digest = None
            else:
                values = trace.hourly_g_per_kwh
                digest = (
                    len(values),
                    float(values[0]),
                    float(values[-1]),
                    float(values.sum()),
                )
            parts.append(
                (
                    name,
                    pricing.total_cores,
                    pricing.tdp_watts,
                    pricing.peak_rating,
                    pricing.embodied_carbon_g,
                    pricing.age_years,
                    pricing.carbon_rate_override_g_per_h,
                    pricing.whole_unit,
                    digest,
                )
            )
        return tuple(parts)

    @classmethod
    def build(
        cls,
        block: "JobBlock",
        pricings: Mapping[str, MachinePricing],
        method: AccountingMethod,
    ) -> "QuoteTable":
        """Price every eligible (job, machine) pair of ``block`` — one
        ``charge_many`` per machine — against ``pricings``, whose
        machines must be the block's, in order."""
        names = list(pricings)
        if list(block.machine_names) != names:
            raise ValueError(
                f"job block over machines {list(block.machine_names)} cannot "
                f"be priced against {names}"
            )
        cost = np.full(block.runtime.shape, np.nan)
        for mi, name in enumerate(names):
            eligible = ~np.isnan(block.runtime[mi])
            if not eligible.any():
                continue
            # Where every job is eligible, a basic slice keeps the batch
            # as views straight into the block's columns: no copies.
            rows: slice | npt.NDArray[np.bool_] = (
                slice(None) if eligible.all() else eligible
            )
            batch = UsageBatch(
                machine=name,
                duration_s=block.runtime[mi][rows],
                energy_j=block.energy[mi][rows],
                cores=block.cores[rows],
                start_time_s=block.submit[rows],
            )
            cost[mi][rows] = method.charge_many(batch, pricings[name])
        table = cls()
        table.method_name = method.name
        table.pricing_fingerprint = cls.fingerprint(pricings)
        table._bind(block, cost)
        return table

    def _bind(self, block: "JobBlock", cost: FloatArray) -> None:
        """Adopt ``block`` and its ``(n_machines, n_jobs)`` quotes: the
        column views, ``row_of``, and the per-job ``static_views``
        (machines in each job's own eligibility order), built column by
        column rather than job by job."""
        names = list(block.machine_names)
        self.block = block
        self.machine_names = names
        self.job_id = block.job_id
        self.user = block.user
        self.cores = block.cores
        self.submit = block.submit
        self.work = block.work
        self.elig_rank = block.elig_rank
        self.runtime = dict(zip(names, block.runtime))
        self.energy = dict(zip(names, block.energy))
        self.cost = dict(zip(names, cost))
        ids = block.job_id.tolist()
        self.row_of = dict(zip(ids, range(len(ids))))
        runtime, energy = block.floats()
        quotes = cost.tolist()

        def views(
            walk: tuple[int, ...], take: "Take"
        ) -> list[tuple[tuple[str, float, float, float], ...]]:
            if not walk:
                return [()] * len(take(ids))
            per_machine = [
                zip(
                    repeat(names[mi]),
                    take(runtime[mi]),
                    take(energy[mi]),
                    take(quotes[mi]),
                )
                for mi in walk
            ]
            return list(zip(*per_machine))

        self.static_views = block.per_row(views)

    # ------------------------------------------------------------------
    def compatible_with(
        self,
        block: "JobBlock",
        pricings: Mapping[str, MachinePricing],
        method: AccountingMethod,
    ) -> bool:
        """Cheap identity check before a run adopts a prebuilt table.

        Deliberately far cheaper than a rebuild: the method name, the
        machine set (in order), the pricing *value* fingerprint
        (scenarios share machine names but differ in traces and rates),
        the job count, and the first/last job ids — enough to catch
        every realistic mix-up (wrong workload, wrong scenario, wrong
        seed, wrong method) without re-pricing anything.
        """
        if self.method_name != method.name:
            return False
        if self.machine_names != list(pricings):
            return False
        if self.pricing_fingerprint != self.fingerprint(pricings):
            return False
        if len(self.job_id) != len(block):
            return False
        if len(block):
            if int(self.job_id[0]) != int(block.job_id[0]):
                return False
            if int(self.job_id[-1]) != int(block.job_id[-1]):
                return False
        return True

    # ------------------------------------------------------------------
    # Shared-memory serialization (the sweep's spawn-context transport)
    # ------------------------------------------------------------------
    @property
    def from_shm(self) -> bool:
        """True for tables whose columns are :meth:`attach` views over a
        shipped shared-memory block (the sweep rebuilds workloads from
        such tables' blocks instead of regenerating them)."""
        return self._shm is not None

    def _shm_columns(self) -> list[tuple[str, AnyArray]]:
        """Every numeric column, in the fixed layout order."""
        block = self.block
        return [
            ("job_id", block.job_id),
            ("user", block.user),
            ("cores", block.cores),
            ("submit", block.submit),
            ("work", block.work),
            ("elig_rank", block.elig_rank),
            ("runtime", block.runtime),
            ("energy", block.energy),
            ("cost", np.array([self.cost[name] for name in self.machine_names])),
        ]

    def to_shm(self) -> "QuoteTableShm":
        """Pack every column into one ``multiprocessing.shared_memory``
        block and return a small picklable :class:`QuoteTableShm`
        descriptor.

        Fork-based pools inherit warmed tables copy-on-write for free,
        but spawn-based platforms (macOS/Windows default) would rebuild
        workload and table in every worker.  Shipping the descriptor
        instead lets each worker :meth:`attach` zero-copy views over
        the same physical pages.  The block is *named and persistent*:
        the creating process owns its lifetime and must eventually
        call :meth:`QuoteTableShm.unlink` (the sweep runner does this
        when the pool finishes).
        """
        from multiprocessing import shared_memory

        cols = [
            (field, np.ascontiguousarray(arr))
            for field, arr in self._shm_columns()
        ]
        layout = []
        offset = 0
        for field, arr in cols:
            layout.append((field, arr.dtype.str, arr.shape, offset))
            offset += arr.nbytes
        shm = shared_memory.SharedMemory(create=True, size=max(1, offset))
        try:
            for (_, arr), (_, _, _, off) in zip(cols, layout):
                dest = np.ndarray(
                    arr.shape, dtype=arr.dtype, buffer=shm.buf, offset=off
                )
                dest[...] = arr
                del dest
            descriptor = QuoteTableShm(
                shm_name=shm.name,
                method_name=self.method_name,
                machine_names=tuple(self.machine_names),
                pricing_fingerprint=self.pricing_fingerprint,
                n_jobs=len(self.job_id),
                layout=tuple(layout),
            )
        except BaseException:
            # Nothing has seen the block's name yet, so a failed pack
            # must unlink here or the named block outlives the process.
            shm.close()
            shm.unlink()
            raise
        shm.close()
        return descriptor

    @classmethod
    def attach(cls, descriptor: "QuoteTableShm") -> "QuoteTable":
        """Rebuild a table as zero-copy views over a :meth:`to_shm` block.

        The column arrays are read-only views of the shared pages (no
        workload regeneration, no re-pricing); ``row_of`` and the
        ``static_views`` tuples are rebuilt from the columns by the same
        builder :meth:`build` uses, so an attached table is
        value-identical to the one :meth:`to_shm` packed and every
        simulation it backs is bit-identical.  The returned table holds
        the mapping open until :meth:`release`.
        """
        from multiprocessing import shared_memory

        from repro.sim.job import JobBlock

        shm = shared_memory.SharedMemory(name=descriptor.shm_name)
        try:
            arrays: dict[str, AnyArray] = {}
            for field, dtype_str, shape, offset in descriptor.layout:
                arr = np.ndarray(
                    shape, dtype=np.dtype(dtype_str), buffer=shm.buf, offset=offset
                )
                arr.flags.writeable = False
                arrays[field] = arr
            block = JobBlock(
                machine_names=descriptor.machine_names,
                job_id=arrays["job_id"],
                user=arrays["user"],
                cores=arrays["cores"],
                submit=arrays["submit"],
                work=arrays["work"],
                runtime=arrays["runtime"],
                energy=arrays["energy"],
                elig_rank=arrays["elig_rank"],
            )
            table = cls()
            table.method_name = descriptor.method_name
            table.pricing_fingerprint = descriptor.pricing_fingerprint
            table._bind(block, arrays["cost"])
        except BaseException:
            # A corrupt descriptor (bad layout/offsets) must not leak the
            # mapping.  Half-built views may still pin the buffer, in
            # which case close() raises BufferError — swallow it so the
            # real failure propagates (the mapping then falls to GC).
            arrays = {}
            try:
                shm.close()
            except BufferError:
                pass
            raise
        table._shm = shm
        return table

    def release(self) -> None:
        """Drop the column references and close the shared-memory
        mapping (no-op for tables that own their arrays).

        Called on cache eviction so an evicted attached table gives its
        mapping back immediately instead of waiting for GC; the named
        block itself lives until its creator unlinks it.
        """
        shm = self._shm
        if shm is None:
            return
        from repro.sim.job import JobBlock

        self._shm = None
        empty = JobBlock.from_jobs([], self.machine_names)
        self._bind(empty, empty.runtime)
        try:
            shm.close()
        except BufferError:  # a caller still holds column views
            pass


@dataclass(frozen=True, slots=True)
class QuoteTableShm:
    """Picklable descriptor of a :meth:`QuoteTable.to_shm` block.

    Carries the shared-memory block name, the table identity
    (method, machines, pricing fingerprint), and the exact byte layout
    — ``(field, dtype, shape, offset)`` per column — needed to rebuild
    zero-copy views with :meth:`QuoteTable.attach`.
    """

    shm_name: str
    method_name: str
    machine_names: tuple[str, ...]
    pricing_fingerprint: PricingFingerprint
    n_jobs: int
    layout: tuple[tuple[str, str, tuple[int, ...], int], ...]

    def unlink(self) -> None:
        """Free the named block (creator-side cleanup; idempotent)."""
        from multiprocessing import shared_memory

        try:
            block = shared_memory.SharedMemory(name=self.shm_name)
        except FileNotFoundError:
            return
        block.close()
        block.unlink()


@dataclass(frozen=True, slots=True)
class QuoteTableKey:
    """Hashable identity of one :class:`QuoteTable`.

    ``workload`` is a caller-chosen hashable token identifying the job
    list (the sweep uses its memoization key ``(scenario, scale,
    seed)``); ``method`` is the accounting method's name and
    ``machines`` the ordered machine set the table was priced against.
    """

    workload: Hashable
    method: str
    machines: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class QuoteTableCacheStats:
    """Point-in-time counters of one :class:`QuoteTableCache`.

    Attributes
    ----------
    size:
        Tables currently held.
    capacity:
        The LRU bound, or ``None`` for an unbounded cache.
    hits, misses:
        Lookup outcomes since construction (or the last
        :meth:`QuoteTableCache.clear`).  :meth:`QuoteTableCache.get`
        and :meth:`QuoteTableCache.get_or_build` both count; a
        ``get_or_build`` miss is exactly one miss even though it also
        stores the freshly built table.
    evictions:
        Tables dropped by the LRU bound.  ``clear()`` resets the
        counters without counting its drops as evictions.
    shm_attached:
        Tables adopted as zero-copy :meth:`QuoteTable.attach` views over
        a shipped shared-memory block instead of being built — the
        spawn-context sweep path (callers bump
        :attr:`QuoteTableCache.shm_attached` when they attach-and-store).
    """

    size: int
    capacity: int | None
    hits: int
    misses: int
    evictions: int
    shm_attached: int = 0


class QuoteTableCache:
    """Keyed LRU store of built :class:`QuoteTable` objects.

    Tables are immutable once built, so sharing is safe across any
    number of concurrent runs — including fork-based worker pools,
    where a table built in the parent before the fork is inherited by
    every worker (each process then owns its private cache copy).  The
    cache itself is guarded by nothing, and — unlike the pre-LRU
    version — **lookups are writes**: :meth:`get` and
    :meth:`get_or_build` refresh the key's recency by mutating the
    underlying dict.  Do not share one instance across threads without
    external locking; across processes, populate before forking (the
    sweep warms it up front).  Duplicate builds are merely wasteful,
    never wrong.

    Parameters
    ----------
    capacity:
        Maximum number of tables held at once; ``None`` (the default)
        keeps the cache unbounded.  When a store would exceed the
        bound, the *least recently used* table is dropped — recency is
        updated by every hit (:meth:`get` / :meth:`get_or_build`) and
        every store.  Eviction only frees memory: a quote table is a
        pure function of its key, so a later request for an evicted
        key rebuilds a bit-identical table (the test suite asserts
        identical simulation results across evict/re-warm cycles).

    Hit, miss, and eviction counts are exposed through :meth:`stats`,
    which the sweep runner surfaces per run
    (:meth:`~repro.sim.sweep.SweepRunner.cache_stats`).
    """

    __slots__ = (
        "_tables", "capacity", "hits", "misses", "evictions", "shm_attached"
    )

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("cache capacity must be >= 1 (or None)")
        #: Insertion/recency-ordered (oldest first): a plain dict plus
        #: explicit move-to-end on hit is the whole LRU discipline.
        self._tables: dict[QuoteTableKey, QuoteTable] = {}
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Tables stored as shared-memory attaches (bumped by callers
        #: that satisfy a miss with :meth:`QuoteTable.attach`).
        self.shm_attached = 0

    def __len__(self) -> int:
        return len(self._tables)

    def __contains__(self, key: QuoteTableKey) -> bool:
        return key in self._tables

    def _touch(self, key: QuoteTableKey, table: QuoteTable) -> None:
        """Mark ``key`` most recently used (dicts preserve insertion
        order, so remove + re-insert is move-to-end).  ``pop`` with a
        default keeps this tolerant of a key that vanished between the
        caller's lookup and the touch."""
        self._tables.pop(key, None)
        self._tables[key] = table

    def get(self, key: QuoteTableKey) -> QuoteTable | None:
        """The cached table for ``key`` (refreshing its recency), or
        ``None`` on a miss."""
        table = self._tables.get(key)
        if table is None:
            self.misses += 1
            return None
        self.hits += 1
        self._touch(key, table)
        return table

    def store(self, key: QuoteTableKey, table: QuoteTable) -> None:
        """Insert (or refresh) ``key``, evicting the least recently
        used table when the capacity bound would be exceeded."""
        if key in self._tables:
            self._touch(key, table)
            return
        self._tables[key] = table
        if self.capacity is not None and len(self._tables) > self.capacity:
            oldest = next(iter(self._tables))
            self._tables.pop(oldest).release()
            self.evictions += 1

    def get_or_build(
        self, key: QuoteTableKey, builder: Callable[[], QuoteTable]
    ) -> QuoteTable:
        """Return the cached table for ``key``, building it on a miss."""
        table = self._tables.get(key)
        if table is not None:
            self.hits += 1
            self._touch(key, table)
            return table
        self.misses += 1
        table = builder()
        self.store(key, table)
        return table

    def resize(self, capacity: int | None) -> None:
        """Change the LRU bound in place, evicting down to it if the
        cache currently holds more tables than the new bound allows."""
        if capacity is not None and capacity < 1:
            raise ValueError("cache capacity must be >= 1 (or None)")
        self.capacity = capacity
        if capacity is not None:
            while len(self._tables) > capacity:
                oldest = next(iter(self._tables))
                self._tables.pop(oldest).release()
                self.evictions += 1

    def stats(self) -> QuoteTableCacheStats:
        """Current size, bound, and hit/miss/eviction counters."""
        return QuoteTableCacheStats(
            size=len(self._tables),
            capacity=self.capacity,
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            shm_attached=self.shm_attached,
        )

    def clear(self) -> None:
        """Drop every table (releasing any shared-memory mappings) and
        reset the counters."""
        for table in self._tables.values():
            table.release()
        self._tables.clear()
        self.hits = self.misses = self.evictions = self.shm_attached = 0


class PricingKernel:
    """Per-(job, machine) quote tables plus outcome pricing for one run.

    Splits cleanly in two: the workload-determined tables live in a
    :class:`QuoteTable` (built here unless a prebuilt one is adopted via
    ``table=``), while this class binds them to the run's method and
    pricing catalogue and performs settlement.  Submission-time charges
    are fully determined at load (arrival time == submit time), which is
    what makes the tables reusable across same-workload runs.

    :meth:`price_outcomes` settles a finished schedule into a columnar
    :class:`OutcomeTable` — one ``charge_many`` + ``at_many`` sweep per
    machine, bit-identical to pricing each outcome with ``charge()``.
    """

    __slots__ = (
        "method",
        "pricings",
        "table",
        "machine_names",
        "row_of",
        "job_id",
        "user",
        "cores",
        "submit",
        "work",
        "runtime",
        "energy",
        "static_views",
        "elig_rank",
        "_carbon",
    )

    def __init__(
        self,
        block: "JobBlock",
        pricings: Mapping[str, MachinePricing],
        method: AccountingMethod,
        table: QuoteTable | None = None,
    ) -> None:
        self.method = method
        self.pricings = dict(pricings)
        if table is None:
            table = QuoteTable.build(block, self.pricings, method)
        elif not table.compatible_with(block, self.pricings, method):
            raise ValueError(
                "prebuilt quote table does not match this run: built for "
                f"method {table.method_name!r} over machines "
                f"{table.machine_names} ({len(table)} jobs)"
            )
        self.table = table
        # Flat references so hot paths skip one attribute hop.
        self.machine_names = table.machine_names
        self.row_of = table.row_of
        self.job_id = table.job_id
        self.user = table.user
        self.cores = table.cores
        self.submit = table.submit
        self.work = table.work
        self.runtime = table.runtime
        self.energy = table.energy
        self.static_views = table.static_views
        self.elig_rank = table.elig_rank
        self._carbon = (
            method
            if isinstance(method, CarbonBasedAccounting)
            else CarbonBasedAccounting()
        )

    # ------------------------------------------------------------------
    def price_outcomes(self, schedule: OutcomeTable) -> OutcomeTable:
        """Settle a finished ``schedule`` under this kernel's method.

        ``schedule`` is an outcome table over this kernel's machines,
        typically another run's result over the same workload: a sweep
        settles the schedule of a policy that never reads costs once per
        accounting method.  Only its ``job_id``, ``machine_code``,
        ``start_s`` and ``end_s`` columns are read; every other column
        comes from this kernel's quote rows, exactly as the engine
        settles, so settling an engine result under its own method
        reproduces it bit for bit.  Rows keep the schedule's order.

        Raises :class:`ValueError` if the schedule's machine list is not
        this kernel's.
        """
        if schedule.machines != self.machine_names:
            raise ValueError(
                f"a schedule over machines {schedule.machines} cannot be "
                f"settled against {self.machine_names}"
            )
        return self._settle(
            self._rows(schedule.job_id.tolist()),
            schedule.machine_code,
            schedule.start_s,
            schedule.end_s,
        )

    def _rows(self, job_ids: Sequence[int]) -> npt.NDArray[np.intp]:
        """The quote-table row of each job id."""
        return np.fromiter(
            map(self.row_of.__getitem__, job_ids), dtype=np.intp, count=len(job_ids)
        )

    def _settle(
        self,
        rows: npt.NDArray[np.intp],
        codes: npt.NDArray[np.int32],
        starts: FloatArray,
        ends: FloatArray,
    ) -> OutcomeTable:
        """The one settlement body: quote row ``rows[i]`` run on machine
        ``codes[i]`` from ``starts[i]`` to ``ends[i]`` (behind
        :meth:`price_outcomes` and :meth:`ShardedPricingKernel.price_block`).

        One ``charge_many`` + ``at_many`` sweep per machine; operational
        carbon uses the start-time intensity and attributed carbon adds
        CBA's embodied term, exactly as the scalar reference path."""
        n = len(rows)
        names = self.machine_names
        cost = np.empty(n)
        energy_out = np.empty(n)
        operational = np.empty(n)
        attributed = np.empty(n)
        for code in np.unique(codes).tolist():
            name = names[code]
            idx = np.flatnonzero(codes == code)
            sub_rows = rows[idx]
            energy = self.energy[name][sub_rows]
            batch = UsageBatch(
                machine=name,
                duration_s=self.runtime[name][sub_rows],
                energy_j=energy,
                cores=self.cores[sub_rows],
                start_time_s=starts[idx],
            )
            c, op, attr = _price_batch(
                self.method, self._carbon, self.pricings[name], batch
            )
            energy_out[idx] = energy
            cost[idx] = c
            operational[idx] = op
            attributed[idx] = attr
        return OutcomeTable(
            names,
            job_id=self.job_id[rows],
            user=self.user[rows],
            machine_code=codes,
            cores=self.cores[rows],
            submit_s=self.submit[rows],
            start_s=starts,
            end_s=ends,
            energy_j=energy_out,
            cost=cost,
            work_core_hours=self.work[rows],
            operational_carbon_g=operational,
            attributed_carbon_g=attributed,
        )


# ---------------------------------------------------------------------------
# Sharded quote tables (streaming ingestion)
# ---------------------------------------------------------------------------
@dataclass(slots=True)
class QuoteTableShard:
    """One ingestion chunk's quote table plus retirement state.

    Identity-wise a shard is an ordinary quote table: ``key`` is a
    :class:`QuoteTableKey` whose workload token extends the run's token
    with the shard ordinal, so shard caching/diagnostics compose with
    the existing cache machinery unchanged.  ``kernel`` binds the
    chunk's :class:`QuoteTable` to the run's method and pricings and
    settles the chunk's jobs.  ``unsettled`` counts the jobs that have
    not yet settled (or been discarded) and ``settled`` flags them by
    row; the owning kernel drops the shard the moment ``unsettled``
    reaches zero, which is what bounds quote-table memory by the number
    of chunks with jobs still in flight rather than by the trace length.
    """

    key: QuoteTableKey
    kernel: PricingKernel
    #: Ordinal of the chunk this shard was built from.
    index: int
    #: Jobs of this shard not yet settled or discarded.
    unsettled: int
    #: Per quote row: the job has settled or been discarded.
    settled: npt.NDArray[np.bool_]


class ShardedPricingKernel:
    """Chunk-at-a-time pricing for the engine's event loop.

    Builds one :class:`QuoteTableShard` — a :class:`PricingKernel` over
    the chunk's own quote table — per ingestion chunk (:meth:`load_chunk`)
    and retires each shard once its last job settles.  An in-memory run
    is a single chunk whose shard may adopt a prebuilt table.  Quotes
    and settlement are the shard kernels' own, and both are element-wise
    per row, so a run's quotes and settled outcomes are bit-identical
    however it is chunked — merely delivered in blocks.

    Every arrival belongs to the newest shard, which finds its jobs
    through its own ``row_of``.  When a newer chunk loads, the older
    shard's jobs still in flight move to a locate map — the only other
    per-job state, shrinking as they settle — so a one-chunk run copies
    no per-job state at all.

    Settlement (:meth:`price_block`) takes consecutive slices of the
    completion-ordered finish log, so concatenating the returned tables
    in call order reproduces a settlement of the whole log row for row.
    """

    __slots__ = (
        "method",
        "pricings",
        "machine_names",
        "workload_token",
        "shards_built",
        "shards_retired",
        "peak_live_shards",
        "_live",
        "_newest",
        "_locate",
    )

    def __init__(
        self,
        pricings: Mapping[str, MachinePricing],
        method: AccountingMethod,
        workload_token: Hashable = "stream",
    ) -> None:
        self.method = method
        self.pricings = dict(pricings)
        self.machine_names = list(self.pricings)
        self.workload_token = workload_token
        self.shards_built = 0
        self.shards_retired = 0
        self.peak_live_shards = 0
        self._live: dict[int, QuoteTableShard] = {}
        #: The most recent chunk's shard, until it retires.
        self._newest: QuoteTableShard | None = None
        #: job_id -> shard for in-flight jobs of older shards.
        self._locate: dict[int, QuoteTableShard] = {}

    # ------------------------------------------------------------------
    def load_chunk(
        self, block: "JobBlock", table: QuoteTable | None = None
    ) -> QuoteTableShard:
        """Price the next chunk's block into its shard (or adopt a
        prebuilt ``table``).

        Job ids key every lookup, so a :class:`ValueError` naming the id
        rejects a chunk in which an id repeats, or that reuses the id of
        an earlier chunk's job that has not settled.  The engine settles
        every finished job before it loads a chunk, so to a run that
        means a job still queued or running.
        """
        kernel = PricingKernel(block, self.pricings, self.method, table=table)
        row_of = kernel.row_of
        if len(row_of) != len(kernel.job_id):
            ids, counts = np.unique(kernel.job_id, return_counts=True)
            raise ValueError(f"job id {int(ids[counts > 1][0])} repeats in a chunk")
        newest = self._newest
        locate = self._locate
        if newest is not None:
            in_flight = newest.kernel.job_id[~newest.settled].tolist()
            locate.update(dict.fromkeys(in_flight, newest))
        if locate and not locate.keys().isdisjoint(row_of):
            clash = min(job_id for job_id in row_of if job_id in locate)
            raise ValueError(
                f"job id {clash} is reused while a job with that id is in flight"
            )
        index = self.shards_built
        shard = QuoteTableShard(
            key=QuoteTableKey(
                workload=(self.workload_token, index),
                method=self.method.name,
                machines=tuple(self.machine_names),
            ),
            kernel=kernel,
            index=index,
            unsettled=len(row_of),
            settled=np.zeros(len(row_of), dtype=bool),
        )
        self._newest = shard
        self._live[index] = shard
        self.shards_built += 1
        self.peak_live_shards = max(self.peak_live_shards, len(self._live))
        return shard

    def discard(self, job_id: int) -> None:
        """Release a job that will never settle (no eligible machine).

        Without this a single unplaceable job would pin its whole shard
        for the rest of the run.
        """
        shard = self._locate.pop(job_id, self._newest)
        if shard is None:
            raise KeyError(job_id)
        self._release(shard, [shard.kernel.row_of[job_id]])

    def _release(
        self, shard: QuoteTableShard, rows: list[int] | npt.NDArray[np.intp]
    ) -> None:
        shard.settled[rows] = True
        shard.unsettled -= len(rows)
        if shard.unsettled == 0:
            del self._live[shard.index]
            self.shards_retired += 1
            if shard is self._newest:
                self._newest = None

    # ------------------------------------------------------------------
    def price_block(
        self,
        finished: Sequence[tuple["Job", str, float, float]],
    ) -> OutcomeTable:
        """Settle one block of the finish log — ``(job, machine,
        start_s, end_s)`` entries — and release its jobs.

        The entries become the row, machine-code, start and end columns
        of :meth:`PricingKernel._settle`; rows come back in log order.  The block is split by
        shard and each part settles through its shard's kernel; that
        changes only how rows are batched, never a row's operands — the
        settlement math is element-wise — so the block is bit-identical
        to its slice of a whole-log settlement.
        """
        n = len(finished)
        ids = [entry[0].job_id for entry in finished]
        code_of = {name: i for i, name in enumerate(self.machine_names)}
        codes = np.fromiter(
            (code_of[entry[1]] for entry in finished), dtype=np.int32, count=n
        )
        starts = np.fromiter((entry[2] for entry in finished), dtype=float, count=n)
        ends = np.fromiter((entry[3] for entry in finished), dtype=float, count=n)
        owners = map(self._locate.pop, ids, repeat(self._newest))
        owner = np.fromiter(map(attrgetter("index"), owners), dtype=np.intp, count=n)
        columns = {name: np.empty(n, dtype=dtype) for name, dtype in OUTCOME_FIELDS}
        for index in np.unique(owner).tolist():
            shard = self._live[index]
            idx = np.flatnonzero(owner == index)
            rows = shard.kernel._rows([ids[i] for i in idx.tolist()])
            table = shard.kernel._settle(rows, codes[idx], starts[idx], ends[idx])
            for name, _ in OUTCOME_FIELDS:
                columns[name][idx] = getattr(table, name)
            self._release(shard, rows)
        return OutcomeTable(self.machine_names, **columns)


# ---------------------------------------------------------------------------
# Shared settlement pricing
# ---------------------------------------------------------------------------
def _price_batch(
    method: AccountingMethod,
    carbon: CarbonBasedAccounting,
    pricing: MachinePricing,
    batch: UsageBatch,
) -> tuple[FloatArray, FloatArray, FloatArray]:
    """(cost, operational_g, attributed_g) of one same-machine batch.

    The single definition of the settlement math shared by the outcome
    post-pass and the segment ledger — the bit-identity guarantees of
    every layer rest on this one code path.
    """
    cost = method.charge_many(batch, pricing)
    intensity = pricing.intensity.at_many(batch.start_time_s)
    operational = operational_carbon_g(batch.energy_j, intensity)
    attributed = operational + carbon.embodied_charge_many(batch, pricing)
    return cost, operational, attributed


# ---------------------------------------------------------------------------
# Migration segment ledger
# ---------------------------------------------------------------------------
class SegmentLedger:
    """Struct-of-arrays ledger of execution segments, priced in one pass.

    The migration simulator bills a job once per *segment* (every
    machine it touches).  Instead of a ``charge()`` + two trace lookups
    per segment inside the event loop, segments are appended here as
    plain scalars and :meth:`settle` prices the whole ledger with one
    ``charge_many`` / ``at_many`` / ``embodied_charge_many`` sweep per
    machine.  Results come back in append order, so replaying the
    per-job accumulations gives bit-identical sums to charging each
    segment as it ends.
    """

    __slots__ = ("method", "pricings", "_carbon", "machine", "duration",
                 "energy", "cores", "start")

    def __init__(
        self,
        method: AccountingMethod,
        pricings: Mapping[str, MachinePricing],
    ) -> None:
        self.method = method
        self.pricings = dict(pricings)
        self._carbon = (
            method
            if isinstance(method, CarbonBasedAccounting)
            else CarbonBasedAccounting()
        )
        self.machine: list[str] = []
        self.duration: list[float] = []
        self.energy: list[float] = []
        self.cores: list[int] = []
        self.start: list[float] = []

    def __len__(self) -> int:
        return len(self.machine)

    def add(
        self,
        machine: str,
        start_s: float,
        duration_s: float,
        energy_j: float,
        cores: int,
    ) -> int:
        """Append one segment; returns its ledger index."""
        idx = len(self.machine)
        self.machine.append(machine)
        self.start.append(start_s)
        self.duration.append(duration_s)
        self.energy.append(energy_j)
        self.cores.append(cores)
        return idx

    def settle(self) -> tuple[FloatArray, FloatArray, FloatArray]:
        """Price every segment; returns ``(cost, operational_g,
        attributed_g)`` arrays aligned with append order."""
        n = len(self)
        cost = np.empty(n)
        operational = np.empty(n)
        attributed = np.empty(n)
        by_machine: dict[str, list[int]] = {}
        for i, name in enumerate(self.machine):
            by_machine.setdefault(name, []).append(i)
        duration = np.asarray(self.duration)
        energy = np.asarray(self.energy)
        cores = np.asarray(self.cores, dtype=np.int64)
        start = np.asarray(self.start)
        for name, idxs in by_machine.items():
            idx = np.asarray(idxs, dtype=np.intp)
            batch = UsageBatch(
                machine=name,
                duration_s=duration[idx],
                energy_j=energy[idx],
                cores=cores[idx],
                start_time_s=start[idx],
            )
            c, op, attr = _price_batch(
                self.method, self._carbon, self.pricings[name], batch
            )
            cost[idx] = c
            operational[idx] = op
            attributed[idx] = attr
        return cost, operational, attributed


# ---------------------------------------------------------------------------
# FaaS deferred settlement
# ---------------------------------------------------------------------------
class SettlementQueue:
    """Deferred-settlement ledger for monitor-attributed charges.

    Usage records are queued instead of priced one by one; each carries
    a cheap sound upper bound on its eventual charge
    (:meth:`~repro.accounting.base.AccountingMethod.charge_upper_bound`),
    so the platform can answer "could this user afford X?" without
    settling: the true pending debt never exceeds :attr:`pending_bound`.
    :meth:`settle` prices everything queued with one ``charge_many`` per
    machine and returns per-record charges in queue order — bit-identical
    to charging each record on arrival.
    """

    __slots__ = (
        "method",
        "pricings",
        "pending_bound",
        "_machine",
        "_duration",
        "_energy",
        "_cores",
        "_start",
        "_occupancy",
        "_any_provisioned",
    )

    def __init__(
        self,
        method: AccountingMethod,
        pricings: Mapping[str, MachinePricing],
    ) -> None:
        self.method = method
        #: Kept by reference, not copied: the platform registers
        #: machines after queues exist, and queued records must price
        #: against the live catalogue.
        self.pricings = pricings
        #: Sum of per-record charge upper bounds for everything queued.
        self.pending_bound: float = 0.0
        self._reset()

    def _reset(self) -> None:
        self._machine: list[str] = []
        self._duration: list[float] = []
        self._energy: list[float] = []
        self._cores: list[int] = []
        self._start: list[float] = []
        self._occupancy: list[int] = []
        self._any_provisioned = False
        self.pending_bound = 0.0

    def __len__(self) -> int:
        return len(self._machine)

    def add(self, record: UsageRecord) -> int:
        """Queue one record (stored columnar); returns its settlement
        index."""
        if record.machine not in self.pricings:
            raise KeyError(f"no pricing for machine {record.machine!r}")
        idx = len(self._machine)
        self._machine.append(record.machine)
        self._duration.append(record.duration_s)
        self._energy.append(record.energy_j)
        self._cores.append(record.cores)
        self._start.append(record.start_time_s)
        self._occupancy.append(record.occupancy)
        if record.provisioned_cores is not None:
            self._any_provisioned = True
        self.pending_bound += self.method.charge_upper_bound(
            record, self.pricings[record.machine]
        )
        return idx

    def settle(self) -> list[float]:
        """Price and drain the queue; charges in queue order."""
        n = len(self._machine)
        if not n:
            return []
        charges = np.empty(n)
        by_machine: dict[str, list[int]] = {}
        for i, name in enumerate(self._machine):
            by_machine.setdefault(name, []).append(i)
        duration = np.asarray(self._duration)
        energy = np.asarray(self._energy)
        cores = np.asarray(self._cores, dtype=np.int64)
        start = np.asarray(self._start)
        occupancy = (
            np.asarray(self._occupancy, dtype=np.int64)
            if self._any_provisioned
            else None
        )
        for name, idxs in by_machine.items():
            idx = np.asarray(idxs, dtype=np.intp)
            batch = UsageBatch.unchecked(
                machine=name,
                duration_s=duration[idx],
                energy_j=energy[idx],
                cores=cores[idx],
                start_time_s=start[idx],
                provisioned_cores=(
                    occupancy[idx] if occupancy is not None else None
                ),
            )
            charges[idx] = self.method.charge_many(batch, self.pricings[name])
        self._reset()
        return charges.tolist()


__all__ = [
    "ELIG_RANK_INELIGIBLE",
    "OUTCOME_FIELDS",
    "OutcomeTable",
    "OutcomeTableShm",
    "PricingKernel",
    "QuoteTable",
    "QuoteTableCache",
    "QuoteTableCacheStats",
    "QuoteTableKey",
    "QuoteTableShard",
    "SegmentLedger",
    "SettlementQueue",
    "ShardedPricingKernel",
    "fingerprint_digest",
]
