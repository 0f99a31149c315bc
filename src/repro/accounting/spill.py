"""Spill-to-disk storage for settled outcome blocks.

The streaming engine settles finished jobs in completion-ordered blocks
(:meth:`~repro.accounting.pricing.ShardedPricingKernel.price_block`)
and must not hold every settled row until the run ends — on a
million-job trace the outcome columns alone outgrow the chunk budget.
:class:`OutcomeSpillStore` is the sink: each settled
:class:`~repro.accounting.pricing.OutcomeTable` block is flushed to one
compressed ``.npz`` segment (one array per outcome column, NumPy's
native container format), and aggregates later stream the segments back
one block at a time.

Two invariants make the lazy aggregate merge exact rather than
approximate:

* **Blocks are consecutive slices of the completion-ordered finish
  log.**  Concatenating the blocks in append order reproduces the
  in-memory :class:`~repro.accounting.pricing.OutcomeTable` row for
  row, so any order-sensitive reduction (sequential sums, budget
  cutoffs) can be replayed block-wise with carried accumulators.
* **``npy``/``npz`` round-trips floats losslessly** — segments store
  the raw IEEE bytes, so a streamed aggregate sees the identical
  floats the in-memory path sees.

With ``directory=None`` the store keeps blocks in memory (still
chunked) — the right mode for mid-size runs and for the equivalence
tests; passing a directory bounds peak RSS for archive-scale traces.
"""

from __future__ import annotations

from pathlib import Path
from types import TracebackType
from typing import Iterator, Sequence
from zipfile import BadZipFile

import numpy as np

from repro.accounting.pricing import OUTCOME_FIELDS, OutcomeTable


class OutcomeSpillStore:
    """Append-only columnar store of settled outcome blocks.

    Parameters
    ----------
    machines:
        The machine name table every appended block must share (blocks
        from one :class:`~repro.accounting.pricing.ShardedPricingKernel`
        always do); it is not persisted per segment.
    directory:
        Where to write ``block-NNNNNN.npz`` segments.  ``None`` keeps
        blocks in memory.  The directory is created if missing; the
        store owns the segment files it writes and removes them on
        :meth:`close`.
    """

    def __init__(
        self,
        machines: Sequence[str],
        directory: str | Path | None = None,
    ) -> None:
        self.machines = list(machines)
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._segments: list[Path] = []
        self._memory: list[OutcomeTable] = []
        self._n_rows = 0
        #: Bytes currently spilled to disk (0 for in-memory stores).
        self.spilled_bytes = 0

    def __len__(self) -> int:
        return self._n_rows

    @property
    def n_blocks(self) -> int:
        return len(self._segments) + len(self._memory)

    # ------------------------------------------------------------------
    def append(self, table: OutcomeTable) -> None:
        """Flush one settled block (empty blocks are dropped)."""
        if table.machines != self.machines:
            raise ValueError(
                "spilled block has a different machine table than the store"
            )
        if not len(table):
            return
        if self.directory is None:
            self._memory.append(table)
        else:
            segment = self.directory / f"block-{len(self._segments):06d}.npz"
            try:
                np.savez(
                    segment,
                    **{name: getattr(table, name) for name, _ in OUTCOME_FIELDS},
                )
            except BaseException:
                # A failed write (a full disk) may leave a partial file
                # that no list tracks; remove it so close() leaves none.
                segment.unlink(missing_ok=True)
                raise
            self.spilled_bytes += segment.stat().st_size
            self._segments.append(segment)
        self._n_rows += len(table)

    def blocks(self) -> Iterator[OutcomeTable]:
        """Stream the blocks back in append (completion) order.

        Disk-backed stores hold one block in memory at a time.
        """
        if self.directory is None:
            yield from self._memory
            return
        for segment in self._segments:
            try:
                with np.load(segment) as data:
                    columns = {name: data[name] for name, _ in OUTCOME_FIELDS}
            except (OSError, ValueError, KeyError, EOFError, BadZipFile) as exc:
                raise ValueError(
                    f"spill segment {segment} is truncated or corrupt: {exc}"
                ) from exc
            yield OutcomeTable(self.machines, **columns)

    def materialize(self) -> OutcomeTable:
        """Concatenate every block into one in-memory table.

        Row order equals the completion-ordered finish log — the same
        table the non-streaming engine would have produced.  Only for
        consumers that genuinely need all rows at once (tests, row
        views); aggregates should stream :meth:`blocks` instead.
        """
        parts = list(self.blocks())
        if not parts:
            return OutcomeTable.empty(self.machines)
        if len(parts) == 1:
            return parts[0]
        return OutcomeTable(
            self.machines,
            **{
                name: np.concatenate([getattr(p, name) for p in parts])
                for name, _ in OUTCOME_FIELDS
            },
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Delete on-disk segments and drop in-memory blocks."""
        for segment in self._segments:
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments.clear()
        self._memory.clear()
        self._n_rows = 0
        self.spilled_bytes = 0

    def __enter__(self) -> "OutcomeSpillStore":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()


__all__ = ["OutcomeSpillStore"]
