"""Decode-and-encode: every input file becomes encoded ``R_1`` columns.

``SALES(trans_id, item)`` sorted by ``trans_id`` *is* the paper's
``R_1``, so a loaded file goes straight into that form:
:func:`load_dataset` pulls ``(trans_id, item)`` column batches from a
:class:`~repro.data.formats.ChunkSource` and dictionary-encodes each
batch with a few vectorized passes — lexsort by ``(trans_id, label)``,
drop duplicate rows, give ids only to the batch's distinct labels —
appending onto the flat ``R_1`` columns.  No Python object per
transaction or per row exists on the way; :meth:`EncodedDataset.database`
builds the classic labelled :class:`TransactionDatabase` on demand for
the engines that want one (and for :mod:`repro.data.io`'s readers).

``chunk_rows=None`` reads the whole file as one batch, so rows may come
in any order and duplicates collapse.  A chunk size bounds the pass:
peak ingest memory is **O(chunk + catalog)**, and, when a
``memory_budget_bytes`` is given, the growing encoded item column is
spilled through the :class:`~repro.core.partitioning.Partition` chunk
machinery whenever it reaches half the budget.  Two problems make the
bounded pass more than a loop:

* **The sorted-id invariant.**  :class:`ItemCatalog` assigns ids in
  sorted label order (numeric id order must equal lexicographic label
  order — the packed-key machinery depends on it), but a bounded pass
  sees labels batch by batch.  The encoder therefore uses
  *provisional* first-appearance ids
  (:class:`~repro.core.transactions.CatalogBuilder`) and applies the
  final ``provisional -> sorted`` remap at the end: one vectorized
  gather over the resident column, one streamed rewrite per spilled
  chunk.  Rows are sorted by label *before* provisional encoding, so
  the remapped rows land in exactly the whole-file order — the product
  is byte-identical to :meth:`InstanceRelation.sales_from_database`.
* **The ordering contract.**  A bounded pass cannot regroup rows, so
  chunked input must arrive grouped by ascending ``trans_id`` (what
  ``write_sales_csv``/``write_basket_file`` and any clustered
  relational scan produce); the last transaction of a batch is carried
  into the next, which may continue it.  Violations raise a typed
  :class:`~repro.errors.IngestError` naming the whole-file readers as
  the fallback for unsorted data.

The product, :class:`EncodedDataset`, carries the catalog plus the
physical ``R_1`` columns and quacks enough like a database
(``num_transactions``, ``absolute_support``) that engines flagged
``streaming_ingest`` mine it directly.
"""

from __future__ import annotations

import os
import tempfile
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.columns import (
    COLUMN_TYPECODE,
    InstanceRelation,
    SalesIndex,
    read_chunks,
)
from repro.core.partitioning import Partition
from repro.core.transactions import (
    ItemCatalog,
    Transaction,
    TransactionDatabase,
    absolute_support_threshold,
    sales_rows_to_transactions,
)
from repro.data.formats import ChunkSource, ColumnChunk, open_chunk_source
from repro.errors import IngestError

__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "EncodedDataset",
    "IngestStats",
    "load_dataset",
    "stream_encode",
]

#: Default decoder batch size when the caller does not choose one.
DEFAULT_CHUNK_ROWS = 65536


def _column(values=()) -> array:
    return array(COLUMN_TYPECODE, values)


@dataclass
class IngestStats:
    """Telemetry of one streaming ingest, for ``extra["ingest"]``.

    Decoder-side counters (bytes, chunks, rows) come from the source's
    :class:`~repro.data.formats.DecodeStats`; the encode-side counters
    (transactions, distinct items, spill traffic) are this module's.
    """

    format: str
    path: str
    chunk_rows: int | None
    chunks: int = 0
    rows: int = 0
    transactions: int = 0
    distinct_items: int = 0
    bytes_total: int = 0
    bytes_read: int = 0
    bytes_decoded: int = 0
    bytes_read_reduction: float = 0.0
    bytes_decoded_reduction: float = 0.0
    columns_total: int = 0
    columns_read: int = 0
    memory_budget_bytes: int | None = None
    spilled_chunks: int = 0
    spill_bytes_written: int = 0
    extra: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "format": self.format,
            "path": self.path,
            "chunk_rows": self.chunk_rows,
            "chunks": self.chunks,
            "rows": self.rows,
            "transactions": self.transactions,
            "distinct_items": self.distinct_items,
            "bytes_total": self.bytes_total,
            "bytes_read": self.bytes_read,
            "bytes_decoded": self.bytes_decoded,
            "bytes_read_reduction": self.bytes_read_reduction,
            "bytes_decoded_reduction": self.bytes_decoded_reduction,
            "columns_total": self.columns_total,
            "columns_read": self.columns_read,
            "memory_budget_bytes": self.memory_budget_bytes,
            "spilled_chunks": self.spilled_chunks,
            "spill_bytes_written": self.spill_bytes_written,
            **self.extra,
        }


class EncodedDataset:
    """A dictionary-encoded ``SALES`` relation, ready to mine.

    Physically: the :class:`ItemCatalog`, the flat encoded item column
    (resident, or as spilled :class:`Partition` chunks until first
    use), and the ``(trans_ids, run_lengths)`` run-length framing.
    ``run_lengths[i]`` rows of ``items`` belong to ``trans_ids[i]``;
    a zero run length is an empty transaction (it still counts toward
    the support denominator).

    The duck-typed surface the shared Figure-4 loop needs —
    ``num_transactions`` and ``absolute_support`` — is provided here,
    so engines whose kernels accept the columnar form
    (``streaming_ingest`` capability) mine this object directly;
    :meth:`database` bridges to every other engine by materializing
    Python transaction objects.
    """

    __slots__ = (
        "catalog",
        "base",
        "run_lengths",
        "trans_ids",
        "stats",
        "generation",
        "_items",
        "_partitions",
        "_num_rows",
        "_spill_root",
        "_owns_spill_root",
        "_materialized",
    )

    def __init__(
        self,
        catalog: ItemCatalog,
        *,
        items: array | None,
        partitions: list[Partition] | None = None,
        run_lengths: array,
        trans_ids: array,
        stats: IngestStats | None = None,
        num_rows: int | None = None,
        spill_root: Path | None = None,
        owns_spill_root: bool = False,
        generation: int = 0,
    ) -> None:
        self.catalog = catalog
        self.base = len(catalog) + 1
        self.run_lengths = run_lengths
        self.trans_ids = trans_ids
        self.stats = stats
        #: Monotonic append counter: 0 for a fresh encode, bumped by
        #: every :meth:`append_chunks`.  Result caches key on it so an
        #: append can never serve pre-append patterns.
        self.generation = generation
        self._items = items
        self._partitions = list(partitions or [])
        if num_rows is None:
            num_rows = (len(items) if items is not None else 0) + sum(
                partition.num_rows for partition in self._partitions
            )
        self._num_rows = num_rows
        self._spill_root = spill_root
        self._owns_spill_root = owns_spill_root
        self._materialized: tuple | None = None

    # -- database-shaped surface ---------------------------------------------------

    @property
    def num_transactions(self) -> int:
        """Support denominator: every transaction, including empty ones."""
        return len(self.trans_ids)

    @property
    def num_sales_rows(self) -> int:
        """``|R_1|``: total encoded ``(trans_id, item)`` rows."""
        return self._num_rows

    def absolute_support(self, minimum_support: float | int) -> int:
        """Same semantics as :meth:`TransactionDatabase.absolute_support`."""
        return absolute_support_threshold(
            minimum_support, self.num_transactions
        )

    # -- the physical columns ------------------------------------------------------

    @property
    def items(self) -> array:
        """The encoded item column (merges spilled chunks on first access).

        Materializing consumes the spill files — they are scratch, and
        once their rows are resident there is nothing left to read from
        them — so the ingest spill directory is cleaned up here.
        """
        if self._partitions:
            merged = _column()
            for partition in self._partitions:
                for chunk in read_chunks(partition.read_bytes()):
                    merged.frombytes(chunk.keys.tobytes())
                partition.delete()
            if self._items is not None:
                merged.extend(self._items)
            self._items = merged
            self._partitions = []
            self._cleanup_spill_root()
        if self._items is None:
            self._items = _column()
        return self._items

    def sales_index(self) -> SalesIndex:
        """The extension index over this dataset's ``R_1`` columns."""
        return SalesIndex(
            self.items,
            base=self.base,
            run_lengths=self.run_lengths,
            trans_ids=self.trans_ids,
        )

    def sales_relation(self) -> InstanceRelation:
        """``R_1`` as an :class:`InstanceRelation`, index attached.

        Byte-identical to what
        :meth:`InstanceRelation.sales_from_database` builds from the
        equivalent whole-file database — the equivalence suite holds
        it to that.
        """
        return InstanceRelation.sales_from_columns(
            self.items,
            base=self.base,
            run_lengths=self.run_lengths,
            trans_ids=self.trans_ids,
        )

    def iter_item_chunks(self):
        """Yield the encoded item column in its physical int64 pieces.

        Spilled chunks stream one at a time without merging — the seam
        the incremental-mining work builds on.  Does not consume the
        spill files.
        """
        for partition in self._partitions:
            for chunk in read_chunks(partition.read_bytes()):
                yield chunk.keys
        if self._items is not None and (self._partitions or self._items):
            yield self._items

    # -- appends -------------------------------------------------------------------

    def append_chunks(
        self,
        source: ChunkSource,
        *,
        memory_budget_bytes: int | None = None,
    ) -> dict[str, Any]:
        """Stream-encode ``source`` onto the end of this dataset, in place.

        The delta pass reuses the whole streaming-encode discipline:
        new transactions are provisionally encoded against a
        :class:`CatalogBuilder` pre-seeded with the existing labels,
        and the final sorted remap restores the id-order invariant for
        the *union* catalog.  When new labels sort between existing
        ones, the existing encoded columns (resident tail and spilled
        chunks alike) are re-gathered through the ``old id -> new id``
        map, so the result is byte-identical to a from-scratch encode
        of the concatenated input.  Appended trans_ids must be strictly
        greater than every existing one (the same ascending-groups
        contract a single file obeys); violations raise a typed
        :class:`~repro.errors.IngestError` before anything mutates.

        Bumps :attr:`generation` and returns the append telemetry
        (also recorded under ``stats.extra["appends"]``).
        """
        base_last = (
            int(self.trans_ids[-1]) if len(self.trans_ids) else None
        )
        encoder = _StreamEncoder(
            memory_budget_bytes,
            self._spill_root,
            ordered=source.chunk_rows is not None,
        )
        encoder.file_prefix = f"append-{self.generation + 1:03d}-r1"
        encoder.last_tid = base_last
        encoder.row_offset = self._num_rows
        old_items = len(self.catalog)
        try:
            # Seed every existing label so the rebuilt catalog covers the
            # union even when the delta never mentions an old item.
            encoder.builder.encode(self.catalog.labels())
            encoder.encode(source)
            if (
                base_last is not None
                and len(encoder.trans_ids)
                and encoder.trans_ids[0] <= base_last
            ):
                # Rows fail inside add_chunk; this catches empty
                # transactions merged in front of the delta.
                raise IngestError(
                    f"appended trans_ids must be strictly greater than "
                    f"the existing ones; trans_id {encoder.trans_ids[0]!r} "
                    f"arrived after {base_last!r}"
                )
            catalog = encoder.remap()
        except BaseException:
            for partition in encoder.partitions:
                partition.delete()
            if encoder.owns_spill_root and encoder.spill_root is not None:
                try:
                    encoder.spill_root.rmdir()
                except OSError:
                    pass
            raise

        # From here on only infallible column splices mutate the dataset.
        old_to_new = [0] + [
            catalog.id_of(self.catalog.label_of(old_id))
            for old_id in range(1, old_items + 1)
        ]
        identity = old_to_new == list(range(old_items + 1))
        if not identity:
            if self._items:
                self._items = _remap_column(self._items, old_to_new)
            for partition in self._partitions:
                pieces = []
                for chunk in read_chunks(partition.read_bytes()):
                    remapped = InstanceRelation(
                        None,
                        None,
                        last_sid=chunk.last_sid,
                        keys=_remap_column(chunk.keys, old_to_new),
                        k=1,
                    )
                    pieces.append(remapped.to_chunk_bytes())
                partition.path.write_bytes(b"".join(pieces))
        if encoder.spill_root is not None and self._spill_root is None:
            self._spill_root = encoder.spill_root
            self._owns_spill_root = encoder.owns_spill_root
        if encoder.partitions and self._items:
            # Physical order is partitions-then-resident; a resident base
            # tail must therefore spill before delta partitions land.
            relation = InstanceRelation(
                None,
                None,
                last_sid=range(
                    self._num_rows - len(self._items), self._num_rows
                ),
                keys=self._items,
                k=1,
            )
            path = (
                self._spill_root
                / f"append-{self.generation + 1:03d}-base-tail.chunks"
            )
            path.write_bytes(relation.to_chunk_bytes())
            self._partitions.append(
                Partition(1, num_rows=len(self._items), path=path)
            )
            self._items = None
        self._partitions.extend(encoder.partitions)
        if self._items is None:
            self._items = encoder.items
        else:
            self._items.extend(encoder.items)
        self.trans_ids.extend(encoder.trans_ids)
        self.run_lengths.extend(encoder.run_lengths)
        delta_rows = encoder.row_offset + len(encoder.items) - self._num_rows
        self._num_rows = encoder.row_offset + len(encoder.items)
        self.catalog = catalog
        self.base = len(catalog) + 1
        self.generation += 1

        decode_stats = source.stats
        info = {
            "generation": self.generation,
            "path": decode_stats.path,
            "format": decode_stats.format,
            "rows": delta_rows,
            "transactions": len(encoder.trans_ids),
            "new_items": len(catalog) - old_items,
            "remapped_base_ids": not identity,
            "spilled_chunks": encoder.spilled_chunks,
        }
        if self.stats is not None:
            stats = self.stats
            stats.chunks += decode_stats.chunks
            stats.rows += decode_stats.rows
            stats.transactions = self.num_transactions
            stats.distinct_items = len(catalog)
            stats.bytes_total += decode_stats.bytes_total
            stats.bytes_read += decode_stats.bytes_read
            stats.bytes_decoded += decode_stats.bytes_decoded
            stats.spilled_chunks += encoder.spilled_chunks
            stats.spill_bytes_written += encoder.spill_bytes_written
            stats.extra.setdefault("appends", []).append(info)
        return info

    # -- bridges to the object world -----------------------------------------------

    def database(self, *, decoded: bool = False) -> TransactionDatabase:
        """Materialize the classic :class:`TransactionDatabase` form.

        With ``decoded=False`` items are the catalog ids (what
        ``database.encoded()`` would have produced); with
        ``decoded=True`` they are the original labels — byte-identical
        to the whole-file reader's output, which is what lets engines
        without the ``streaming_ingest`` capability mine a streamed
        file transparently.  The last form built is kept until the
        next append, so repeated runs of such engines build it once.
        """
        key = (self.generation, decoded)
        if self._materialized is not None and self._materialized[0] == key:
            return self._materialized[1]
        items = np.frombuffer(self.items, dtype=np.int64)
        if decoded:
            labels = np.array([None, *self.catalog.labels()], dtype=object)
            values = labels[items].tolist()
        else:
            values = items.tolist()
        run_lengths = np.frombuffer(self.run_lengths, dtype=np.int64)
        ends = np.cumsum(run_lengths)
        starts = ends - run_lengths
        database = TransactionDatabase(
            Transaction(trans_id, tuple(values[start:end]))
            for trans_id, start, end in zip(
                self.trans_ids, starts.tolist(), ends.tolist()
            )
        )
        self._materialized = (key, database)
        return database

    def close(self) -> None:
        """Delete any remaining spill chunks and the owned spill root."""
        for partition in self._partitions:
            partition.delete()
        self._partitions = []
        self._cleanup_spill_root()

    def _cleanup_spill_root(self) -> None:
        if self._owns_spill_root and self._spill_root is not None:
            try:
                self._spill_root.rmdir()
            except OSError:
                pass
            self._spill_root = None

    def __repr__(self) -> str:
        return (
            f"EncodedDataset(transactions={self.num_transactions}, "
            f"rows={self.num_sales_rows}, items={len(self.catalog)}, "
            f"spilled={len(self._partitions)})"
        )


class _StreamEncoder:
    """The one encoder behind :func:`stream_encode` and appends.

    Each decoded chunk is encoded in a few vectorized passes: its
    distinct labels are sorted once, its rows are lexsorted by
    ``(trans_id, label)`` and de-duplicated, and only those distinct
    labels go through the :class:`CatalogBuilder`.  ``ordered``
    (chunked reads) demands rows grouped by ascending ``trans_id`` and
    carries the last group of a chunk into the next one, since it may
    continue there; a whole-file read arrives as one chunk in any
    order.
    """

    def __init__(
        self,
        memory_budget_bytes: int | None,
        spill_dir: str | os.PathLike | None,
        *,
        ordered: bool,
    ) -> None:
        if memory_budget_bytes is not None and (
            isinstance(memory_budget_bytes, bool)
            or not isinstance(memory_budget_bytes, int)
            or memory_budget_bytes < 1
        ):
            raise IngestError(
                "memory_budget_bytes must be a positive integer or None; "
                f"got {memory_budget_bytes!r}"
            )
        self.ordered = ordered
        self.builder = ItemCatalog.builder()
        self.items = _column()
        self.run_lengths = _column()
        self.trans_ids = _column()
        self.partitions: list[Partition] = []
        self.empty_tids: list[int] = []
        #: ``(trans_id, sorted labels)`` of a group the next chunk may
        #: continue (ordered reads only).
        self.tail: tuple[int, list] | None = None
        self.last_tid: int | None = None
        self.row_offset = 0
        self.spilled_chunks = 0
        self.spill_bytes_written = 0
        # Spill at half the budget: the remap pass (and a mid-flight
        # chunk) must fit beside the resident column inside 2x budget.
        self.budget = memory_budget_bytes
        self.spill_threshold = (
            max(8, memory_budget_bytes // 2)
            if memory_budget_bytes is not None
            else None
        )
        self.spill_dir_option = spill_dir
        self.spill_root: Path | None = None
        self.owns_spill_root = False
        # Spill-file name prefix; append passes use a generation-tagged
        # prefix so delta chunks never collide with the base files in a
        # shared spill root.
        self.file_prefix = "ingest-r1"

    def encode(self, source: ChunkSource) -> None:
        """Encode every chunk of ``source``, then close the framing."""
        chunks = iter(source)
        if not self.ordered:
            chunks = iter([ColumnChunk.concat(list(chunks))])
        for chunk in chunks:
            self.add_chunk(chunk)
            self.maybe_spill()
        self.finish()
        self.merge_empty_transactions()

    # -- transaction grouping ------------------------------------------------------

    def add_chunk(self, chunk: ColumnChunk) -> None:
        self.empty_tids.extend(chunk.empty_trans_ids)
        tids, codes, labels = chunk.trans_ids, chunk.codes, chunk.labels
        if not len(tids):
            return
        if self.ordered:
            self._check_ascending(tids)
        if self.tail is not None:
            tail_tid, tail_labels = self.tail
            self.tail = None
            codes = np.concatenate(
                (np.arange(len(labels), len(labels) + len(tail_labels)), codes)
            )
            tids = np.concatenate(
                (np.full(len(tail_labels), tail_tid, dtype=np.int64), tids)
            )
            labels = labels + tail_labels
        distinct, ranks = _rank_labels(tids, codes, labels)
        order = np.lexsort((ranks, tids))
        tids = tids[order]
        ranks = ranks[order]
        fresh = np.empty(len(tids), dtype=bool)
        fresh[0] = True
        fresh[1:] = (tids[1:] != tids[:-1]) | (ranks[1:] != ranks[:-1])
        tids = tids[fresh]
        ranks = ranks[fresh]
        if self.ordered:
            cut = int(np.searchsorted(tids, tids[-1]))
            self.tail = (
                int(tids[-1]),
                [distinct[rank] for rank in ranks[cut:].tolist()],
            )
            tids = tids[:cut]
            ranks = ranks[:cut]
        elif self.last_tid is not None and tids[0] <= self.last_tid:
            self._out_of_order(tids[0], self.last_tid)
        self._append_groups(tids, ranks, distinct)

    def _check_ascending(self, tids: np.ndarray) -> None:
        first = tids[0]
        if self.tail is not None:
            if first < self.tail[0]:
                self._out_of_order(first, self.tail[0])
        elif self.last_tid is not None and first <= self.last_tid:
            self._out_of_order(first, self.last_tid)
        drops = np.flatnonzero(tids[1:] < tids[:-1])
        if len(drops):
            self._out_of_order(tids[drops[0] + 1], tids[drops[0]])

    @staticmethod
    def _out_of_order(trans_id, previous) -> None:
        raise IngestError(
            f"streaming ingest needs rows grouped by ascending "
            f"trans_id; trans_id {int(trans_id)!r} arrived after "
            f"{int(previous)!r} (for unsorted data use the "
            f"whole-file readers in repro.data.io)"
        )

    def _append_groups(
        self, tids: np.ndarray, ranks: np.ndarray, distinct: list
    ) -> None:
        """Append sorted, de-duplicated rows as whole transactions."""
        if not len(tids):
            return
        provisional = np.array(self.builder.encode(distinct), dtype=np.int64)
        starts = np.flatnonzero(
            np.concatenate(([True], tids[1:] != tids[:-1]))
        )
        self.items.frombytes(provisional[ranks].tobytes())
        self.trans_ids.frombytes(tids[starts].tobytes())
        self.run_lengths.frombytes(
            np.diff(np.append(starts, len(tids))).astype(np.int64).tobytes()
        )
        self.last_tid = int(tids[-1])

    def finish(self) -> None:
        """Flush the carried group: no chunk can continue it now."""
        if self.tail is not None:
            trans_id, labels = self.tail
            self.tail = None
            self._append_groups(
                np.full(len(labels), trans_id, dtype=np.int64),
                np.arange(len(labels)),
                labels,
            )

    # -- spilling ------------------------------------------------------------------

    def maybe_spill(self) -> None:
        if (
            self.spill_threshold is None
            or len(self.items) * self.items.itemsize < self.spill_threshold
        ):
            return
        self._spill_resident()

    def _spill_resident(self) -> None:
        if not self.items:
            return
        if self.spill_root is None:
            if self.spill_dir_option is None:
                self.spill_root = Path(
                    tempfile.mkdtemp(prefix="repro-ingest-")
                )
                self.owns_spill_root = True
            else:
                self.spill_root = Path(self.spill_dir_option)
                self.spill_root.mkdir(parents=True, exist_ok=True)
        relation = InstanceRelation(
            None,
            None,
            last_sid=range(self.row_offset, self.row_offset + len(self.items)),
            keys=self.items,
            k=1,
        )
        blob = relation.to_chunk_bytes()
        path = (
            self.spill_root
            / f"{self.file_prefix}-{len(self.partitions):06d}.chunks"
        )
        path.write_bytes(blob)
        self.partitions.append(
            Partition(1, num_rows=len(self.items), path=path)
        )
        self.spilled_chunks += 1
        self.spill_bytes_written += len(blob)
        self.row_offset += len(self.items)
        self.items = _column()

    # -- finalization --------------------------------------------------------------

    def merge_empty_transactions(self) -> None:
        """Fold zero-item transactions into the run-length framing.

        A stable sort by trans_id reproduces exactly the whole-file
        order; on ordered reads an out-of-order empty trans_id fails
        typed here, and a trans_id both empty and with items always
        does.
        """
        if not self.empty_tids:
            return
        empties = np.array(self.empty_tids, dtype=np.int64)
        if self.ordered:
            drops = np.flatnonzero(empties[1:] <= empties[:-1])
            if len(drops):
                raise IngestError(
                    f"streaming ingest needs rows grouped by ascending "
                    f"trans_id; empty trans_id "
                    f"{int(empties[drops[0] + 1])!r} arrived after "
                    f"{int(empties[drops[0]])!r}"
                )
        trans_ids = np.frombuffer(self.trans_ids, dtype=np.int64)
        clash = np.intersect1d(empties, trans_ids)
        if len(clash):
            raise IngestError(
                f"duplicate trans_id {int(clash[0])!r}: appears both "
                "empty and with items"
            )
        merged = np.concatenate((trans_ids, empties))
        order = np.argsort(merged, kind="stable")
        runs = np.concatenate(
            (
                np.frombuffer(self.run_lengths, dtype=np.int64),
                np.zeros(len(empties), dtype=np.int64),
            )
        )
        self.trans_ids = _column_of(merged[order])
        self.run_lengths = _column_of(runs[order])

    def remap(self) -> ItemCatalog:
        """Resolve provisional ids to the final sorted-order catalog ids."""
        catalog, remap = self.builder.build()
        self.items = _remap_column(self.items, remap)
        for partition in self.partitions:
            data = partition.read_bytes()
            pieces = []
            for chunk in read_chunks(data):
                remapped = InstanceRelation(
                    None,
                    None,
                    last_sid=chunk.last_sid,
                    keys=_remap_column(chunk.keys, remap),
                    k=1,
                )
                pieces.append(remapped.to_chunk_bytes())
            blob = b"".join(pieces)
            partition.path.write_bytes(blob)
            self.spill_bytes_written += len(blob)
        return catalog


def _rank_labels(
    tids: np.ndarray, codes: np.ndarray, labels: list
) -> tuple[list, np.ndarray]:
    """The sorted distinct labels, and each row's rank among them."""
    try:
        distinct = sorted(set(labels))
    except TypeError:
        # Labels that cannot be ordered fail as the object model fails:
        # one transaction mixing them, else the dataset mixing them.
        sales_rows_to_transactions(
            zip(tids.tolist(), map(labels.__getitem__, codes.tolist()))
        )
        raise
    position = {label: rank for rank, label in enumerate(distinct)}
    rank_of_code = np.array(
        [position[label] for label in labels], dtype=np.int64
    )
    return distinct, rank_of_code[codes]


def _column_of(values: np.ndarray) -> array:
    out = _column()
    out.frombytes(np.ascontiguousarray(values, dtype=np.int64).tobytes())
    return out


def _remap_column(values, remap: list[int]) -> array:
    """Gather ``remap[value]`` for every value, as a fresh int64 column."""
    remap_np = np.asarray(remap, dtype=np.int64)
    if isinstance(values, array):
        source = np.frombuffer(values, dtype=np.int64)
    else:
        source = np.asarray(values, dtype=np.int64)
    return _column_of(remap_np[source])


def stream_encode(
    source: ChunkSource,
    *,
    memory_budget_bytes: int | None = None,
    spill_dir: str | os.PathLike | None = None,
) -> EncodedDataset:
    """Dictionary-encode a source into an :class:`EncodedDataset`.

    A source with ``chunk_rows=None`` is encoded as one batch: rows may
    come in any order and duplicate rows collapse.  A chunked source is
    one bounded pass over rows grouped by ascending ``trans_id``; with
    a ``memory_budget_bytes`` the growing encoded column spills as
    :class:`Partition` chunks whenever it reaches half the budget, so
    peak resident ingest state is O(chunk + catalog).  The final remap
    pass (provisional first-appearance ids to sorted catalog ids)
    restores the :class:`ItemCatalog` id-order invariant, making the
    product byte-identical to the whole-file encode.

    Raises
    ------
    IngestError
        Chunked rows not grouped by ascending ``trans_id``, a trans_id
        both empty and with items, or an invalid
        ``memory_budget_bytes``.
    ValueError
        A malformed input line (from the decoder).
    TypeError
        Item labels that cannot be ordered against each other.
    """
    encoder = _StreamEncoder(
        memory_budget_bytes, spill_dir, ordered=source.chunk_rows is not None
    )
    encoder.encode(source)
    catalog = encoder.remap()

    decode_stats = source.stats
    stats = IngestStats(
        format=decode_stats.format,
        path=decode_stats.path,
        chunk_rows=source.chunk_rows,
        chunks=decode_stats.chunks,
        rows=decode_stats.rows,
        transactions=len(encoder.trans_ids),
        distinct_items=len(catalog),
        bytes_total=decode_stats.bytes_total,
        bytes_read=decode_stats.bytes_read,
        bytes_decoded=decode_stats.bytes_decoded,
        bytes_read_reduction=round(decode_stats.bytes_read_reduction, 4),
        bytes_decoded_reduction=round(
            decode_stats.bytes_decoded_reduction, 4
        ),
        columns_total=decode_stats.columns_total,
        columns_read=decode_stats.columns_read,
        memory_budget_bytes=memory_budget_bytes,
        spilled_chunks=encoder.spilled_chunks,
        spill_bytes_written=encoder.spill_bytes_written,
    )
    return EncodedDataset(
        catalog,
        items=encoder.items,
        partitions=encoder.partitions,
        run_lengths=encoder.run_lengths,
        trans_ids=encoder.trans_ids,
        stats=stats,
        num_rows=encoder.row_offset + len(encoder.items),
        spill_root=encoder.spill_root,
        owns_spill_root=encoder.owns_spill_root,
    )


def load_dataset(
    path: str | os.PathLike,
    *,
    input_format: str | None = "auto",
    chunk_rows: int | None = DEFAULT_CHUNK_ROWS,
    memory_budget_bytes: int | None = None,
    spill_dir: str | os.PathLike | None = None,
) -> EncodedDataset:
    """Decode and encode a transaction file in one call.

    ``chunk_rows=None`` reads the whole file at once, in any row order;
    a chunk size streams it (see :func:`stream_encode`).
    ``input_format`` of ``"auto"`` sniffs magic bytes and extension
    (see :func:`repro.data.formats.detect_format`); ``parquet`` and
    ``arrow`` need the optional ``pyarrow`` dependency and fail typed
    without it.
    """
    source = open_chunk_source(
        path, input_format=input_format, chunk_rows=chunk_rows
    )
    return stream_encode(
        source,
        memory_budget_bytes=memory_budget_bytes,
        spill_dir=spill_dir,
    )
