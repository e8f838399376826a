"""Columnar relation kernel: dictionary-encoded, array-backed ``R_k`` relations.

Representations
---------------
The package carries two in-memory representations of the paper's ``R_k``
instance relations, and the choice is the whole performance story:

* **Tuples** (:mod:`repro.core.setm`): one Python tuple
  ``(trans_id, item_1, ..., item_k)`` per row.  This mirrors Figure 4
  line by line — every sort, scan, and filter is visible as the paper
  wrote it — which is exactly what the Figure 5/6 reproduction needs.
  The price is row-at-a-time Python: every merge-scan output allocates
  a fresh tuple, every count/filter step re-allocates ``tuple(row[1:])``,
  and sorts compare heterogeneous tuples element by element.

* **Columnar** (this module): an ``R_k`` relation is flat int64 numpy
  columns, with items dictionary-encoded to dense integer ids through
  :class:`~repro.core.transactions.ItemCatalog`.  Rows never exist as
  Python objects inside the loop.  Three ideas carry the speedup:

  1. **Run-length group delimitation.**  Trans_id groups in the sorted
     ``SALES`` column are delimited once (:class:`SalesIndex`), instead
     of per-row equality tests on every pass.
  2. **The merge-scan as index arithmetic.**  ``R_1`` never changes, so
     the merge-scan join degenerates: every ``R_k`` row remembers the
     *global sales position* of its last item (the ``last_sid``
     column), and its Figure-4 extensions are exactly the suffix of its
     transaction's run — ``sales[s+1 : txn_end(s)]``.
     :class:`SalesIndex` precomputes the run ends once;
     :func:`suffix_extend` then produces ``R'_k`` as a few whole-column
     operations (``np.repeat`` ragged-range expansion plus gathers).
  3. **One int64 key per pattern.**  Counting is a single sort
     (``np.unique``) or hash pass over one key column
     (:func:`count_packed_keys`) — never ``tuple(row[1:])`` — and the
     minimum-support filter is one ``np.isin`` mask
     (:func:`filter_by_keys`).

Pattern keys
------------
Figure 4 builds ``R_k`` by filtering ``R'_k`` through ``C_k``, so the
first ``k`` items of every ``R_{k+1}`` row form a row of the sorted
frequent set ``F_k`` — and that row's *position* names the prefix
without loss.  Keys are therefore dense per level, in radix
``base = |catalog| + 1``:

* level 1: the item id;
* level 2: ``item_1 * base + item_2`` (``R_1`` is joined unfiltered,
  Section 4.1, so the prefix is the item itself);
* level ``k + 1`` for ``k >= 2``: ``rank_k(prefix) * base + item``,
  where ``rank_k`` is the position of the row's level-``k`` key in the
  sorted array of frequent level-``k`` keys.

Rank is monotone in the key, so numeric key order is lexicographic
pattern order at every level and rows stay sorted by
``(trans_id, pattern)`` without a re-sort.  A key is below
``len(F_k) * base``, which :func:`suffix_extend` checks against int64
before it scales (:class:`~repro.errors.KeySpaceError` otherwise), so
no key ever wraps.  :class:`PatternKeys` keeps a run's ``F_k`` arrays
and decodes keys by walking down the ranks.  ``R_k`` rows keep their
level-``k`` keys, so counting, filtering, key-range routing, spill
chunks and transport payloads all see plain int64 values.

The tuple engine stays the faithful reference; this kernel feeds the
``setm-columnar`` engine (:mod:`repro.core.setm_columnar`) and is
differentially tested to produce identical counts and iteration
statistics.  The group/scan primitives (:func:`tid_group_bounds`,
:func:`count_sorted_rows`) are representation-level, not engine-level,
so the paged storage engine's :mod:`repro.storage.mergejoin` shares
them.

This module is a dependency leaf: it imports only numpy, the standard
library and the leaf modules :mod:`repro.core.transactions` and
:mod:`repro.errors`, so :mod:`repro.storage` can import it without
creating a package cycle.
"""

from __future__ import annotations

import struct
from array import array
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain
from typing import Literal

import numpy as np

from repro.core.transactions import ItemCatalog, TransactionDatabase
from repro.errors import KeySpaceError

__all__ = [
    "InstanceRelation",
    "PatternKeys",
    "SalesIndex",
    "count_packed_keys",
    "count_sorted_rows",
    "extend_rows",
    "extension_counts",
    "filter_by_keys",
    "read_chunks",
    "suffix_extend",
    "take",
    "tid_group_bounds",
]

#: Typecode of the ``array('q')`` columns the ingest layer builds:
#: signed 64-bit, enough for any trans_id or dictionary-encoded item id
#: (the paper's 4-byte fields fit trivially).
COLUMN_TYPECODE = "q"

_INT64_MAX = 2**63 - 1

#: Spill-chunk framing (see :meth:`InstanceRelation.to_chunk_bytes`):
#: magic, two reserved bytes, k (uint32), rows (int64), payload bytes
#: (int64).
_CHUNK_MAGIC = b"RKC1"
_CHUNK_HEADER = struct.Struct("<4s2xIqq")


def _as_int64(values) -> np.ndarray:
    """An int64 ndarray of any column input (a view for buffers)."""
    if isinstance(values, array):
        return np.frombuffer(values, dtype=np.int64)
    if isinstance(values, range):
        return np.arange(
            values.start, values.stop, values.step, dtype=np.int64
        )
    return np.asarray(values, dtype=np.int64)


class InstanceRelation:
    """An ``R_k`` relation as flat int64 columns.

    Logically every relation has ``k + 1`` columns — ``tids`` plus
    ``items[0..k-1]`` — and rows are maintained in
    ``(trans_id, item_1, ..., item_k)`` order by every kernel operation
    (simultaneously the merge-scan order and, within a transaction,
    lexicographic pattern order, so the explicit re-sorts of Figure 4
    become no-ops here).

    Physically a relation stores whichever columns it was built from:

    ``keys``
        The pattern key of each row (see the module docstring),
        maintained by the merge so counting and filtering never rebuild
        per-row tuples.
    ``last_sid``
        Global ``SALES`` position of each row's last item — the cursor
        the suffix merge of :func:`suffix_extend` resumes from.

    Relations produced inside the mining loop carry only those two;
    ``tids`` materializes lazily (the sales tid at ``last_sid``), and so
    do the ``items`` of levels 1 and 2, whose keys need only ``base`` to
    decode (deeper keys name their prefix by rank: decode them with the
    run's :class:`PatternKeys`).  Relations built from raw rows
    (:meth:`from_rows`) are eager instead.
    """

    __slots__ = ("_tids", "_items", "last_sid", "keys", "_k", "_index")

    def __init__(
        self,
        tids: np.ndarray | None,
        items: tuple[np.ndarray, ...] | None,
        *,
        last_sid: Sequence[int] | None = None,
        keys: Sequence[int] | None = None,
        k: int | None = None,
        index: "SalesIndex | None" = None,
    ) -> None:
        if items is None and (keys is None or k is None):
            raise ValueError(
                "a relation needs either materialized item columns or "
                "(keys, k) to derive them"
            )
        self._tids = tids
        self._items = items
        self.last_sid = last_sid
        self.keys = keys
        self._k = len(items) if items is not None else k
        self._index = index

    @classmethod
    def from_rows(
        cls, rows: Iterable[Sequence[int]], k: int
    ) -> "InstanceRelation":
        """Build eagerly from ``(trans_id, item_1..item_k)`` rows."""
        table = np.array(list(rows), dtype=np.int64).reshape(-1, k + 1)
        return cls(
            table[:, 0].copy(),
            tuple(table[:, j].copy() for j in range(1, k + 1)),
        )

    @classmethod
    def sales_from_database(
        cls, database: TransactionDatabase, catalog: ItemCatalog
    ) -> "InstanceRelation":
        """The ``SALES`` relation (``R_1``), dictionary-encoded.

        Rows arrive in ``(trans_id, item)`` order because transactions
        are stored sorted and item ids preserve label order (the
        :class:`ItemCatalog` id-assignment invariant).  ``last_sid`` is
        the identity (row ``s``'s only item sits at sales position
        ``s``), ``keys`` aliases the item column (a 1-pattern's key *is*
        its item id), and the trans_id column materializes lazily
        through the attached :class:`SalesIndex`.
        """
        items = np.fromiter(
            map(
                catalog.id_mapping().__getitem__,
                chain.from_iterable(txn.items for txn in database),
            ),
            dtype=np.int64,
        )
        return cls.sales_from_columns(
            items,
            base=len(catalog) + 1,
            run_lengths=[len(txn.items) for txn in database],
            trans_ids=[txn.trans_id for txn in database],
        )

    @classmethod
    def sales_from_columns(
        cls,
        items: Sequence[int],
        *,
        base: int,
        run_lengths: Sequence[int],
        trans_ids: Sequence[int],
    ) -> "InstanceRelation":
        """``R_1`` directly from its physical columns (chunk-append path).

        The streaming ingest layer builds the encoded item column and
        the ``(trans_ids, run_lengths)`` run-length framing in bounded
        appends (see :func:`repro.data.ingest.stream_encode`) and
        finishes here; :meth:`sales_from_database` is the same
        construction with the columns derived from Python transaction
        objects in one pass.  Requirements are those of the whole-file
        path: rows grouped by ascending ``trans_id``, items ascending
        within a transaction, ``base`` strictly greater than every
        item id.
        """
        index = SalesIndex(
            items,
            base=base,
            run_lengths=run_lengths,
            trans_ids=trans_ids,
        )
        return cls(
            None,
            (index.items,),
            last_sid=np.arange(len(index.items), dtype=np.int64),
            keys=index.items,
            k=1,
            index=index,
        )

    @property
    def k(self) -> int:
        """Pattern length: the number of (logical) item columns."""
        return self._k

    @property
    def index(self) -> "SalesIndex | None":
        """The :class:`SalesIndex` this relation derives from, if any."""
        return self._index

    def __len__(self) -> int:
        if self.keys is not None:
            return len(self.keys)
        return len(self._tids) if self._tids is not None else 0

    def _require_index(self) -> "SalesIndex":
        if self._index is None:
            raise ValueError(
                "this relation has no SalesIndex to derive tids/items "
                "from; pass index=... when deserializing chunks whose "
                "logical columns will be read"
            )
        return self._index

    @property
    def tids(self) -> np.ndarray:
        """The trans_id column (materialized on first access if needed)."""
        if self._tids is None:
            self._tids = self._require_index().tids[_as_int64(self.last_sid)]
        return self._tids

    @property
    def items(self) -> tuple[np.ndarray, ...]:
        """The item-id columns (materialized on first access if needed)."""
        if self._items is None:
            base = self._require_index().base
            if self._k > 2:
                raise ValueError(
                    f"level-{self._k} keys name their prefix by rank in "
                    "the run's frequent keys; decode them with "
                    "PatternKeys.decode"
                )
            keys = _as_int64(self.keys)
            self._items = (
                (keys,) if self._k == 1 else tuple(np.divmod(keys, base))
            )
        return self._items

    def row(self, index: int) -> tuple[int, ...]:
        """Materialize one row as a tuple (tests and debugging only)."""
        return (
            int(self.tids[index]),
            *(int(column[index]) for column in self.items),
        )

    def rows(self) -> Iterator[tuple[int, ...]]:
        """Materialize all rows (tests and debugging only)."""
        return zip(
            _as_int64(self.tids).tolist(),
            *(_as_int64(column).tolist() for column in self.items),
        )

    def __repr__(self) -> str:
        return f"InstanceRelation(k={self.k}, rows={len(self)})"

    # -- chunk serialization (out-of-core spill format) -----------------------------

    def to_chunk_bytes(self) -> bytes:
        """Serialize this relation's ``(keys, last_sid)`` columns to one chunk.

        The spill format of the out-of-core engine: a fixed header
        (magic, ``k``, row count, payload length) followed by the
        ``last_sid`` and ``keys`` columns as flat native int64.
        ``(keys, last_sid, k)`` fully determine a loop relation (tids
        and item columns derive from them), so the round trip is
        lossless; chunks are process-private scratch, hence native byte
        order.

        Requires the ``keys`` and ``last_sid`` columns (relations built
        by ``sales_from_database``/``suffix_extend`` have them).
        """
        sids = self.last_sid
        keys = self.keys
        if sids is None or keys is None:
            raise ValueError(
                "chunk serialization needs the keys/last_sid columns; "
                "build relations with sales_from_database/suffix_extend"
            )
        payload = _as_int64(sids).tobytes() + _as_int64(keys).tobytes()
        header = _CHUNK_HEADER.pack(
            _CHUNK_MAGIC, self._k, len(self), len(payload)
        )
        return header + payload

    @classmethod
    def from_chunk_bytes(
        cls,
        data,
        offset: int = 0,
        *,
        index: "SalesIndex | None" = None,
    ) -> tuple["InstanceRelation", int]:
        """Deserialize one chunk at ``offset``; returns ``(relation, end)``.

        The inverse of :meth:`to_chunk_bytes`.  ``data`` may be any
        buffer (bytes, a :class:`memoryview` over shared memory, an
        ``mmap``): both columns are int64 views built with
        ``np.frombuffer`` directly over it, so nothing is copied — and
        the caller must drop the relation before releasing a borrowed
        buffer.  ``end`` is the offset of the byte following this
        chunk, so concatenated chunks (one spill file holds many) can be
        walked without a directory structure.  ``index`` reattaches the
        run's shared :class:`SalesIndex` so the lazy columns keep
        deriving.
        """
        magic, k, n, payload_len = _CHUNK_HEADER.unpack_from(data, offset)
        if magic != _CHUNK_MAGIC:
            raise ValueError(f"bad chunk magic {magic!r} at offset {offset}")
        body = offset + _CHUNK_HEADER.size
        relation = cls(
            None,
            None,
            last_sid=np.frombuffer(data, dtype=np.int64, count=n, offset=body),
            keys=np.frombuffer(
                data, dtype=np.int64, count=n, offset=body + 8 * n
            ),
            k=k,
            index=index,
        )
        return relation, body + payload_len


def read_chunks(
    data, *, index: "SalesIndex | None" = None
) -> Iterator[InstanceRelation]:
    """Walk every serialized chunk in ``data`` (one spill file's contents)."""
    offset = 0
    while offset < len(data):
        relation, offset = InstanceRelation.from_chunk_bytes(
            data, offset, index=index
        )
        yield relation


def extension_counts(
    relation: InstanceRelation, index: "SalesIndex"
) -> np.ndarray:
    """Per-row merge-scan output counts: ``|suffix_extend(relation)|`` termwise.

    ``counts[r]`` is how many ``R'_{k+1}`` rows row ``r`` will produce —
    the suffix length ``index.ext_counts[last_sid[r]]``.  The out-of-core
    engine uses this to size its extension slices and spill partitions
    *before* materializing anything: the exact ``|R'_k|`` is
    ``sum(extension_counts(r_prev))``, one cheap gather pass.
    """
    sids = relation.last_sid
    if sids is None:
        raise ValueError("extension_counts needs the last_sid column")
    return index.ext_counts[_as_int64(sids)]


def tid_group_bounds(tids: Sequence[int]) -> list[int]:
    """Boundary offsets of equal-trans_id runs in a tid-sorted column.

    Returns ``[0, b_1, ..., len(tids)]``: consecutive pairs delimit one
    transaction's rows.  This is the run-length boundary scan that
    replaces the per-row ``row[0] == current`` comparisons of the tuple
    representation: one pass, index arithmetic only, and every later
    scan works with offsets instead of re-comparing trans_ids.
    """
    n = len(tids)
    if n == 0:
        return [0]
    bounds = [0]
    bounds.extend(i for i in range(1, n) if tids[i] != tids[i - 1])
    bounds.append(n)
    return bounds


class SalesIndex:
    """Extension index over ``R_1``: the merge-scan join, precomputed.

    ``R_1`` is the one relation Figure 4 never modifies, so the
    merge-scan's group matching can be resolved *once*: for every sales
    position ``s``, ``ext_counts[s]`` is the number of strictly-greater
    items in the same transaction — the run of positions
    ``s+1 .. s+ext_counts[s]`` (within a transaction items are distinct
    and ascending, so "later position" equals the paper's
    ``q.item > p.item_{k-1}`` band condition).  A transaction run of
    length ``L`` therefore contributes exactly ``L-1, L-2, ..., 0``.
    :func:`suffix_extend` reads this array instead of re-merging
    trans_id groups every iteration.

    ``base`` is the key radix: one more than the largest dictionary id
    (see the module docstring).  The per-row trans_id column is derived
    from ``(trans_ids, run_lengths)`` lazily — the mining loop never
    reads it.
    """

    __slots__ = ("items", "ext_counts", "base", "_tids", "_run_lengths",
                 "_trans_ids")

    def __init__(
        self,
        items: Sequence[int],
        base: int,
        *,
        run_lengths: Sequence[int],
        trans_ids: Sequence[int],
    ) -> None:
        self.items = _as_int64(items)
        self.base = base
        lengths = _as_int64(run_lengths)
        self._run_lengths = lengths
        self._trans_ids = trans_ids
        self._tids: np.ndarray | None = None
        position = np.arange(len(self.items)) - np.repeat(
            np.cumsum(lengths) - lengths, lengths
        )
        self.ext_counts = np.repeat(lengths, lengths) - 1 - position

    @classmethod
    def from_relation(
        cls, sales: InstanceRelation, base: int
    ) -> "SalesIndex":
        """Build from an eager ``(trans_id, item)`` relation.

        Transaction runs are delimited by the :func:`tid_group_bounds`
        boundary scan (the database-backed path of
        :meth:`InstanceRelation.sales_from_database` knows the run
        lengths up front and skips it).
        """
        tids = sales.tids
        bounds = np.array(tid_group_bounds(tids), dtype=np.int64)
        index = cls(
            sales.items[0],
            base,
            run_lengths=np.diff(bounds),
            trans_ids=tids[bounds[:-1]],
        )
        index._tids = tids
        return index

    @property
    def tids(self) -> np.ndarray:
        """Per-row trans_id column (materialized on first access)."""
        if self._tids is None:
            self._tids = np.repeat(
                _as_int64(self._trans_ids), self._run_lengths
            )
        return self._tids


def take(relation: InstanceRelation, indices: Sequence[int]) -> InstanceRelation:
    """Gather ``relation``'s rows at ``indices`` into a new relation.

    Column-at-a-time: each physically present column is gathered once.
    Lazy relations stay lazy: only ``keys`` and ``last_sid`` are
    gathered, and the logical columns keep deriving from them.
    """
    positions = _as_int64(indices)

    def gather(column):
        return None if column is None else _as_int64(column)[positions]

    items = relation._items
    return InstanceRelation(
        gather(relation._tids),
        None if items is None else tuple(map(gather, items)),
        last_sid=gather(relation.last_sid),
        keys=gather(relation.keys),
        k=relation.k,
        index=relation._index,
    )


class PatternKeys:
    """The frequent-key arrays of one mining run: the key decoder.

    ``frequent[k]`` is the sorted array of frequent level-``k`` keys
    (``F_k``), recorded as each iteration's ``C_k`` is filtered
    (:meth:`record`).  Level ``k + 1`` keys name their prefix by its
    position in ``frequent[k]`` (see the module docstring), so
    :meth:`decode` walks down the ranks, one level at a time, back to
    the item ids.
    """

    __slots__ = ("base", "frequent")

    def __init__(self, base: int) -> None:
        self.base = base
        self.frequent: dict[int, np.ndarray] = {}

    def record(self, k: int, keys: Iterable[int]) -> np.ndarray:
        """Store (and return) ``F_k``: the given keys, sorted, as int64."""
        if not isinstance(keys, np.ndarray):
            keys = np.fromiter(keys, dtype=np.int64)
        self.frequent[k] = np.sort(keys)
        return self.frequent[k]

    def prefixes(self, k: int) -> np.ndarray | None:
        """What :func:`suffix_extend` ranks level-``k`` rows by.

        ``None`` for ``R_1`` (level-2 keys carry the item itself).
        """
        return None if k == 1 else self.frequent[k]

    def parents(self, keys: np.ndarray, k: int) -> np.ndarray:
        """The level-``(k-1)`` prefix keys of level-``k`` keys."""
        heads = keys // self.base
        return heads if k == 2 else self.frequent[k - 1][heads]

    def decode(self, key: int, k: int) -> tuple[int, ...]:
        """The ``k`` item ids of one level-``k`` key."""
        key = int(key)
        items = []
        while k > 1:
            key, item = divmod(key, self.base)
            items.append(item)
            k -= 1
            if k > 1:
                key = int(self.frequent[k][key])
        items.append(key)
        items.reverse()
        return tuple(items)


def extend_rows(
    sids: np.ndarray,
    keys: np.ndarray,
    counts: np.ndarray,
    items: np.ndarray,
    base: int,
    frequent: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """The ranked merge step: ``(new_sids, new_keys)`` of the extensions.

    Row ``r`` (a level-``k`` key at sales position ``sids[r]``) extends
    with the ``counts[r]`` items at positions ``sids[r]+1 ..`` — a
    ragged-range expansion by ``np.repeat``.  Its key becomes the
    level-``k+1`` key ``prefix * base + item``, where ``prefix`` is the
    row's rank in ``frequent`` (the sorted ``F_k``) or, for ``R_1``
    rows (``frequent=None``), the item id itself.  The prefix part is
    computed once per input row, before expansion.

    Raises :class:`~repro.errors.KeySpaceError` when a level-``k+1`` key
    could exceed int64 (``len(F_k) * base`` does not fit).
    """
    limit = base if frequent is None else len(frequent)
    if limit * base > _INT64_MAX:
        raise KeySpaceError(
            f"the next level's pattern keys need {limit} prefixes x radix "
            f"{base} distinct values, more than int64 holds"
        )
    prefix = keys if frequent is None else np.searchsorted(frequent, keys)
    total = int(counts.sum())
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    new_sids = np.repeat(sids + 1, counts) + offsets
    new_keys = np.repeat(prefix * base, counts) + items[new_sids]
    return new_sids, new_keys


def suffix_extend(
    r_prev: InstanceRelation,
    index: SalesIndex,
    frequent: np.ndarray | None = None,
) -> InstanceRelation:
    """The merge-scan join of Figure 4, fused and columnar.

    ``R'_k := merge-scan(R_{k-1}, R_1)``: every ``R_{k-1}`` row is
    extended with every strictly greater ``SALES`` item of the same
    transaction.  Because each row carries ``last_sid`` and the
    :class:`SalesIndex` knows each position's transaction run, the
    extensions of row ``r`` are exactly sales positions
    ``last_sid[r]+1 .. last_sid[r]+ext_counts[last_sid[r]]``
    (:func:`extend_rows`).

    ``frequent`` is the sorted frequent-key array of ``r_prev``'s level
    (``PatternKeys.prefixes(r_prev.k)``): required for ``k >= 2``,
    ``None`` for ``R_1``.  Output rows come out sorted by
    ``(trans_id, item_1, ..., item_k)`` (prev rows are walked in sorted
    order; suffixes ascend within a transaction; rank is monotone in
    the key), so no re-sort is needed before counting or the next
    merge.  Requires ``r_prev.last_sid`` and ``r_prev.keys``.
    """
    sids = r_prev.last_sid
    keys = r_prev.keys
    if sids is None or keys is None:
        raise ValueError(
            "suffix_extend needs last_sid/keys columns; build relations "
            "with sales_from_database/suffix_extend, not raw constructors"
        )
    if (frequent is None) != (r_prev.k == 1):
        raise ValueError(
            "suffix_extend ranks level-k rows (k >= 2) by the sorted "
            "frequent level-k keys, and R_1 rows by nothing; got "
            f"k={r_prev.k} with frequent="
            f"{'None' if frequent is None else 'an array'}"
        )
    sids = _as_int64(sids)
    new_sids, new_keys = extend_rows(
        sids,
        _as_int64(keys),
        index.ext_counts[sids],
        index.items,
        index.base,
        frequent,
    )
    return InstanceRelation(
        None,
        None,
        last_sid=new_sids,
        keys=new_keys,
        k=r_prev.k + 1,
        index=index,
    )


def count_packed_keys(
    keys: Sequence[int], *, via: Literal["auto", "sort", "hash"] = "auto"
) -> list[tuple[int, int]]:
    """Group counts over pattern keys.

    ``via="sort"`` (and ``"auto"``) mirrors the paper's sort-then-scan
    as ``np.unique(return_counts=True)``, emitted in ascending key
    order, which equals lexicographic pattern order.  ``via="hash"`` is
    one :class:`collections.Counter` pass, emitted in deterministic
    first-occurrence order.  Both produce the same multiset of
    ``(key, count)`` pairs, as Python ints.
    """
    keys = _as_int64(keys)
    if via == "hash":
        return list(Counter(keys.tolist()).items())
    unique, counts = np.unique(keys, return_counts=True)
    return list(zip(unique.tolist(), counts.tolist()))


def filter_by_keys(
    relation: InstanceRelation, supported: Iterable[int]
) -> InstanceRelation:
    """``R_k`` from ``R'_k``: keep rows whose key is supported.

    ``supported`` is a set of keys or an int64 array of them.  One
    ``np.isin`` mask selects the rows and both loop columns are copied
    through it; input order is preserved, so the
    sorted-by-``(trans_id, items)`` invariant survives filtering.
    Requires ``relation.keys``.
    """
    keys = relation.keys
    if keys is None:
        raise ValueError("filter_by_keys needs the packed-keys column")
    if not isinstance(supported, np.ndarray):
        supported = np.fromiter(supported, dtype=np.int64)
    keys = _as_int64(keys)
    mask = np.isin(keys, supported)
    if bool(mask.all()):
        return relation
    last_sid = relation.last_sid
    return InstanceRelation(
        None,
        None,
        last_sid=_as_int64(last_sid)[mask] if last_sid is not None else None,
        keys=keys[mask],
        k=relation.k,
        index=relation._index,
    )


def count_sorted_rows(
    rows: Iterable[Sequence],
) -> list[tuple[tuple, int]]:
    """Sequential-scan grouping of ``(trans_id, item...)`` rows sorted by items.

    The one shared implementation of "generating the counts involves a
    simple sequential scan" for *row-shaped* inputs: both the in-memory
    tuple engine (:func:`repro.core.setm.count_sorted_instances`) and the
    paged storage engine (:func:`repro.storage.mergejoin.counting_scan`)
    delegate here.  ``rows`` must be sorted by ``row[1:]``; emits
    ``(pattern, count)`` in sorted pattern order.
    """
    counts: list[tuple[tuple, int]] = []
    current: tuple | None = None
    run = 0
    for row in rows:
        pattern = tuple(row[1:])
        if pattern == current:
            run += 1
        else:
            if current is not None:
                counts.append((current, run))
            current, run = pattern, 1
    if current is not None:
        counts.append((current, run))
    return counts
