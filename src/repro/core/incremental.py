"""Incremental delta mining: materialized count state + delta-only counting.

``setm-incremental`` operationalizes the paper's set-oriented view: the
counted ``(keys, counts)`` summaries of the ``R_k`` relations are a
*materialized view* over the ``SALES`` relation, and a view can be
maintained under appends instead of recomputed.  A run with a
``state_dir`` snapshots, per iteration ``k``, the full pre-HAVING
candidate count map of the Figure-4 loop (:class:`MiningState`, keyed by
the dataset *generation*); when new transactions land via
:meth:`~repro.data.ingest.EncodedDataset.append_chunks`, the next run
counts **only the appended chunks** and merges with the saved maps.

Correctness sketch (why delta-only counting is exact)
-----------------------------------------------------
Every SETM instance lives inside a single transaction, so per-pattern
counts are additive across disjoint transaction sets:
``count_D(p) = count_B(p) + count_delta(p)``.  Candidacy is structural:
``R_1`` is joined unfiltered (Section 4.1), so at ``k = 2`` every
2-pattern present in the data is a candidate — the base map is complete
there and ``state.levels[2].get(p, 0)`` is the exact base count.  For
``k >= 3`` a pattern is counted iff its ``(k-1)``-prefix is in the
*global* frequent set ``F_{k-1}``, which yields three merge cases per
level:

* prefix frequent before and now — the base count is in the state map
  (or genuinely zero): a **state hit**, no base I/O;
* prefix newly frequent (infrequent over the base alone, frequent over
  the union) — the base run never counted its extensions, so they get a
  **targeted recount** over the base transactions via
  ``iter_item_chunks()``, never a full re-mine;
* prefix no longer frequent (the threshold grew with ``N``) — its state
  entries are dropped.

Level keys are the columnar kernel's dense keys
(:mod:`repro.core.columns`): a level-``k`` key names its prefix by rank
in the sorted frequent ``F_{k-1}``.  Ranks shift between runs — the
catalog grows and ``F_{k-1}`` gains and loses members — so a delta mine
re-keys the state level by level: the item digit goes through the
catalog id map, and each old prefix rank (a position among the saved
level-``k-1`` keys with count at the base threshold) is mapped to its
rank in the new ``F_{k-1}`` with one ``searchsorted``, or to -1 when the
prefix dropped out, which drops the entry.  New ``F_{k-1}`` members no
old rank maps to are exactly the newly frequent prefixes to recount.

Delta counts come from running the columnar extension loop
(:func:`~repro.core.columns.suffix_extend`) over the appended
transactions only, filtered by the global ``F_k``.  Every
:class:`~repro.core.result.IterationStats` field derives from the merged
maps (candidate instances are the count sums, supported slices are the
``>= threshold`` subsets), so the result — patterns, counts, iteration
trace — is byte-identical to a from-scratch mine of the full dataset;
the append-equivalence suite and the conformance delta tier hold it
there.  The merged maps then *become* the new state: after a delta mine
the whole dataset is the next base.

Survivor cursors are deliberately **not** part of the state: the merged
count maps fully determine the result, and cursors could not serve the
newly-frequent-prefix recount anyway (those instances were never
materialized by the base run).

On-disk format
--------------
A state directory holds ``state.json`` (version 2, dataset fingerprint,
config identity, catalog labels) plus ``levels.bin`` — one serialized
chunk per level reusing the spill-chunk framing of
:meth:`~repro.core.columns.InstanceRelation.to_chunk_bytes` (counts ride
in the ``last_sid`` column, the level's dense int64 keys — ranked
against the saved level below at the saved run's threshold — in
``keys``).  Writes are temp-file + ``os.replace`` atomic with the
manifest as the commit point; version skew refuses typed
(:class:`~repro.errors.StateVersionError`), a state that does not cover
the dataset or config refuses typed
(:class:`~repro.errors.StateMismatchError`).
"""

from __future__ import annotations

import json
import os
import time
import tracemalloc
from pathlib import Path
from typing import Any, Literal

import numpy as np

from repro.core.columns import (
    InstanceRelation,
    PatternKeys,
    count_packed_keys,
    extend_rows,
    filter_by_keys,
    read_chunks,
    suffix_extend,
)
from repro.core.result import IterationStats, MiningResult
from repro.core.setm import run_figure4_loop
from repro.core.setm_columnar import ColumnarKernel
from repro.core.transactions import absolute_support_threshold
from repro.errors import (
    InvalidConfigError,
    StateError,
    StateMismatchError,
    StateVersionError,
)
from repro.registry import register_engine

__all__ = ["MiningState", "STATE_VERSION", "setm_incremental"]

#: On-disk state format version; bumped on any incompatible change
#: (version 2: level keys are the kernel's dense per-level keys).
STATE_VERSION = 2

_MANIFEST_NAME = "state.json"
_LEVELS_NAME = "levels.bin"


def _is_absolute(support: float | int) -> bool:
    return isinstance(support, int) and not isinstance(support, bool)


#: A level map as parallel int64 columns: ``(keys, counts)``, sorted by
#: key — the exact shape the on-disk chunk format stores, so save/load
#: never converts through dicts.
LevelPair = tuple[np.ndarray, np.ndarray]

_EMPTY_PAIR: LevelPair = (np.empty(0, np.int64), np.empty(0, np.int64))


def _pair_from_dict(counts: dict[int, int]) -> LevelPair:
    """A count map as a sorted ``(keys, counts)`` column pair."""
    keys = sorted(counts)
    return (
        np.array(keys, dtype=np.int64),
        np.array([counts[key] for key in keys], dtype=np.int64),
    )


def _supported_slice(
    pair: LevelPair, threshold: int
) -> list[tuple[int, int]]:
    """The ``>= threshold`` entries of a level pair, in key order."""
    keys, counts = pair
    mask = counts >= threshold
    return list(zip(keys[mask].tolist(), counts[mask].tolist()))


def _combine(parts: list[LevelPair]) -> LevelPair:
    """Sum column pairs into one sorted pair.

    Each input pair must carry unique keys; counts of keys present in
    several pairs are added — the whole per-level merge (state-kept +
    recount + delta) in three C passes.
    """
    parts = [part for part in parts if len(part[0])]
    if not parts:
        return _EMPTY_PAIR
    if len(parts) == 1:
        return parts[0]
    all_keys = np.concatenate([keys for keys, _ in parts])
    all_counts = np.concatenate([counts for _, counts in parts])
    merged_keys, inverse = np.unique(all_keys, return_inverse=True)
    merged_counts = np.zeros(len(merged_keys), dtype=np.int64)
    np.add.at(merged_counts, inverse, all_counts)
    return merged_keys, merged_counts


class MiningState:
    """The materialized per-level candidate count maps of one mine.

    ``levels[k]`` holds each pattern key the Figure-4 loop counted at
    iteration ``k`` (the *pre*-HAVING map, so borderline counts are
    preserved) with its transaction count, as a sorted int64
    ``(keys, counts)`` column pair — the merge works on whole columns
    and save/load move them without conversion; use
    :meth:`level_counts` for a dict view.  Keys are the columnar
    kernel's dense keys (:mod:`repro.core.columns`) in the radix of
    ``labels`` (``base = len(labels) + 1``): a level-``k`` key for
    ``k >= 3`` names its prefix by rank among the level-``k-1`` keys
    whose count reaches the run's support threshold.  The fingerprint fields
    identify the dataset prefix the counts cover, so a later run can
    verify the current dataset is an append-extension and mine only the
    tail.  Constructor ``levels`` values may be dicts (normalized to
    pairs) or ready column pairs.
    """

    __slots__ = (
        "generation",
        "num_transactions",
        "num_sales_rows",
        "last_trans_id",
        "labels",
        "support",
        "support_is_absolute",
        "max_length",
        "levels",
    )

    def __init__(
        self,
        *,
        generation: int,
        num_transactions: int,
        num_sales_rows: int,
        last_trans_id: int | None,
        labels: list,
        support: float | int,
        max_length: int | None,
        levels: dict[int, "LevelPair | dict[int, int]"],
        support_is_absolute: bool | None = None,
    ) -> None:
        self.generation = generation
        self.num_transactions = num_transactions
        self.num_sales_rows = num_sales_rows
        self.last_trans_id = last_trans_id
        self.labels = list(labels)
        self.support = support
        self.support_is_absolute = (
            _is_absolute(support)
            if support_is_absolute is None
            else support_is_absolute
        )
        self.max_length = max_length
        self.levels = {
            k: (
                _pair_from_dict(value)
                if isinstance(value, dict)
                else tuple(np.asarray(col, dtype=np.int64) for col in value)
            )
            for k, value in levels.items()
        }

    def level_counts(self, k: int) -> dict[int, int]:
        """Level ``k``'s count map as a plain dict (tests, inspection)."""
        keys, counts = self.levels[k]
        return dict(zip(keys.tolist(), counts.tolist()))

    @classmethod
    def from_full_run(
        cls,
        database,
        level_counts: dict[int, dict[int, int]],
        minimum_support: float | int,
        max_length: int | None,
    ) -> "MiningState":
        """Snapshot a completed full mine of ``database``."""
        num = database.num_transactions
        if hasattr(database, "trans_ids"):
            last = int(database.trans_ids[-1]) if num else None
            labels = database.catalog.labels()
        else:
            last = database[num - 1].trans_id if num else None
            labels = database.distinct_items()
        return cls(
            generation=getattr(database, "generation", 0),
            num_transactions=num,
            num_sales_rows=database.num_sales_rows,
            last_trans_id=last,
            labels=labels,
            support=minimum_support,
            max_length=max_length,
            levels=level_counts,
        )

    # -- persistence ---------------------------------------------------------------

    def save(self, state_dir: str | os.PathLike) -> None:
        """Atomically persist to ``state_dir`` (created if missing).

        ``levels.bin`` is written and swapped in first, the manifest
        last — the manifest is the commit point, so a crash mid-save
        leaves either the old state or the new one, never a torn mix,
        and the ``finally`` sweep keeps temp files from leaking.
        """
        root = Path(state_dir)
        root.mkdir(parents=True, exist_ok=True)
        blob = b"".join(
            _level_chunk(k, self.levels[k]) for k in sorted(self.levels)
        )
        manifest = {
            "version": STATE_VERSION,
            "generation": self.generation,
            "num_transactions": self.num_transactions,
            "num_sales_rows": self.num_sales_rows,
            "last_trans_id": self.last_trans_id,
            "support": self.support,
            "support_is_absolute": self.support_is_absolute,
            "max_length": self.max_length,
            "labels": self.labels,
            "levels": sorted(self.levels),
        }
        try:
            text = json.dumps(manifest, sort_keys=True)
        except TypeError as exc:
            raise StateError(
                "mining state needs JSON-serializable item labels "
                f"(str/int/...); got: {exc}"
            ) from exc
        levels_tmp = root / (_LEVELS_NAME + ".tmp")
        manifest_tmp = root / (_MANIFEST_NAME + ".tmp")
        try:
            levels_tmp.write_bytes(blob)
            manifest_tmp.write_text(text)
            os.replace(levels_tmp, root / _LEVELS_NAME)
            os.replace(manifest_tmp, root / _MANIFEST_NAME)
        finally:
            for tmp in (levels_tmp, manifest_tmp):
                try:
                    tmp.unlink()
                except OSError:
                    pass

    @classmethod
    def load(cls, state_dir: str | os.PathLike) -> "MiningState | None":
        """Load the state saved in ``state_dir``; ``None`` when absent.

        Raises
        ------
        StateVersionError
            The manifest carries a different format version.
        StateError
            The state files are structurally corrupt.
        """
        root = Path(state_dir)
        manifest_path = root / _MANIFEST_NAME
        if not manifest_path.exists():
            return None
        try:
            doc = json.loads(manifest_path.read_text())
        except (OSError, ValueError) as exc:
            raise StateError(
                f"unreadable mining-state manifest {manifest_path}: {exc}"
            ) from exc
        if not isinstance(doc, dict):
            raise StateError(
                f"mining-state manifest {manifest_path} is not an object"
            )
        version = doc.get("version")
        if version != STATE_VERSION:
            raise StateVersionError(STATE_VERSION, version)
        try:
            data = (root / _LEVELS_NAME).read_bytes()
        except OSError as exc:
            raise StateError(
                f"mining state in {root} has no readable level maps: {exc}"
            ) from exc
        levels: dict[int, LevelPair] = {}
        for chunk in read_chunks(data):
            levels[chunk.k] = (chunk.keys, chunk.last_sid)
        if sorted(levels) != doc.get("levels"):
            raise StateError(
                f"mining state in {root} is corrupt: level maps "
                f"{sorted(levels)} do not match the manifest "
                f"{doc.get('levels')!r}"
            )
        try:
            return cls(
                generation=doc["generation"],
                num_transactions=doc["num_transactions"],
                num_sales_rows=doc["num_sales_rows"],
                last_trans_id=doc["last_trans_id"],
                labels=doc["labels"],
                support=doc["support"],
                max_length=doc["max_length"],
                levels=levels,
                support_is_absolute=doc["support_is_absolute"],
            )
        except KeyError as exc:
            raise StateError(
                f"mining-state manifest {manifest_path} is missing {exc}"
            ) from exc


def _level_chunk(k: int, pair: LevelPair) -> bytes:
    """One level pair as a spill-format chunk (counts ride in last_sid)."""
    keys, counts = pair
    relation = InstanceRelation(None, None, last_sid=counts, keys=keys, k=k)
    return relation.to_chunk_bytes()


# -- state <-> dataset matching ----------------------------------------------------


def _supports_delta(database) -> bool:
    """Only the encoded columnar form can be delta-sliced and rescanned."""
    return (
        hasattr(database, "trans_ids")
        and hasattr(database, "run_lengths")
        and hasattr(database, "iter_item_chunks")
    )


def _check_state_covers(
    state: MiningState,
    dataset,
    minimum_support: float | int,
    max_length: int | None,
) -> None:
    """Raise :class:`StateMismatchError` unless ``dataset`` extends the state."""
    if (
        state.support != minimum_support
        or state.support_is_absolute != _is_absolute(minimum_support)
    ):
        raise StateMismatchError(
            f"saved state was mined at support {state.support!r} "
            f"({'absolute' if state.support_is_absolute else 'fractional'}); "
            f"this run asks for {minimum_support!r} — delta counts cannot "
            "be merged across thresholds (clear the state directory to "
            "rebuild)"
        )
    if state.max_length != max_length:
        raise StateMismatchError(
            f"saved state was mined with max_length={state.max_length!r}; "
            f"this run asks for {max_length!r} (clear the state directory "
            "to rebuild)"
        )
    t_base = state.num_transactions
    if dataset.num_transactions < t_base:
        raise StateMismatchError(
            f"dataset has {dataset.num_transactions} transactions but the "
            f"saved state covers {t_base}; the dataset is not an "
            "append-extension of the state"
        )
    if t_base:
        if int(dataset.trans_ids[t_base - 1]) != state.last_trans_id:
            raise StateMismatchError(
                f"dataset transaction {t_base} has trans_id "
                f"{int(dataset.trans_ids[t_base - 1])!r} where the saved "
                f"state ends at {state.last_trans_id!r}; the base prefix "
                "diverged"
            )
        if sum(dataset.run_lengths[:t_base]) != state.num_sales_rows:
            raise StateMismatchError(
                f"the first {t_base} transactions hold "
                f"{sum(dataset.run_lengths[:t_base])} rows where the saved "
                f"state covers {state.num_sales_rows}; the base prefix "
                "diverged"
            )


def _id_map(state: MiningState, catalog) -> np.ndarray | None:
    """``old item id -> current item id`` (index 0 unused).

    Appends can grow the catalog, and new labels sorting between old
    ones shift every later id.  Both catalogs list labels sorted, so
    the map is strictly increasing and keeps each level's key order.
    ``None`` when the catalog is unchanged — the common same-vocabulary
    append, whose item ids all stand.
    """
    if state.labels == catalog.labels():
        return None
    try:
        ids = [0] + [catalog.id_of(label) for label in state.labels]
    except KeyError as exc:
        raise StateMismatchError(
            f"saved state knows item {exc.args[0]!r} which the dataset's "
            "catalog no longer contains; the base prefix diverged"
        ) from None
    return np.array(ids, dtype=np.int64)


def _translate(
    keys: np.ndarray,
    k: int,
    old_base: int,
    base: int,
    id_map: np.ndarray | None,
    prefix_map: np.ndarray | None,
) -> np.ndarray:
    """Saved level-``k`` keys as keys of the current run; -1 where dropped.

    The item digit goes through ``id_map``; the prefix digit too at
    ``k = 2`` (a level-2 key carries its first item), and through
    ``prefix_map`` — old rank in the saved ``F_{k-1}`` to rank in the
    current ``F_{k-1}``, -1 if the prefix dropped out — for ``k >= 3``.
    Keys made only of item ids stand as they are when the catalog is
    unchanged (``id_map is None``).
    """
    if k <= 2 and id_map is None:
        return keys
    if k == 1:
        return id_map[keys]
    heads, items = np.divmod(keys, old_base)
    if id_map is not None:
        items = id_map[items]
    heads = id_map[heads] if k == 2 else prefix_map[heads]
    dropped = heads < 0
    heads *= base
    heads += items
    heads[dropped] = -1
    return heads


def _ranks_in(frequent: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Each key's position in sorted ``frequent``; -1 where absent."""
    positions = np.searchsorted(frequent, keys)
    found = positions < len(frequent)
    found[found] = frequent[positions[found]] == keys[found]
    return np.where(found, positions, -1)


# -- the delta mine ----------------------------------------------------------------


def _items_between(dataset, start: int, stop: int | None) -> np.ndarray:
    """A fresh copy of the encoded item rows ``start:stop``.

    Walks ``iter_item_chunks()`` (non-consuming — spilled pieces stream
    one at a time).  The result never views the dataset's resident
    column, which later appends must be free to grow.
    """
    pieces = []
    seen = 0
    for chunk in dataset.iter_item_chunks():
        column = np.asarray(chunk, dtype=np.int64)
        low = seen
        seen += len(column)
        if seen <= start:
            continue
        if stop is not None and low >= stop:
            break
        pieces.append(
            column[max(0, start - low) : None if stop is None else stop - low]
        )
    return np.concatenate(pieces) if pieces else np.empty(0, np.int64)


class _BaseColumns:
    """The base prefix's raw columns, gathered once per delta mine.

    Only materialized when some level needs a recount, then shared
    across recounting levels.  ``ends[searchsorted(ends, s, 'right')]``
    is the exclusive end position of row ``s``'s transaction — the only
    piece of transaction framing the targeted recount needs, so no
    :class:`~repro.core.columns.SalesIndex` (whose ``ext_counts``
    expansion walks every base row) is ever built here.
    """

    __slots__ = ("items", "ends", "base")

    def __init__(self, dataset, t_base: int, s_base: int) -> None:
        self.items = _items_between(dataset, 0, s_base)
        self.ends = np.cumsum(
            np.asarray(dataset.run_lengths[:t_base], dtype=np.int64)
        )
        self.base = dataset.base

    def extend(self, sids, keys, frequent):
        """The ranked merge step over selected instance rows only.

        :func:`~repro.core.columns.extend_rows`, with each row's
        extension count derived on the fly from its transaction end —
        O(|selected| log t_base) instead of O(base rows).
        """
        ends = self.ends[np.searchsorted(self.ends, sids, side="right")]
        return extend_rows(
            sids, keys, ends - sids - 1, self.items, self.base, frequent
        )


def _recount_base(
    columns: _BaseColumns, q_new: np.ndarray, k: int, keys: PatternKeys
) -> tuple[LevelPair, int]:
    """Base counts of the level-``k`` extensions of the prefixes ``q_new``.

    Instances of the newly frequent level-``(k-1)`` prefixes are
    re-derived level by level — filter to the length-``j`` prefixes of
    ``q_new`` (found by walking down the ranks), extend with the later
    items of the same transaction — so the recount only materializes
    rows that can still reach one of the patterns, instead of walking
    every base transaction.  Returns the counted extensions as a sorted
    column pair plus the instance rows touched.
    """
    wanted = {k - 1: q_new}
    for j in range(k - 1, 1, -1):
        wanted[j - 1] = keys.parents(wanted[j], j)
    sids = np.flatnonzero(np.isin(columns.items, wanted[1]))
    level_keys = columns.items[sids]
    rows = len(sids)
    for j in range(2, k):
        sids, level_keys = columns.extend(
            sids, level_keys, keys.prefixes(j - 1)
        )
        mask = np.isin(level_keys, wanted[j])
        sids = sids[mask]
        level_keys = level_keys[mask]
        rows += len(sids)
    _, level_keys = columns.extend(sids, level_keys, keys.prefixes(k - 1))
    rows += len(level_keys)
    return np.unique(level_keys, return_counts=True), rows


def _mine_delta(
    dataset,
    minimum_support: float | int,
    state: MiningState,
    *,
    max_length: int | None,
    count_via: Literal["auto", "sort", "hash"],
    measure_memory: bool,
) -> tuple[MiningResult, MiningState]:
    """Mine only the appended tail of ``dataset`` against ``state``.

    Mirrors :func:`~repro.core.setm.run_figure4_loop` stat-for-stat —
    same loop condition, same ``max_length`` break point, same terminal
    empty iteration — but every level's candidate map is assembled by
    merging the state with counts over the delta transactions only.
    Returns the result plus the merged maps as the next base state.
    """
    started = time.perf_counter()
    started_tracing = measure_memory and not tracemalloc.is_tracing()
    if started_tracing:
        tracemalloc.start()
    if measure_memory:
        tracemalloc.reset_peak()
    try:
        catalog = dataset.catalog
        base = dataset.base
        threshold = absolute_support_threshold(
            minimum_support, dataset.num_transactions
        )
        threshold_base = absolute_support_threshold(
            minimum_support, max(1, state.num_transactions)
        )
        id_map = _id_map(state, catalog)
        old_base = len(state.labels) + 1
        t_base = state.num_transactions
        s_base = state.num_sales_rows

        delta_items = _items_between(dataset, s_base, None)
        delta_sales = InstanceRelation.sales_from_columns(
            delta_items,
            base=base,
            run_lengths=dataset.run_lengths[t_base:],
            trans_ids=dataset.trans_ids[t_base:],
        )
        index = delta_sales.index
        keys = PatternKeys(base)

        # k = 1: merge the delta item counts onto the state's C_1.
        old_keys, old_counts = state.levels.get(1, _EMPTY_PAIR)
        state_hits = len(old_keys)
        merged_pair = _combine(
            [
                (_translate(old_keys, 1, old_base, base, id_map, None),
                 old_counts),
                np.unique(delta_sales.keys, return_counts=True),
            ]
        )
        supported = _supported_slice(merged_pair, threshold)
        count_relations: dict[int, dict] = {
            1: {catalog.decode((key,)): count for key, count in supported}
        }
        num_sales = dataset.num_sales_rows
        iterations = [
            IterationStats(
                k=1,
                candidate_instances=num_sales,
                supported_instances=num_sales,
                candidate_patterns=len(merged_pair[0]),
                supported_patterns=len(supported),
            )
        ]
        merged_levels: dict[int, LevelPair] = {1: merged_pair}
        iteration_seconds = {1: time.perf_counter() - started}

        # R_1 is joined unfiltered (Section 4.1): level 2 has no prefix
        # condition, so no prefix map, no drop and no recount there.
        r_delta = delta_sales
        prefix_map: np.ndarray | None = None
        base_columns: _BaseColumns | None = None
        recounted = 0
        base_rows_rescanned = 0
        recount_levels: list[int] = []

        current_size = num_sales
        k = 1
        while current_size:
            k += 1
            if max_length is not None and k > max_length:
                break
            tick = time.perf_counter()
            r_prime = suffix_extend(r_delta, index, keys.prefixes(k - 1))
            old_keys, old_counts = state.levels.get(k, _EMPTY_PAIR)
            translated = _translate(
                old_keys, k, old_base, base, id_map, prefix_map
            )
            kept = translated >= 0
            if kept.all():
                parts = [(translated, old_counts)]
            else:
                parts = [(translated[kept], old_counts[kept])]
            state_hits += len(parts[0][0])
            if prefix_map is not None:
                # Prefixes frequent now but not in the base: the base run
                # never extended them, so their base counts are missing.
                previous = keys.frequent[k - 1]
                fresh = np.ones(len(previous), dtype=bool)
                fresh[prefix_map[prefix_map >= 0]] = False
                if fresh.any():
                    if base_columns is None:
                        base_columns = _BaseColumns(dataset, t_base, s_base)
                    recount_pair, rows = _recount_base(
                        base_columns, previous[fresh], k, keys
                    )
                    parts.append(recount_pair)
                    recounted += len(recount_pair[0])
                    base_rows_rescanned += rows
                    recount_levels.append(k)
            parts.append(np.unique(r_prime.keys, return_counts=True))
            merged_pair = _combine(parts)

            supported = _supported_slice(merged_pair, threshold)
            frequent = keys.record(k, [key for key, _ in supported])
            supported_instances = sum(count for _, count in supported)
            iterations.append(
                IterationStats(
                    k=k,
                    candidate_instances=int(merged_pair[1].sum()),
                    supported_instances=supported_instances,
                    candidate_patterns=len(merged_pair[0]),
                    supported_patterns=len(supported),
                )
            )
            if supported:
                count_relations[k] = {
                    catalog.decode(keys.decode(key, k)): count
                    for key, count in supported
                }
            merged_levels[k] = merged_pair
            r_delta = filter_by_keys(r_prime, frequent)
            # The saved F_k (counts at the base threshold) in the
            # current key space, ranked in the current F_k.
            prefix_map = _ranks_in(
                frequent, translated[old_counts >= threshold_base]
            )
            current_size = supported_instances
            iteration_seconds[k] = time.perf_counter() - tick

        total_patterns = sum(
            len(level_keys) for level_keys, _ in merged_levels.values()
        )
        extra: dict[str, Any] = {
            "count_via": count_via,
            "iteration_seconds": iteration_seconds,
        }
        stats = getattr(dataset, "stats", None)
        if stats is not None:
            extra["ingest"] = stats.as_dict()
        extra["incremental"] = {
            "mode": "delta",
            "generation": getattr(dataset, "generation", 0),
            "base_transactions": t_base,
            "base_rows": s_base,
            "delta_transactions": dataset.num_transactions - t_base,
            "delta_rows": len(delta_items),
            "total_rows": num_sales,
            "state_levels": sorted(state.levels),
            "state_hits": state_hits,
            "recounted_patterns": recounted,
            "recount_levels": recount_levels,
            "recount_fraction": (
                round(recounted / total_patterns, 4) if total_patterns else 0.0
            ),
            "base_rows_rescanned": base_rows_rescanned,
        }
        if measure_memory:
            extra["peak_memory_bytes"] = tracemalloc.get_traced_memory()[1]
        item_keys, item_counts = merged_levels[1]
        result = MiningResult(
            algorithm="setm-incremental",
            num_transactions=dataset.num_transactions,
            minimum_support=minimum_support,
            support_threshold=threshold,
            count_relations=count_relations,
            unfiltered_item_counts=dict(
                zip(catalog.decode(item_keys.tolist()), item_counts.tolist())
            ),
            iterations=iterations,
            elapsed_seconds=time.perf_counter() - started,
            extra=extra,
        )
        new_state = MiningState(
            generation=getattr(dataset, "generation", 0),
            num_transactions=dataset.num_transactions,
            num_sales_rows=dataset.num_sales_rows,
            last_trans_id=(
                int(dataset.trans_ids[-1])
                if dataset.num_transactions
                else None
            ),
            labels=catalog.labels(),
            support=minimum_support,
            max_length=max_length,
            levels=merged_levels,
        )
        return result, new_state
    finally:
        if started_tracing:
            tracemalloc.stop()


# -- the engine --------------------------------------------------------------------


class _StateCapturingKernel(ColumnarKernel):
    """A :class:`ColumnarKernel` that keeps every level's full count map.

    The shared loop discards ``all_counts`` after deriving
    ``candidate_patterns``; state capture needs the whole pre-HAVING map
    (borderline counts included), so this kernel stashes it per level.
    """

    def __init__(self, database, *, count_via="auto") -> None:
        super().__init__(database, count_via=count_via)
        self.level_counts: dict[int, dict[int, int]] = {}

    def c1_counts(self, sales):
        counts = super().c1_counts(sales)
        self.level_counts[1] = dict(counts)
        return counts

    def _count_filter(self, r_prime, threshold):
        all_counts = count_packed_keys(r_prime.keys, via=self._count_via)
        self.level_counts[r_prime.k] = dict(all_counts)
        c_k = {key: count for key, count in all_counts if count >= threshold}
        r_next = filter_by_keys(r_prime, set(c_k))
        return len(all_counts), c_k, r_next


@register_engine(
    "setm-incremental",
    description=(
        "SETM with materialized count state: appends re-mine only the "
        "delta chunks"
    ),
    representation="columnar",
    streaming_ingest=True,
    incremental=True,
    accepted_options=("count_via", "measure_memory", "state_dir"),
)
def setm_incremental(
    database,
    minimum_support: float | int,
    *,
    max_length: int | None = None,
    state_dir: str | os.PathLike | None = None,
    count_via: Literal["auto", "sort", "hash"] = "auto",
    measure_memory: bool = True,
) -> MiningResult:
    """SETM whose count state persists, so appends mine only the delta.

    Without a ``state_dir`` (or on the first run with one) this is a
    full columnar mine — identical results to ``setm-columnar`` — that
    additionally materializes the per-level count maps; with a
    ``state_dir`` holding state that covers a prefix of ``database``
    (an append-extended :class:`~repro.data.ingest.EncodedDataset`),
    only the appended transactions are counted and merged with the
    saved maps.  Results are byte-identical either way;
    ``extra["incremental"]`` reports which mode ran, the delta size,
    state hits, and the targeted-recount fraction.

    Raises
    ------
    StateVersionError
        ``state_dir`` holds state written by a different format version.
    StateMismatchError
        The state does not cover this dataset/config (diverged prefix,
        different support semantics or ``max_length``).
    """
    state = None
    if state_dir is not None:
        if not isinstance(state_dir, (str, os.PathLike)):
            raise InvalidConfigError(
                f"state_dir must be a path or None; got {state_dir!r}"
            )
        state = MiningState.load(state_dir)
    if state is not None and _supports_delta(database):
        _check_state_covers(state, database, minimum_support, max_length)
        result, new_state = _mine_delta(
            database,
            minimum_support,
            state,
            max_length=max_length,
            count_via=count_via,
            measure_memory=measure_memory,
        )
        new_state.save(state_dir)
        return result

    kernel = _StateCapturingKernel(database, count_via=count_via)
    result = run_figure4_loop(
        database,
        minimum_support,
        kernel,
        algorithm="setm-incremental",
        max_length=max_length,
        extra={"count_via": count_via},
        measure_memory=measure_memory,
    )
    result.extra["incremental"] = {
        "mode": "full",
        "generation": getattr(database, "generation", 0),
        "base_transactions": 0,
        "base_rows": 0,
        "delta_transactions": database.num_transactions,
        "delta_rows": database.num_sales_rows,
        "total_rows": database.num_sales_rows,
        "state_levels": sorted(kernel.level_counts),
        "state_hits": 0,
        "recounted_patterns": 0,
        "recount_levels": [],
        "recount_fraction": 0.0,
        "base_rows_rescanned": 0,
    }
    if state_dir is not None:
        MiningState.from_full_run(
            database, kernel.level_counts, minimum_support, max_length
        ).save(state_dir)
    return result
