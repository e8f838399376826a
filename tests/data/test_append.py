"""EncodedDataset.append_chunks: byte-identity with from-scratch encode.

The append contract (PR 9) is that stream-encoding a base file and then
appending the remaining splits produces a dataset *byte-identical* to
encoding the concatenated input in one pass — same catalog id order,
same encoded columns, same ``R_1`` chunk stream — with ``generation``
bumped once per append.  Hypothesis drives the grid: random baskets ×
split points × chunk sizes × memory budgets × brand-new delta items ×
empty transactions.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.transactions import TransactionDatabase
from repro.data.formats import open_chunk_source
from repro.data.ingest import stream_encode
from repro.data.io import write_basket_file
from repro.errors import IngestError

_ITEMS = [f"i{j:02d}" for j in range(12)]


def _write_splits(baskets, cuts, root: Path) -> list[Path]:
    """One basket file per ``[cut, next_cut)`` slice of ``baskets``."""
    txns = [
        (tid, sorted(basket)) for tid, basket in enumerate(baskets, start=1)
    ]
    bounds = [0, *cuts, len(txns)]
    paths = []
    for i in range(len(bounds) - 1):
        part = TransactionDatabase(txns[bounds[i] : bounds[i + 1]])
        path = root / f"split{i}.basket"
        write_basket_file(part, path)
        paths.append(path)
    return paths


def _snapshot(dataset):
    """Everything that must match the from-scratch encode.

    Reads the item column through ``iter_item_chunks`` so snapshotting
    never consumes spill partitions.
    """
    return (
        dataset.catalog.labels(),
        list(dataset.trans_ids),
        list(dataset.run_lengths),
        [value for chunk in dataset.iter_item_chunks() for value in chunk],
        dataset.num_transactions,
        dataset.num_sales_rows,
    )


@st.composite
def _append_cases(draw):
    baskets = draw(
        st.lists(
            st.frozensets(st.sampled_from(_ITEMS), max_size=6),
            min_size=2,
            max_size=20,
        )
    )
    num_cuts = draw(
        st.integers(min_value=1, max_value=min(2, len(baskets) - 1))
    )
    cuts = draw(
        st.lists(
            st.integers(min_value=1, max_value=len(baskets) - 1),
            min_size=num_cuts,
            max_size=num_cuts,
            unique=True,
        ).map(sorted)
    )
    chunk_rows = draw(st.sampled_from([1, 3, 1024]))
    budget = draw(st.sampled_from([None, 2048]))
    return baskets, cuts, chunk_rows, budget


class TestAppendEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(case=_append_cases())
    def test_append_equals_from_scratch_encode(self, case):
        baskets, cuts, chunk_rows, budget = case
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            paths = _write_splits(baskets, cuts, root)
            whole = root / "whole.basket"
            whole.write_bytes(
                b"".join(path.read_bytes() for path in paths)
            )

            reference = stream_encode(
                open_chunk_source(whole, chunk_rows=chunk_rows),
                memory_budget_bytes=budget,
            )
            grown = stream_encode(
                open_chunk_source(paths[0], chunk_rows=chunk_rows),
                memory_budget_bytes=budget,
            )
            try:
                for generation, path in enumerate(paths[1:], start=1):
                    info = grown.append_chunks(
                        open_chunk_source(path, chunk_rows=chunk_rows),
                        memory_budget_bytes=budget,
                    )
                    assert info["generation"] == generation
                    assert grown.generation == generation
                assert _snapshot(grown) == _snapshot(reference)
            finally:
                grown.close()
                reference.close()

    def test_new_items_in_delta_remap_existing_columns(self, tmp_path):
        """Labels sorting *before* existing ones force the id remap."""
        base = TransactionDatabase([(1, ["m", "z"]), (2, ["z"])])
        delta = TransactionDatabase([(3, ["a", "m"]), (4, ["a", "z"])])
        write_basket_file(base, tmp_path / "base.basket")
        write_basket_file(delta, tmp_path / "delta.basket")

        dataset = stream_encode(open_chunk_source(tmp_path / "base.basket"))
        try:
            # The materialized form is built once per generation: the
            # append below must not be answered from the stale one.
            before = dataset.database(decoded=True)
            assert dataset.database(decoded=True) is before
            info = dataset.append_chunks(
                open_chunk_source(tmp_path / "delta.basket")
            )
            assert info["new_items"] == 1
            assert info["remapped_base_ids"] is True
            assert dataset.catalog.labels() == ["a", "m", "z"]
            rebuilt = [
                (txn.trans_id, txn.items)
                for txn in dataset.database(decoded=True)
            ]
            assert rebuilt == [
                (1, ("m", "z")),
                (2, ("z",)),
                (3, ("a", "m")),
                (4, ("a", "z")),
            ]
        finally:
            dataset.close()

    def test_empty_transactions_survive_append(self, tmp_path):
        path = tmp_path / "base.basket"
        path.write_text("1: a b\n")
        delta = tmp_path / "delta.basket"
        delta.write_text("2:\n3: a\n")
        dataset = stream_encode(open_chunk_source(path))
        try:
            info = dataset.append_chunks(open_chunk_source(delta))
            assert info["transactions"] == 2
            assert dataset.num_transactions == 3
            assert list(dataset.run_lengths) == [2, 0, 1]
        finally:
            dataset.close()

    def test_append_telemetry_recorded_in_stats(self, tmp_path):
        db = TransactionDatabase([(1, ["a", "b"]), (2, ["b"])])
        write_basket_file(db, tmp_path / "base.basket")
        write_basket_file(
            TransactionDatabase([(3, ["a"])]), tmp_path / "delta.basket"
        )
        dataset = stream_encode(open_chunk_source(tmp_path / "base.basket"))
        try:
            info = dataset.append_chunks(
                open_chunk_source(tmp_path / "delta.basket")
            )
            appends = dataset.stats.extra["appends"]
            assert appends == [info]
            assert dataset.stats.transactions == 3
        finally:
            dataset.close()


class TestAppendFailureAtomicity:
    def test_non_ascending_trans_ids_leave_dataset_untouched(self, tmp_path):
        db = TransactionDatabase([(1, ["a"]), (5, ["b"])])
        write_basket_file(db, tmp_path / "base.basket")
        bad = tmp_path / "bad.basket"
        bad.write_text("3: c\n")  # 3 <= existing last tid 5

        dataset = stream_encode(open_chunk_source(tmp_path / "base.basket"))
        try:
            before = _snapshot(dataset)
            with pytest.raises(IngestError, match="arrived after"):
                dataset.append_chunks(open_chunk_source(bad))
            assert dataset.generation == 0
            assert _snapshot(dataset) == before
            # The dataset must still mine after the refused append.
            assert dataset.database(decoded=True).num_transactions == 2
        finally:
            dataset.close()

    def test_failed_append_leaks_no_spill_files(self, tmp_path):
        db = TransactionDatabase(
            [(tid, ["a", "b", "c"]) for tid in range(1, 30)]
        )
        write_basket_file(db, tmp_path / "base.basket")
        bad = tmp_path / "bad.basket"
        bad.write_text(
            "".join(f"{tid}: a b\n" for tid in range(30, 60))
            + "2: z\n"  # regresses below the base tail -> typed failure
        )
        dataset = stream_encode(open_chunk_source(tmp_path / "base.basket"))
        try:
            with pytest.raises(IngestError):
                dataset.append_chunks(
                    open_chunk_source(bad), memory_budget_bytes=256
                )
            spill_root = dataset._spill_root
            if spill_root is not None:
                leftovers = [
                    p for p in Path(spill_root).glob("append-*") if p.is_file()
                ]
                assert leftovers == []
        finally:
            dataset.close()
