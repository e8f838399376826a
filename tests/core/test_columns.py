"""Unit tests for the columnar relation kernel (repro.core.columns)."""

from __future__ import annotations

from array import array

import numpy as np
import pytest

from repro.core.columns import (
    InstanceRelation,
    PatternKeys,
    SalesIndex,
    count_packed_keys,
    count_sorted_rows,
    filter_by_keys,
    suffix_extend,
    take,
    tid_group_bounds,
)
from repro.core.setm import merge_scan_extend, setm
from repro.core.setm_columnar import ColumnarKernel
from repro.core.transactions import TransactionDatabase
from repro.errors import KeySpaceError, ReproError


def small_db() -> TransactionDatabase:
    return TransactionDatabase(
        [
            (1, ["A", "B", "C"]),
            (2, ["A", "C"]),
            (3, ["B"]),
            (5, ["A", "B", "C", "D"]),
        ]
    )


def sales_relation(db: TransactionDatabase) -> InstanceRelation:
    return InstanceRelation.sales_from_database(db, db.catalog())


class TestTidGroupBounds:
    def test_empty(self):
        assert tid_group_bounds(array("q")) == [0]

    def test_single_run(self):
        assert tid_group_bounds(array("q", [7, 7, 7])) == [0, 3]

    def test_multiple_runs(self):
        tids = array("q", [1, 1, 2, 5, 5, 5])
        assert tid_group_bounds(tids) == [0, 2, 3, 6]

    def test_runs_of_one(self):
        assert tid_group_bounds(array("q", [3, 4, 5])) == [0, 1, 2, 3]


class TestInstanceRelation:
    def test_from_rows_roundtrip(self):
        rows = [(1, 10, 20), (1, 10, 30), (2, 20, 30)]
        relation = InstanceRelation.from_rows(rows, k=2)
        assert relation.k == 2
        assert len(relation) == 3
        assert list(relation.rows()) == rows
        assert relation.row(1) == (1, 10, 30)

    def test_sales_from_database_matches_sales_rows(self):
        db = small_db()
        catalog = db.catalog()
        relation = sales_relation(db)
        expected = [
            (tid, catalog.id_of(item)) for tid, item in db.sales_rows()
        ]
        assert list(relation.rows()) == expected
        assert relation.k == 1

    def test_sales_keys_alias_item_column(self):
        relation = sales_relation(small_db())
        assert list(relation.keys) == list(relation.items[0])
        assert list(relation.last_sid) == list(range(len(relation)))

    def test_lazy_tids_and_items_materialize(self):
        db = small_db()
        sales = sales_relation(db)
        r_prime = suffix_extend(sales, sales.index)
        # Lazy relation: logical columns derive from keys/last_sid.
        rows = sorted(r_prime.rows())
        expected = sorted(
            merge_scan_extend(
                list(sales_relation(db).rows()),
                list(sales_relation(db).rows()),
            )
        )
        assert rows == expected

    def test_constructor_rejects_underspecified_relation(self):
        with pytest.raises(ValueError, match="item columns"):
            InstanceRelation(None, None, keys=[1, 2])


class TestSalesIndex:
    def test_ext_counts_against_bruteforce(self):
        db = small_db()
        sales = sales_relation(db)
        index = sales.index
        rows = list(db.sales_rows())
        for position, (tid, _) in enumerate(rows):
            remaining = sum(
                1 for later_tid, _ in rows[position + 1:] if later_tid == tid
            )
            assert int(index.ext_counts[position]) == remaining

    def test_from_relation_matches_database_path(self):
        db = small_db()
        sales = sales_relation(db)
        rebuilt = SalesIndex.from_relation(
            InstanceRelation.from_rows(list(sales.rows()), k=1),
            sales.index.base,
        )
        assert list(rebuilt.ext_counts) == list(sales.index.ext_counts)
        assert list(rebuilt.tids) == list(sales.index.tids)

    def test_lazy_tids_column(self):
        db = small_db()
        index = sales_relation(db).index
        assert list(index.tids) == [tid for tid, _ in db.sales_rows()]


class TestSuffixExtend:
    def test_matches_tuple_merge_scan(self):
        db = small_db()
        sales = sales_relation(db)
        encoded_rows = list(sales.rows())
        r_prime = suffix_extend(sales, sales.index)
        assert sorted(r_prime.rows()) == sorted(
            merge_scan_extend(encoded_rows, encoded_rows)
        )
        assert r_prime.k == 2

    def test_level_two_keys_carry_both_items(self):
        sales = sales_relation(small_db())
        r_prime = suffix_extend(sales, sales.index)
        base = sales.index.base
        assert r_prime.keys.tolist() == [
            first * base + second for _, first, second in r_prime.rows()
        ]

    def test_deeper_levels_need_the_frequent_prefixes(self):
        sales = sales_relation(small_db())
        r_prime = suffix_extend(sales, sales.index)
        with pytest.raises(ValueError, match="frequent"):
            suffix_extend(r_prime, sales.index)
        with pytest.raises(ValueError, match="frequent"):
            suffix_extend(sales, sales.index, np.array([1], dtype=np.int64))

    def test_prefix_is_the_rank_in_the_frequent_keys(self):
        sales = sales_relation(small_db())
        r2 = suffix_extend(sales, sales.index)
        frequent = np.unique(r2.keys)
        r3 = suffix_extend(r2, sales.index, frequent)
        base = sales.index.base
        heads, items = np.divmod(r3.keys, base)
        assert (heads < len(frequent)).all()
        expected = sorted(
            merge_scan_extend(list(r2.rows()), list(sales.rows()))
        )
        assert sorted(
            (tid, *divmod(int(frequent[head]), base), item)
            for tid, head, item in zip(
                r3.tids.tolist(), heads.tolist(), items.tolist()
            )
        ) == expected

    def test_rows_stay_sorted_at_every_level(self):
        """Rank is monotone in the key: every R'_k comes out sorted by
        (trans_id, key) with no re-sort, at every depth."""
        db = TransactionDatabase(
            [(tid, list("ABCDEF")) for tid in (1, 2, 4)]
            + [(3, list("ACEF")), (5, list("BDF"))]
        )
        kernel = ColumnarKernel(db)
        sales = kernel.make_sales()
        r = sales
        while len(r):
            r_prime = kernel.merge_extend(r, sales)
            order = np.lexsort((r_prime.keys, r_prime.tids))
            assert (order == np.arange(len(r_prime))).all(), r_prime.k
            _, _, r = kernel.count_and_filter(r_prime, 2)

    def test_empty_relation(self):
        db = TransactionDatabase([(1, ["A"]), (2, ["B"])])
        sales = sales_relation(db)
        r_prime = suffix_extend(sales, sales.index)
        assert len(r_prime) == 0

    def test_requires_kernel_columns(self):
        bare = InstanceRelation.from_rows([(1, 5)], k=1)
        sales = sales_relation(small_db())
        with pytest.raises(ValueError, match="last_sid"):
            suffix_extend(bare, sales.index)


def _kernel_levels(db, threshold):
    """Run the columnar kernel's loop by hand; every level's C_k keys."""
    kernel = ColumnarKernel(db)
    sales = kernel.make_sales()
    levels = {}
    r = sales
    while len(r):
        r_prime = kernel.merge_extend(r, sales)
        _, c_k, r = kernel.count_and_filter(r_prime, threshold)
        if c_k:
            levels[r_prime.k] = c_k
    return kernel, levels


class TestPatternKeys:
    def test_decode_walks_down_the_ranks(self):
        """Every level's keys decode to exactly the tuple engine's C_k."""
        db = TransactionDatabase(
            [(tid, list("ABCDEFG")) for tid in range(1, 4)]
            + [(4, list("ABCX")), (5, list("BCDY"))]
        )
        kernel, levels = _kernel_levels(db, 2)
        reference = setm(db, 2, measure_memory=False).count_relations
        assert max(levels) == 7
        for k, c_k in levels.items():
            assert {
                kernel.decode(key, k): count for key, count in c_k.items()
            } == reference[k]

    def test_key_order_equals_pattern_order(self):
        db = TransactionDatabase(
            [(tid, list("ABCDE")) for tid in range(1, 3)]
            + [(3, list("ACE")), (4, list("BDE"))]
        )
        kernel, levels = _kernel_levels(db, 1)
        for k, c_k in levels.items():
            ordered = sorted(c_k)
            assert [kernel.decode(key, k) for key in ordered] == sorted(
                kernel.decode(key, k) for key in ordered
            )

    def test_decode_by_hand(self):
        keys = PatternKeys(10)
        keys.record(2, [12, 35, 37])
        keys.record(3, [8, 25])  # (1, 2, 8) and (3, 7, 5)
        assert keys.decode(7, 1) == (7,)
        assert keys.decode(37, 2) == (3, 7)
        assert keys.decode(8, 3) == (1, 2, 8)
        assert keys.decode(25, 3) == (3, 7, 5)
        assert keys.decode(16, 4) == (3, 7, 5, 6)
        assert keys.parents(np.array([8, 25]), 3).tolist() == [12, 37]

    def test_keys_that_would_wrap_raise_typed(self):
        """One bound per level: len(F_k) * base must fit int64."""
        base = 2**32
        index = SalesIndex(
            np.array([1, 2, 3], dtype=np.int64),
            base,
            run_lengths=[3],
            trans_ids=[1],
        )
        r2 = InstanceRelation(
            None,
            None,
            last_sid=np.array([1], dtype=np.int64),
            keys=np.array([base + 2], dtype=np.int64),
            k=2,
            index=index,
        )
        # 2**31 frequent level-2 keys (a zero-stride view, no memory):
        # ranks up to 2**31 times radix 2**32 pass 2**63.
        frequent = np.broadcast_to(np.int64(base + 2), (2**31,))
        with pytest.raises(KeySpaceError) as excinfo:
            suffix_extend(r2, index, frequent)
        assert isinstance(excinfo.value, ReproError)
        sales = InstanceRelation.sales_from_columns(
            index.items, base=base, run_lengths=[3], trans_ids=[1]
        )
        with pytest.raises(KeySpaceError):
            suffix_extend(sales, sales.index)


class TestPackedKeys:
    @pytest.mark.parametrize("via", ["auto", "sort", "hash"])
    def test_count_strategies_agree(self, via):
        keys = [5, 3, 5, 5, 3, 9]
        assert sorted(count_packed_keys(keys, via=via)) == [
            (3, 2),
            (5, 3),
            (9, 1),
        ]

    def test_count_empty(self):
        assert count_packed_keys([], via="sort") == []
        assert count_packed_keys([], via="hash") == []


class TestFilterByKeys:
    def test_keeps_only_supported(self):
        sales = sales_relation(small_db())
        r_prime = suffix_extend(sales, sales.index)
        counts = dict(count_packed_keys(r_prime.keys, via="sort"))
        supported = {key for key, count in counts.items() if count >= 2}
        filtered = filter_by_keys(r_prime, supported)
        assert len(filtered) == sum(counts[key] for key in supported)
        assert set(map(int, filtered.keys)) <= supported
        # Row order (trans_id, items) is preserved.
        assert list(filtered.rows()) == [
            row
            for row in r_prime.rows()
            if row[1] * sales.index.base + row[2] in supported
        ]

    def test_accepts_a_sorted_key_array(self):
        sales = sales_relation(small_db())
        r_prime = suffix_extend(sales, sales.index)
        supported = {int(r_prime.keys[0]), int(r_prime.keys[-1])}
        by_set = filter_by_keys(r_prime, supported)
        by_array = filter_by_keys(
            r_prime, np.array(sorted(supported), dtype=np.int64)
        )
        assert list(by_array.rows()) == list(by_set.rows())
        assert by_array.last_sid.tolist() == by_set.last_sid.tolist()

    def test_all_surviving_returns_same_object(self):
        sales = sales_relation(small_db())
        r_prime = suffix_extend(sales, sales.index)
        everything = set(map(int, r_prime.keys))
        assert filter_by_keys(r_prime, everything) is r_prime

    def test_requires_keys(self):
        bare = InstanceRelation.from_rows([(1, 5)], k=1)
        with pytest.raises(ValueError, match="packed-keys"):
            filter_by_keys(bare, {5})



class TestTake:
    def test_gathers_rows_and_derived_columns(self):
        sales = sales_relation(small_db())
        taken = take(sales, [0, 2, 3])
        rows = list(sales.rows())
        assert list(taken.rows()) == [rows[0], rows[2], rows[3]]
        assert list(map(int, taken.keys)) == [
            int(sales.keys[0]), int(sales.keys[2]), int(sales.keys[3])
        ]


class TestCountSortedRows:
    """The shared sequential-scan grouping helper (setm + mergejoin)."""

    def test_counts_runs(self):
        rows = [(1, "A"), (3, "A"), (2, "B")]
        rows.sort(key=lambda row: row[1:])
        assert count_sorted_rows(rows) == [(("A",), 2), (("B",), 1)]

    def test_empty(self):
        assert count_sorted_rows([]) == []

    def test_multi_column_patterns(self):
        rows = [(1, "A", "B"), (2, "A", "B"), (1, "A", "C")]
        rows.sort(key=lambda row: row[1:])
        assert count_sorted_rows(rows) == [(("A", "B"), 2), (("A", "C"), 1)]
