"""Benchmark inputs, generated from the seed and cached on disk.

Each dataset starts from one fixed draw of the package's own generators
(:mod:`repro.data.retail`, :mod:`repro.data.quest`, at their default
seeds); the benchmark seed then permutes the item labels.  A relabeled
dataset has the same shape (transactions, rows, items, the pattern
structure) but a different item order, so the kernels' extension and
packing work differs in detail from seed to seed while its size stays
put.  Seeds therefore vary the inputs without adding the large
seed-to-seed swings of a fresh QUEST draw to every metric.

Everything here runs in the benchmark process, outside every timed
region; the program under test only sees the CSV files written below.
A change to those generators changes the benchmark's inputs, so it
belongs in a benchmark change of its own.  Each cache entry is written
into a temporary directory and renamed into place, so an interrupted
run never leaves a half-written entry.
"""

from __future__ import annotations

import csv
import random
import shutil
from pathlib import Path

#: Distinct append batches generated for the serve writer.  Batch ``i``
#: carries the transactions of batch ``i % SERVE_BATCHES`` renumbered to
#: continue past batch ``i - 1``, so the writer never runs out however
#: fast appends become.
SERVE_BATCHES = 50
SERVE_BATCH_TRANSACTIONS = 100
SERVE_BASE_TRANSACTIONS = 10_000


def _write_rows(path: Path, rows) -> None:
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["trans_id", "item"])
        writer.writerows(rows)


def _cached(root: Path, key: str, build) -> Path:
    """The directory for ``key`` under ``root``, built once by ``build``."""
    target = root / key
    if target.is_dir():
        return target
    staging = root / f".{key}.partial"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    build(staging)
    staging.rename(target)
    return target


def _relabeled(rows, seed: int) -> list[tuple[int, int]]:
    """``rows`` with item labels permuted by ``seed``."""
    labels = sorted({item for _, item in rows})
    shuffled = list(labels)
    random.Random(seed).shuffle(shuffled)
    mapping = dict(zip(labels, shuffled))
    return [(tid, mapping[item]) for tid, item in rows]


def _draw(root: Path, name: str, generate) -> list[tuple[int, int]]:
    """The rows of the fixed draw ``name``, generated once."""

    def build(directory: Path) -> None:
        _write_rows(directory / "rows.csv", generate().sales_rows())

    return read_rows(_cached(root, f"draw-{name}", build) / "rows.csv")


def retail_csv(root: Path, seed: int) -> Path:
    """The Table 6.2 retail SALES relation: 46,873 transactions,
    115,568 rows and 59 items."""

    def build(directory: Path) -> None:
        from repro.data.retail import generate_retail_dataset

        rows = _draw(root, "retail", generate_retail_dataset)
        _write_rows(directory / "retail.csv", _relabeled(rows, seed))

    return _cached(root, f"retail-{seed}", build) / "retail.csv"


def quest_wide_csv(root: Path, seed: int) -> Path:
    """QUEST T10.I6.D10K over a 20,000-item universe (~103k rows, ~5.1k
    distinct items): nine iterations, keys past 64 bits from k=6."""

    def build(directory: Path) -> None:
        from repro.data.quest import QuestConfig, generate_quest_dataset

        rows = _draw(root, "quest-wide", lambda: generate_quest_dataset(
            QuestConfig(num_transactions=10_000, avg_transaction_len=10,
                        avg_pattern_len=6, num_items=20_000)
        ))
        _write_rows(directory / "quest.csv", _relabeled(rows, seed))

    return _cached(root, f"quest-wide-{seed}", build) / "quest.csv"


def serve_quest(root: Path, seed: int) -> tuple[Path, Path]:
    """QUEST T10.I4: a 10k-transaction base CSV and the rows of
    :data:`SERVE_BATCHES` 100-transaction batches that follow it."""

    def build(directory: Path) -> None:
        from repro.data.quest import QuestConfig, generate_quest_dataset

        total = (SERVE_BASE_TRANSACTIONS
                 + SERVE_BATCHES * SERVE_BATCH_TRANSACTIONS)
        rows = _relabeled(_draw(root, "serve-quest", lambda: (
            generate_quest_dataset(QuestConfig(
                num_transactions=total, avg_transaction_len=10,
                avg_pattern_len=4,
            ))
        )), seed)
        _write_rows(directory / "base.csv",
                    (row for row in rows if row[0] <= SERVE_BASE_TRANSACTIONS))
        _write_rows(directory / "batches.csv",
                    (row for row in rows if row[0] > SERVE_BASE_TRANSACTIONS))

    directory = _cached(root, f"serve-quest-{seed}", build)
    return directory / "base.csv", directory / "batches.csv"


def read_rows(path: Path) -> list[tuple[int, int]]:
    """``(trans_id, item)`` rows of a CSV written by this module."""
    with path.open(encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        return [(int(tid), int(item)) for tid, item in reader]


def batch_rows(batches: list[tuple[int, int]], index: int):
    """Rows of append batch ``index`` (see :data:`SERVE_BATCHES`)."""
    size = SERVE_BATCH_TRANSACTIONS
    low = SERVE_BASE_TRANSACTIONS + (index % SERVE_BATCHES) * size
    shift = (index // SERVE_BATCHES) * SERVE_BATCHES * size
    return [(tid + shift, item) for tid, item in batches
            if low < tid <= low + size]


def write_batch(batches, index: int, path: Path) -> Path:
    _write_rows(path, batch_rows(batches, index))
    return path
