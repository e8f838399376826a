"""Reading and writing transaction data.

Two interchange formats:

* **basket files** — one transaction per line, ``trans_id: item item ...``
  (the format the paper's main-memory implementation reads: "We
  implemented the algorithm to run in main memory and read a file of
  transactions");
* **SALES CSV** — one ``trans_id,item`` row per line with a header,
  mirroring the relational schema of Section 2, loadable straight into
  sqlite3 or the bundled SQL engine.

Items round-trip as strings unless they look like integers, in which case
they come back as ``int`` — matching the generators, which use integer
items throughout.

Both readers are one call: :func:`repro.data.ingest.load_dataset` with
``chunk_rows=None`` decodes the whole file straight into encoded
``R_1`` columns (any row order, duplicate rows collapse), and
:meth:`~repro.data.ingest.EncodedDataset.database` materializes the
labelled :class:`TransactionDatabase` from them.  So parsing lives in
:mod:`repro.data.formats` and encoding in :mod:`repro.data.ingest`,
each in exactly one place, whatever the caller asks for.
"""

from __future__ import annotations

import csv
from pathlib import Path

from repro.core.transactions import TransactionDatabase
from repro.data.formats import parse_item as _parse_item  # noqa: F401  (re-export)
from repro.data.ingest import load_dataset

__all__ = [
    "read_basket_file",
    "read_sales_csv",
    "write_basket_file",
    "write_sales_csv",
]


def write_basket_file(database: TransactionDatabase, path: str | Path) -> None:
    """Write ``trans_id: item item ...`` lines, one per transaction."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for txn in database:
            items = " ".join(str(item) for item in txn.items)
            handle.write(f"{txn.trans_id}: {items}\n")


def read_basket_file(path: str | Path) -> TransactionDatabase:
    """Read a file produced by :func:`write_basket_file`.

    Blank lines and ``#`` comment lines are ignored; malformed lines
    and duplicate trans_ids raise ``ValueError`` with the offending line
    number or trans_id.
    """
    return load_dataset(path, input_format="basket", chunk_rows=None).database(
        decoded=True
    )


def write_sales_csv(database: TransactionDatabase, path: str | Path) -> None:
    """Write the ``SALES(trans_id, item)`` relation as CSV with a header."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["trans_id", "item"])
        for trans_id, item in database.sales_rows():
            writer.writerow([trans_id, item])


def read_sales_csv(path: str | Path) -> TransactionDatabase:
    """Read a CSV produced by :func:`write_sales_csv` (header required).

    The header must *name* the ``trans_id`` and ``item`` columns; any
    extra columns are carried past undecoded (the decoder projects just
    the two named ones).  Rows may come in any order; duplicate rows
    collapse (the relation is a set), as
    :func:`~repro.core.transactions.sales_rows_to_transactions` defines.
    """
    return load_dataset(path, input_format="csv", chunk_rows=None).database(
        decoded=True
    )
