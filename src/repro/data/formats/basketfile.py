"""The basket chunk decoder: ``trans_id: item item ...`` lines.

One line parser serves both :func:`iter_basket_transactions` and the
chunk source; the chunk source dictionary-codes the raw tokens, so
:func:`~repro.data.formats.parse_item` sees each distinct token once.
A basket line *is* exactly the projected data — no extra columns
exist — so read and decoded bytes both equal the file size.

A basket transaction may legitimately be empty (``"7:"`` with no
items); it contributes no ``(trans_id, item)`` rows but still counts
toward the support denominator, so the chunk source surfaces such
trans_ids through :attr:`ColumnChunk.empty_trans_ids`.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from pathlib import Path

from repro.data.formats import (
    TRANS_ID_RANGE,
    ChunkSource,
    ColumnChunk,
    parse_item,
    register_decoder,
)

__all__ = ["BasketChunkSource", "iter_basket_transactions"]


def _iter_basket_lines(
    path: str | os.PathLike,
) -> Iterator[tuple[int, list[str]]]:
    """``(trans_id, raw item tokens)`` per basket line, in file order."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            head, separator, tail = line.partition(":")
            if not separator:
                raise ValueError(
                    f"{path}:{line_no}: expected 'trans_id: items', "
                    f"got {line!r}"
                )
            try:
                trans_id = int(head.strip())
            except ValueError:
                trans_id = None
            if trans_id is None or trans_id not in TRANS_ID_RANGE:
                raise ValueError(
                    f"{path}:{line_no}: bad trans_id {head.strip()!r}"
                )
            yield trans_id, tail.split()


def iter_basket_transactions(
    path: str | os.PathLike,
) -> Iterator[tuple[int, tuple]]:
    """Parse a basket file into ``(trans_id, items)`` pairs, in file order.

    Blank lines and ``#`` comment lines are ignored; malformed lines
    raise ``ValueError`` with the offending line number.  Items are not
    de-duplicated or sorted here — that is the consumer's contract
    (:class:`TransactionDatabase` construction, or the encoder's
    per-transaction normalization).
    """
    for trans_id, tokens in _iter_basket_lines(path):
        yield trans_id, tuple(parse_item(token) for token in tokens)


@register_decoder
class BasketChunkSource(ChunkSource):
    """Chunked ``(trans_id, item)`` batches from a basket file.

    Chunk boundaries fall only *between* transactions — a basket line
    is parsed whole — so a chunk may exceed ``chunk_rows`` by at most
    one transaction's length.  A whole-file read (``chunk_rows=None``)
    rejects a trans_id that appears on two lines, as
    :class:`TransactionDatabase` construction does; a chunked read
    leaves repeats to the encoder's ordering check.
    """

    format = "basket"

    def _decode(self) -> Iterator[ColumnChunk]:
        stats = self.stats
        stats.bytes_total = self.path.stat().st_size
        stats.bytes_read = stats.bytes_total
        stats.bytes_decoded = stats.bytes_total
        stats.columns_total = 2
        stats.columns_read = 2
        limit = self.chunk_rows
        seen: set[int] | None = set() if limit is None else None
        trans_ids: list[int] = []
        tokens: list[str] = []
        empties: list[int] = []
        for trans_id, txn_tokens in _iter_basket_lines(self.path):
            if seen is not None:
                if trans_id in seen:
                    raise ValueError(f"duplicate trans_id {trans_id!r}")
                seen.add(trans_id)
            if not txn_tokens:
                empties.append(trans_id)
            else:
                trans_ids.extend([trans_id] * len(txn_tokens))
                tokens.extend(txn_tokens)
            if limit is not None and len(trans_ids) >= limit:
                yield self._emit(
                    ColumnChunk.from_values(
                        trans_ids, tokens, tuple(empties), parse=parse_item
                    )
                )
                trans_ids = []
                tokens = []
                empties = []
        if trans_ids or empties:
            yield self._emit(
                ColumnChunk.from_values(
                    trans_ids, tokens, tuple(empties), parse=parse_item
                )
            )
