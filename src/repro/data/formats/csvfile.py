"""The CSV chunk decoder: numpy's C tokenizer, projected-field decoding.

A ``SALES`` CSV needs a header naming (at least) the two projected
columns ``trans_id`` and ``item``; any other columns are carried past
without ever being converted to values, and the saving shows up in
``stats.bytes_decoded`` (UTF-8 bytes, see
:class:`~repro.data.formats.DecodeStats`) versus ``stats.bytes_total``.  Row-major
formats cannot skip bytes on disk, so ``bytes_read`` equals the file
size — the *read* saving belongs to the columnar formats.

Each chunk of lines is decoded straight into int64 columns by
:func:`numpy.loadtxt`: ``trans_id`` as int64, and ``item`` as int64
when every label is an integer, else as raw strings that
:func:`~repro.data.formats.parse_item` sees once per distinct value.
The stdlib :mod:`csv` reader stays the reference: it decodes any chunk
numpy rejects (a malformed row, so the error names the same
``path:line`` as ever, or a token only Python's ``int`` accepts, such
as ``"1_000"``), and the rest of the file once a quote character
appears, since quoted fields may hide delimiters and span lines.
"""

from __future__ import annotations

import csv
from collections.abc import Iterable, Iterator
from itertools import chain, islice

import numpy as np

from repro.data.formats import (
    TRANS_ID_RANGE,
    ChunkSource,
    ColumnChunk,
    parse_item,
    register_decoder,
)

__all__ = ["CsvChunkSource"]

#: Lines the stdlib reader turns into an empty row, which it skips.
_BLANK_LINES = ("\n", "\r\n", "\r")

_LOADTXT = {"delimiter": ",", "comments": None, "quotechar": None}


def _rows_in(lines: list[str]) -> int:
    """Non-blank CSV rows among unquoted physical ``lines``."""
    return len(lines) - sum(lines.count(blank) for blank in _BLANK_LINES)


def _blank_bytes(lines: list[str], text: str) -> int:
    """Bytes of the blank lines among ``lines`` (joined: ``text``)."""
    # A blank line is a terminator right after another terminator (a
    # CR directly before an LF is one CRLF terminator); the substring
    # scans spare the per-line comparisons when there is none.
    if not (
        text.startswith(("\n", "\r"))
        or "\n\n" in text
        or "\n\r" in text
        or "\r\r" in text
    ):
        return 0
    return sum(lines.count(blank) * len(blank) for blank in _BLANK_LINES)


def _line_batches(
    handle: Iterable[str], limit: int | None
) -> Iterator[list[str]]:
    """Physical lines in batches holding ``limit`` non-blank rows each."""
    if limit is None:
        lines = list(handle)
        if lines:
            yield lines
        return
    while lines := list(islice(handle, limit)):
        rows = _rows_in(lines)
        while rows < limit:
            more = list(islice(handle, limit - rows))
            if not more:
                break
            lines += more
            rows += _rows_in(more)
        yield lines


def _unprojected_bytes(text: str, keep: tuple[int, int]) -> int:
    """UTF-8 bytes of the fields outside ``keep``, one delimiter each.

    ``text`` is unquoted CSV; blank lines hold no fields.
    """
    data = text.replace("\r\n", "\n").replace("\r", "\n").encode("utf-8")
    buf = np.frombuffer(data, dtype=np.uint8)
    newline = buf == 10
    ends = np.flatnonzero((buf == 44) | newline)
    at_newline = newline[ends]
    if not data.endswith(b"\n"):
        ends = np.append(ends, len(buf))
        at_newline = np.append(at_newline, True)
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts
    # Column index of each field: its position after its row's first.
    row_first = np.flatnonzero(np.concatenate(([True], at_newline[:-1])))
    row = np.cumsum(at_newline) - at_newline
    column = np.arange(len(ends)) - row_first[row]
    blank = at_newline & (column == 0) & (lengths == 0)
    outside = (column != keep[0]) & (column != keep[1]) & ~blank
    return int((lengths[outside] + 1).sum())


@register_decoder
class CsvChunkSource(ChunkSource):
    """Chunked ``(trans_id, item)`` batches from a headered CSV."""

    format = "csv"

    def _decode(self) -> Iterator[ColumnChunk]:
        stats = self.stats
        stats.bytes_total = self.path.stat().st_size
        stats.bytes_read = stats.bytes_total
        with self.path.open("r", encoding="utf-8", newline="") as handle:
            header = next(csv.reader(handle), None)
            names = (
                [cell.strip() for cell in header]
                if header is not None
                else []
            )
            if "trans_id" not in names or "item" not in names:
                raise ValueError(
                    f"{self.path}: expected header 'trans_id,item', "
                    f"got {header!r}"
                )
            keep = (names.index("trans_id"), names.index("item"))
            stats.columns_total = len(names)
            stats.columns_read = 2
            # Rows the stdlib reader has yielded so far (the header is
            # row 1); in unquoted text a row is one physical line.
            rows_seen = 1
            for lines in _line_batches(handle, self.chunk_rows):
                text = "".join(lines)
                if '"' in text:
                    # Quoted fields may hide delimiters and span lines.
                    yield from self._stdlib_chunks(
                        chain(lines, handle), rows_seen + 1, keep
                    )
                    return
                blank_bytes = _blank_bytes(lines, text)
                rows = _rows_in(lines) if blank_bytes else len(lines)
                chunk = self._numpy_chunk(lines, rows, keep)
                if chunk is None:
                    (chunk,) = self._stdlib_chunks(
                        lines, rows_seen + 1, keep, emit=False
                    )
                else:
                    stats.bytes_decoded += (
                        len(text.encode("utf-8")) - blank_bytes
                    )
                    # Every row holds at least the projected pair, so
                    # one comma per row in a two-column file means no
                    # other field exists.
                    if len(names) > 2 or text.count(",") != rows:
                        stats.bytes_decoded -= _unprojected_bytes(text, keep)
                rows_seen += len(lines)
                if len(chunk):
                    yield self._emit(chunk)

    def _numpy_chunk(
        self, lines: list[str], rows: int, keep: tuple[int, int]
    ) -> ColumnChunk | None:
        """Decode unquoted ``lines`` in C, or ``None`` to defer to stdlib."""
        if rows == 0:
            return ColumnChunk(
                np.empty(0, np.int64), np.empty(0, np.int64), []
            )
        tid_col, item_col = keep
        if rows != len(lines):
            lines = [line for line in lines if line not in _BLANK_LINES]
        try:
            table = np.loadtxt(
                lines, dtype=np.int64, usecols=keep, ndmin=2, **_LOADTXT
            )
            trans_ids = table[:, 0]
            distinct, codes = np.unique(table[:, 1], return_inverse=True)
            labels = distinct.tolist()
        except ValueError:
            try:
                trans_ids = np.loadtxt(
                    lines, dtype=np.int64, usecols=tid_col, ndmin=1,
                    **_LOADTXT,
                )
                raw = np.loadtxt(
                    lines, dtype=str, usecols=item_col, ndmin=1, **_LOADTXT
                )
            except ValueError:
                return None
            distinct, codes = np.unique(raw, return_inverse=True)
            labels = [parse_item(token) for token in distinct.tolist()]
        if len(trans_ids) != rows:
            return None
        return ColumnChunk(
            np.ascontiguousarray(trans_ids), codes.astype(np.int64), labels
        )

    def _stdlib_chunks(
        self,
        lines: Iterable[str],
        first_row: int,
        keep: tuple[int, int],
        *,
        emit: bool = True,
    ) -> Iterator[ColumnChunk]:
        """The reference decode: :mod:`csv` rows, one Python value each.

        ``first_row`` numbers the first row for error messages.  With
        ``emit=False`` every row of ``lines`` lands in one chunk that is
        returned without being counted (the caller counts it).
        """
        stats = self.stats
        tid_col, item_col = keep
        width = max(keep)
        limit = self.chunk_rows if emit else None
        consumed: list[str] = []

        def recorded() -> Iterator[str]:
            for line in lines:
                consumed.append(line)
                yield line

        trans_ids: list[int] = []
        items: list[str] = []
        for line_no, row in enumerate(csv.reader(recorded()), start=first_row):
            raw = "".join(consumed)
            consumed.clear()
            if not row:
                continue
            if len(row) <= width:
                raise ValueError(
                    f"{self.path}:{line_no}: expected two columns"
                )
            raw_tid = row[tid_col]
            try:
                trans_id = int(raw_tid)
            except ValueError:
                trans_id = None
            if trans_id is None or trans_id not in TRANS_ID_RANGE:
                raise ValueError(
                    f"{self.path}:{line_no}: bad trans_id {raw_tid!r}"
                )
            trans_ids.append(trans_id)
            items.append(row[item_col])
            stats.bytes_decoded += len(raw.encode("utf-8")) - sum(
                len(cell.encode("utf-8")) + 1
                for column, cell in enumerate(row)
                if column not in keep
            )
            if limit is not None and len(trans_ids) >= limit:
                yield self._emit(
                    ColumnChunk.from_values(trans_ids, items, parse=parse_item)
                )
                trans_ids = []
                items = []
        if trans_ids or not emit:
            chunk = ColumnChunk.from_values(trans_ids, items, parse=parse_item)
            yield self._emit(chunk) if emit else chunk
