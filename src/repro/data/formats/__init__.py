"""Per-format chunk decoders with column-projection pushdown.

The ingest layer (:mod:`repro.data.ingest`) never reads a whole input
file row by row into Python objects: it pulls ``(trans_id, item)``
**column batches** — an int64 ``trans_id`` column plus dictionary codes
into the batch's distinct labels (:class:`ColumnChunk`) — from a
:class:`ChunkSource` and encodes them one batch at a time.  This
package holds the sources, one module per format:

* ``csv`` — numpy's C tokenizer, with the stdlib :mod:`csv` reader as
  the reference for anything it rejects; the file must be scanned
  byte-for-byte (row-major format), but only the ``trans_id`` and
  ``item`` fields are ever *decoded* — extra columns pass through
  untouched and the decode-byte saving is recorded;
* ``basket`` — the paper-shaped ``trans_id: item item ...`` lines;
  every byte is projected data, so read and decoded bytes coincide;
* ``parquet`` / ``arrow`` — real column-projection pushdown behind the
  optional ``pyarrow`` dependency: only the two needed columns' chunks
  are read at all, and the per-source stats record the byte saving
  (``bytes_read_reduction``) against the full file.

Every source accounts its own I/O in a :class:`DecodeStats`: total file
bytes, bytes actually read, bytes decoded, chunk and row counts.
Formats without ``pyarrow`` installed fail at :func:`open_chunk_source`
time with a typed :class:`~repro.errors.InvalidConfigError` carrying an
install hint — never midway through an ingest.

A whole-file read is a single-chunk read (``chunk_rows=None``), so each
format is parsed in exactly one place.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ClassVar

import numpy as np

from repro.errors import InvalidConfigError

__all__ = [
    "ChunkSource",
    "ColumnChunk",
    "DecodeStats",
    "available_formats",
    "detect_format",
    "open_chunk_source",
    "parse_item",
    "register_decoder",
    "require_pyarrow",
]

#: The two columns every decoder projects: the paper's SALES schema.
PROJECTED_COLUMNS = ("trans_id", "item")


#: The ``trans_id`` range the int64 encoded columns hold.
TRANS_ID_RANGE = range(-(2**63), 2**63)


def parse_item(token: str):
    """Items that look like integers become integers; others stay strings."""
    try:
        return int(token)
    except ValueError:
        return token


@dataclass
class ColumnChunk:
    """One decoded batch of ``SALES`` rows, as dictionary-coded columns.

    Row ``i`` is the sale ``(trans_ids[i], labels[codes[i]])``: both
    columns are int64 arrays, and ``labels`` holds each distinct label
    of the batch once (two codes may name equal labels after
    :func:`parse_item` folding, e.g. ``"5"`` and ``"05"``).
    ``empty_trans_ids`` carries transactions that contributed *no* rows
    (possible in the basket format, impossible in row-per-sale
    formats); they still count toward the support denominator, so the
    encoder must not lose them.
    """

    trans_ids: np.ndarray
    codes: np.ndarray
    labels: list[Any]
    empty_trans_ids: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.trans_ids)

    @property
    def items(self) -> list[Any]:
        """The label of every row, in row order."""
        labels = self.labels
        return [labels[code] for code in self.codes.tolist()]

    @classmethod
    def from_values(
        cls,
        trans_ids,
        items,
        empty_trans_ids: tuple[int, ...] = (),
        *,
        parse=None,
    ) -> "ColumnChunk":
        """Dictionary-code row-aligned ``trans_ids``/``items`` sequences.

        Each distinct raw item is looked up once; ``parse`` (e.g.
        :func:`parse_item`) then converts each distinct raw value once.
        """
        index: dict[Any, int] = {}
        codes = [index.setdefault(item, len(index)) for item in items]
        labels = list(index) if parse is None else list(map(parse, index))
        return cls(
            np.array(trans_ids, dtype=np.int64),
            np.array(codes, dtype=np.int64),
            labels,
            tuple(empty_trans_ids),
        )

    @classmethod
    def concat(cls, chunks: list["ColumnChunk"]) -> "ColumnChunk":
        """One chunk holding every row of ``chunks``, in order."""
        if len(chunks) == 1:
            return chunks[0]
        labels: list[Any] = []
        codes = []
        for chunk in chunks:
            codes.append(chunk.codes + len(labels))
            labels.extend(chunk.labels)
        return cls(
            np.concatenate(
                [chunk.trans_ids for chunk in chunks]
                or [np.empty(0, np.int64)]
            ),
            np.concatenate(codes or [np.empty(0, np.int64)]),
            labels,
            tuple(tid for chunk in chunks for tid in chunk.empty_trans_ids),
        )


@dataclass
class DecodeStats:
    """Per-source I/O accounting, filled in while the source is iterated.

    ``bytes_read`` is what the decoder actually fetched from the file
    (for columnar formats with projection pushdown this is less than
    ``bytes_total``); ``bytes_decoded`` is the UTF-8 bytes it converted
    into values (for row formats with projected *fields* this is less
    than ``bytes_read``) — for CSV, the data rows' bytes less each
    field outside the projection and one delimiter per such field, so
    a two-column file decodes every byte but its header.  The
    reductions are the honest savings claims the benchmark records.
    """

    format: str
    path: str
    bytes_total: int = 0
    bytes_read: int = 0
    bytes_decoded: int = 0
    chunks: int = 0
    rows: int = 0
    columns_total: int = 0
    columns_read: int = 0
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def bytes_read_reduction(self) -> float:
        """Fraction of the file *not* read, thanks to projection pushdown."""
        if self.bytes_total <= 0:
            return 0.0
        return max(0.0, 1.0 - self.bytes_read / self.bytes_total)

    @property
    def bytes_decoded_reduction(self) -> float:
        """Fraction of the file never decoded into Python values."""
        if self.bytes_total <= 0:
            return 0.0
        return max(0.0, 1.0 - self.bytes_decoded / self.bytes_total)

    def as_dict(self) -> dict[str, Any]:
        return {
            "format": self.format,
            "path": self.path,
            "bytes_total": self.bytes_total,
            "bytes_read": self.bytes_read,
            "bytes_decoded": self.bytes_decoded,
            "bytes_read_reduction": round(self.bytes_read_reduction, 4),
            "bytes_decoded_reduction": round(
                self.bytes_decoded_reduction, 4
            ),
            "chunks": self.chunks,
            "rows": self.rows,
            "columns_total": self.columns_total,
            "columns_read": self.columns_read,
            **self.extra,
        }

    def reset(self) -> None:
        """Zero the counters (a source iterated twice restarts its tally)."""
        self.bytes_total = 0
        self.bytes_read = 0
        self.bytes_decoded = 0
        self.chunks = 0
        self.rows = 0
        self.extra = {}


class ChunkSource:
    """Base of every decoder: iterate :class:`ColumnChunk` batches.

    Subclasses set the class attribute ``format`` and implement
    ``_decode()``; iteration resets and then fills :attr:`stats`.
    ``chunk_rows=None`` means "one chunk for the whole file" — the
    whole-file readers of :mod:`repro.data.io` use exactly that.
    """

    format: ClassVar[str] = ""

    def __init__(
        self, path: str | os.PathLike, *, chunk_rows: int | None = None
    ) -> None:
        if chunk_rows is not None and (
            isinstance(chunk_rows, bool)
            or not isinstance(chunk_rows, int)
            or chunk_rows < 1
        ):
            raise InvalidConfigError(
                f"chunk_rows must be a positive integer or None; "
                f"got {chunk_rows!r}"
            )
        self.path = Path(path)
        self.chunk_rows = chunk_rows
        self.stats = DecodeStats(format=self.format, path=str(self.path))

    def __iter__(self) -> Iterator[ColumnChunk]:
        self.stats.reset()
        return self._decode()

    def _decode(self) -> Iterator[ColumnChunk]:
        raise NotImplementedError

    def _emit(self, chunk: ColumnChunk) -> ColumnChunk:
        self.stats.chunks += 1
        self.stats.rows += len(chunk)
        return chunk


_DECODERS: dict[str, type[ChunkSource]] = {}


def register_decoder(cls: type[ChunkSource]) -> type[ChunkSource]:
    """Class decorator: register ``cls`` under its ``format`` name."""
    if not cls.format:
        raise ValueError("a ChunkSource subclass needs a format name")
    _DECODERS[cls.format] = cls
    return cls


def available_formats() -> tuple[str, ...]:
    """Registered format names, plus the ``auto`` sniffing pseudo-format."""
    return ("auto", *sorted(_DECODERS))


def _import_pyarrow():
    """Seam for tests: the raw import, monkeypatchable independently."""
    import pyarrow

    return pyarrow


def require_pyarrow(feature: str):
    """Import and return :mod:`pyarrow`, or fail typed with an install hint."""
    try:
        return _import_pyarrow()
    except ImportError:
        raise InvalidConfigError(
            f"{feature} needs the optional dependency pyarrow "
            "(pip install pyarrow); without it, convert the input to "
            "CSV or basket format"
        ) from None


#: File-magic prefixes checked before extensions: renamed files still
#: route to the right decoder.
_MAGIC = (
    (b"PAR1", "parquet"),
    (b"ARROW1", "arrow"),
)

_EXTENSIONS = {
    ".csv": "csv",
    ".parquet": "parquet",
    ".pq": "parquet",
    ".arrow": "arrow",
    ".arrows": "arrow",
    ".feather": "arrow",
    ".ipc": "arrow",
    ".basket": "basket",
}


def detect_format(path: str | os.PathLike) -> str:
    """Sniff a file's format: magic bytes first, then extension.

    Anything unrecognized is treated as a basket file — the package's
    historical default for extensionless transaction files.
    """
    path = Path(path)
    try:
        with path.open("rb") as handle:
            head = handle.read(8)
    except OSError:
        head = b""
    for magic, fmt in _MAGIC:
        if head.startswith(magic):
            return fmt
    return _EXTENSIONS.get(path.suffix.lower(), "basket")


def open_chunk_source(
    path: str | os.PathLike,
    *,
    input_format: str | None = "auto",
    chunk_rows: int | None = None,
) -> ChunkSource:
    """A :class:`ChunkSource` over ``path`` in the requested format.

    ``input_format`` of ``"auto"`` (or ``None``) sniffs via
    :func:`detect_format`.  Unknown formats and formats whose optional
    dependency is missing raise :class:`InvalidConfigError` here, before
    any decoding starts.
    """
    if input_format is None or input_format == "auto":
        input_format = detect_format(path)
    decoder = _DECODERS.get(input_format)
    if decoder is None:
        choices = ", ".join(available_formats())
        raise InvalidConfigError(
            f"unknown input format {input_format!r}; choose from: {choices}"
        )
    return decoder(path, chunk_rows=chunk_rows)


# Import for side effect: each module registers its decoder.
from repro.data.formats import arrowfile as _arrowfile  # noqa: E402,F401
from repro.data.formats import basketfile as _basketfile  # noqa: E402,F401
from repro.data.formats import csvfile as _csvfile  # noqa: E402,F401
from repro.data.formats import parquetfile as _parquetfile  # noqa: E402,F401
