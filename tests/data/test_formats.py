"""Unit tests for the chunk decoders of :mod:`repro.data.formats`."""

from __future__ import annotations

import pytest

from repro.data.formats import (
    ChunkSource,
    DecodeStats,
    available_formats,
    detect_format,
    open_chunk_source,
)
from repro.data.formats.basketfile import (
    BasketChunkSource,
    iter_basket_transactions,
)
from repro.data.formats.csvfile import CsvChunkSource
from repro.errors import InvalidConfigError


def _pyarrow_available() -> bool:
    try:
        import pyarrow  # noqa: F401
    except ImportError:
        return False
    return True


class TestDetectFormat:
    def test_extensions(self, tmp_path):
        cases = {
            "a.csv": "csv",
            "a.basket": "basket",
            "a.parquet": "parquet",
            "a.pq": "parquet",
            "a.arrow": "arrow",
            "a.feather": "arrow",
            "a.ipc": "arrow",
        }
        for name, expected in cases.items():
            path = tmp_path / name
            path.write_bytes(b"x")
            assert detect_format(path) == expected, name

    def test_magic_bytes_beat_extension(self, tmp_path):
        parquet = tmp_path / "mislabelled.csv"
        parquet.write_bytes(b"PAR1rest-of-file")
        assert detect_format(parquet) == "parquet"
        arrow = tmp_path / "mislabelled.basket"
        arrow.write_bytes(b"ARROW1\x00\x00rest")
        assert detect_format(arrow) == "arrow"

    def test_unknown_extension_defaults_to_basket(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("1: a b\n")
        assert detect_format(path) == "basket"

    def test_available_formats_lists_auto_first(self):
        formats = available_formats()
        assert formats[0] == "auto"
        assert {"csv", "basket", "parquet", "arrow"} <= set(formats)


class TestOpenChunkSource:
    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("trans_id,item\n")
        with pytest.raises(InvalidConfigError, match="unknown input format"):
            open_chunk_source(path, input_format="xml")

    def test_bad_chunk_rows_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("trans_id,item\n")
        for bad in (0, -1, True, 2.5):
            with pytest.raises(InvalidConfigError, match="chunk_rows"):
                open_chunk_source(path, chunk_rows=bad)

    def test_auto_dispatches_by_extension(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("trans_id,item\n1,a\n")
        source = open_chunk_source(path)
        assert isinstance(source, CsvChunkSource)


class TestCsvChunkSource:
    def test_rows_and_chunk_bounds(self, tmp_path):
        path = tmp_path / "sales.csv"
        path.write_text("trans_id,item\n1,a\n1,b\n2,a\n3,c\n")
        chunks = list(CsvChunkSource(path, chunk_rows=3))
        assert [len(c) for c in chunks] == [3, 1]
        assert chunks[0].trans_ids.tolist() == [1, 1, 2]
        assert chunks[0].items == ["a", "b", "a"]
        assert chunks[1].trans_ids.tolist() == [3]

    def test_integer_looking_items_become_ints(self, tmp_path):
        path = tmp_path / "sales.csv"
        path.write_text("trans_id,item\n1,7\n1,x\n")
        (chunk,) = CsvChunkSource(path)
        assert chunk.items == [7, "x"]

    def test_projection_skips_extra_columns(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text(
            "store,trans_id,notes,item\n"
            "s1,1,junkjunkjunk,a\n"
            "s2,1,junkjunkjunk,b\n"
        )
        source = CsvChunkSource(path)
        (chunk,) = source
        assert chunk.trans_ids.tolist() == [1, 1]
        assert chunk.items == ["a", "b"]
        stats = source.stats
        assert stats.columns_total == 4
        assert stats.columns_read == 2
        # Only the projected cells were decoded; reading is whole-file.
        assert stats.bytes_read == stats.bytes_total
        assert 0 < stats.bytes_decoded < stats.bytes_total
        assert stats.bytes_decoded_reduction > 0.3
        assert stats.bytes_read_reduction == 0.0

    def test_bytes_decoded_counts_utf8_bytes_and_crlf(self, tmp_path):
        path = tmp_path / "sales.csv"
        path.write_bytes(
            "trans_id,item\r\n1,café\r\n1,thé\r\n2,café\r\n".encode()
        )
        source = CsvChunkSource(path)
        list(source)
        stats = source.stats
        # Two projected columns cover every byte but the 15-byte
        # header, multi-byte labels and CRLF terminators included.
        assert stats.bytes_total == 41
        assert stats.bytes_decoded == 26
        assert stats.bytes_decoded_reduction == pytest.approx(15 / 41)

    def test_bytes_decoded_agrees_across_decode_paths(self, tmp_path):
        # "1_0" is a token only Python's int() accepts, so that file is
        # decoded by the stdlib reader; "010" takes the numpy path.
        # Same bytes, same projection, same count.
        counts = []
        for tid in ("010", "1_0"):
            path = tmp_path / f"wide-{tid}.csv"
            path.write_bytes(
                (
                    "store,trans_id,notes,item\r\n"
                    f"s1,{tid},crème,a\r\n\r\ns22,{tid},x,bé\r\n"
                ).encode()
            )
            source = CsvChunkSource(path)
            (chunk,) = source
            assert chunk.trans_ids.tolist() == [10, 10]
            assert chunk.items == ["a", "bé"]
            counts.append(source.stats.bytes_decoded)
        # Per row: trans_id + ',' + item + CRLF.
        assert counts == [(3 + 1 + 1 + 2) + (3 + 1 + 3 + 2)] * 2

    def test_missing_header_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            list(CsvChunkSource(path))

    def test_bad_trans_id_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("trans_id,item\nnope,a\n")
        with pytest.raises(ValueError, match=r":2.*bad trans_id"):
            list(CsvChunkSource(path))

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("trans_id,item\n1\n")
        with pytest.raises(ValueError, match="two columns"):
            list(CsvChunkSource(path))

    def test_reiterating_resets_stats(self, tmp_path):
        path = tmp_path / "sales.csv"
        path.write_text("trans_id,item\n1,a\n")
        source = CsvChunkSource(path)
        list(source)
        first = source.stats.rows
        list(source)
        assert source.stats.rows == first


class TestBasketChunkSource:
    def test_parser_yields_file_order_without_normalizing(self, tmp_path):
        path = tmp_path / "x.basket"
        path.write_text("2: b a b\n\n# comment\n1: c\n")
        pairs = list(iter_basket_transactions(path))
        assert pairs == [(2, ("b", "a", "b")), (1, ("c",))]

    def test_chunks_split_between_transactions(self, tmp_path):
        path = tmp_path / "x.basket"
        path.write_text("1: a b c\n2: d\n3: e f\n")
        chunks = list(BasketChunkSource(path, chunk_rows=2))
        # A transaction is never split: the first chunk overflows to 3.
        assert [c.trans_ids.tolist() for c in chunks] == [[1, 1, 1], [2, 3, 3]]

    def test_empty_transactions_surface_separately(self, tmp_path):
        path = tmp_path / "x.basket"
        path.write_text("1: a\n2:\n3: b\n")
        (chunk,) = BasketChunkSource(path)
        assert chunk.trans_ids.tolist() == [1, 3]
        assert chunk.empty_trans_ids == (2,)

    def test_malformed_line_errors(self, tmp_path):
        path = tmp_path / "x.basket"
        path.write_text("no separator here\n")
        with pytest.raises(ValueError, match="expected 'trans_id: items'"):
            list(iter_basket_transactions(path))
        path.write_text("x: a\n")
        with pytest.raises(ValueError, match="bad trans_id"):
            list(iter_basket_transactions(path))


class TestPyarrowGate:
    @pytest.mark.skipif(
        _pyarrow_available(), reason="pyarrow installed; gate not reachable"
    )
    def test_parquet_without_pyarrow_is_typed(self, tmp_path):
        path = tmp_path / "x.parquet"
        path.write_bytes(b"PAR1data")
        with pytest.raises(InvalidConfigError, match="pip install pyarrow"):
            open_chunk_source(path)

    @pytest.mark.skipif(
        _pyarrow_available(), reason="pyarrow installed; gate not reachable"
    )
    def test_arrow_without_pyarrow_is_typed(self, tmp_path):
        path = tmp_path / "x.arrow"
        path.write_bytes(b"ARROW1\x00\x00")
        with pytest.raises(InvalidConfigError, match="pyarrow"):
            open_chunk_source(path, input_format="arrow")

    def test_gate_message_even_with_pyarrow(self, monkeypatch, tmp_path):
        """The gate itself is testable regardless of the environment."""
        import repro.data.formats as formats

        monkeypatch.setattr(formats, "_pyarrow_module", None, raising=False)
        monkeypatch.setattr(
            formats,
            "_import_pyarrow",
            lambda: (_ for _ in ()).throw(ImportError("nope")),
        )
        with pytest.raises(InvalidConfigError, match="pip install pyarrow"):
            formats.require_pyarrow("parquet input")


@pytest.mark.skipif(
    not _pyarrow_available(), reason="pyarrow not installed"
)
class TestColumnarDecoders:
    """Exercised only when the optional pyarrow dependency is present."""

    def _table(self):
        import pyarrow as pa

        return pa.table(
            {
                "store": ["s1"] * 6,
                "trans_id": [1, 1, 2, 2, 3, 3],
                "notes": ["padding-" * 8] * 6,
                "item": ["a", "b", "a", "c", "b", "c"],
            }
        )

    def test_parquet_projection_reduces_bytes_read(self, tmp_path):
        import pyarrow.parquet as pq

        path = tmp_path / "sales.parquet"
        pq.write_table(self._table(), path)
        source = open_chunk_source(path, chunk_rows=4)
        chunks = list(source)
        assert sum(len(c) for c in chunks) == 6
        assert chunks[0].trans_ids[:2].tolist() == [1, 1]
        stats = source.stats
        assert stats.columns_read == 2
        assert stats.bytes_read < stats.bytes_total
        assert stats.bytes_read_reduction > 0.0

    def test_arrow_projection_reduces_bytes_read(self, tmp_path):
        import pyarrow as pa

        path = tmp_path / "sales.arrow"
        with pa.OSFile(str(path), "wb") as sink:
            with pa.ipc.new_file(sink, self._table().schema) as writer:
                writer.write_table(self._table())
        source = open_chunk_source(path, chunk_rows=4)
        chunks = list(source)
        assert sum(len(c) for c in chunks) == 6
        stats = source.stats
        assert stats.columns_read == 2
        assert stats.bytes_read < stats.bytes_total


class TestDecodeStats:
    def test_reductions_clamp_and_round_trip(self):
        stats = DecodeStats(format="csv", path="x")
        stats.bytes_total = 100
        stats.bytes_read = 60
        stats.bytes_decoded = 40
        assert stats.bytes_read_reduction == pytest.approx(0.4)
        assert stats.bytes_decoded_reduction == pytest.approx(0.6)
        doc = stats.as_dict()
        assert doc["bytes_read_reduction"] == pytest.approx(0.4)
        stats.bytes_total = 0
        assert stats.bytes_read_reduction == 0.0


class TestChunkSourceValidation:
    def test_base_class_validates_chunk_rows(self, tmp_path):
        path = tmp_path / "x.basket"
        path.write_text("1: a\n")
        with pytest.raises(InvalidConfigError):
            ChunkSource(path, chunk_rows=0)
