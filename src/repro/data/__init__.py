"""Data sets: the paper's example, calibrated retail data, Quest
workloads, the hypothetical analysis database, file I/O, and the
chunked decode-and-encode layer (:mod:`repro.data.ingest` /
:mod:`repro.data.formats`).

Public names resolve on first access (PEP 562): loading a file does not
import the data generators, and generating data does not import numpy.
"""

from repro import _lazy_exports

#: Public name -> the module defining it.
_EXPORTS = {
    "PAPER_C2_RULE_LINES": "repro.data.example",
    "PAPER_C3_RULE_LINES": "repro.data.example",
    "PAPER_EXAMPLE_TRANSACTIONS": "repro.data.example",
    "PAPER_MINIMUM_CONFIDENCE": "repro.data.example",
    "PAPER_MINIMUM_SUPPORT": "repro.data.example",
    "paper_example_database": "repro.data.example",
    "PAPER_HYPOTHETICAL": "repro.data.hypothetical",
    "HypotheticalConfig": "repro.data.hypothetical",
    "generate_hypothetical_database": "repro.data.hypothetical",
    "ChunkSource": "repro.data.formats",
    "ColumnChunk": "repro.data.formats",
    "DecodeStats": "repro.data.formats",
    "available_formats": "repro.data.formats",
    "detect_format": "repro.data.formats",
    "open_chunk_source": "repro.data.formats",
    "EncodedDataset": "repro.data.ingest",
    "IngestStats": "repro.data.ingest",
    "load_dataset": "repro.data.ingest",
    "stream_encode": "repro.data.ingest",
    "read_basket_file": "repro.data.io",
    "read_sales_csv": "repro.data.io",
    "write_basket_file": "repro.data.io",
    "write_sales_csv": "repro.data.io",
    "QuestConfig": "repro.data.quest",
    "generate_quest_dataset": "repro.data.quest",
    "t5_i2_d10k": "repro.data.quest",
    "t10_i4_d10k": "repro.data.quest",
    "t10_i4_d100k": "repro.data.quest",
    "PAPER_NUM_ITEMS": "repro.data.retail",
    "PAPER_NUM_SALES_ROWS": "repro.data.retail",
    "PAPER_NUM_TRANSACTIONS": "repro.data.retail",
    "RetailConfig": "repro.data.retail",
    "generate_retail_dataset": "repro.data.retail",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
