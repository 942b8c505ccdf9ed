"""Stateless span stages: explode documents into span rows, run the
vectorized text-span extractors, and nest span rows back under their
documents.

Design note (single-pass routing): Ray Data datasets are lazy plans —
filtering one exploded dataset twice (text branch / media branch) would
re-execute the read+explode per branch. Instead every stage sees all
span rows; each stage transforms the rows of its kind and passes the
others through untouched. At cluster scale that keeps the input
single-read and lets the streaming executor pipeline the stages
(SURVEY.md section 7.2).

Design note (doc rows): between stages the flagship plan carries ONE
row per document, its span rows nested as a list of
``SPAN_ROW_FIELDS`` structs (``nest_spans``). Every batch boundary is then a document boundary, so
the per-doc reassembly needs no exchange: each stage flattens its
batch (``span_rows_of``), runs the span-row function and re-nests.
"""

from __future__ import annotations

import re
from typing import List

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import text as T
from ..schema import BLOB_STRUCT, RAW_TYPE

# Intermediate span-row schema shared by the text and media stages.
# raw + blob are TYPED Arrow columns carried between the stages
# (features only, never pixels — SURVEY.md section 4.2 "never shuffle
# wide rows"); no JSON serialize/parse anywhere on the flagship path.
#
# raw = the reference's ocr_raw candidate map in schema.RAW_TYPE's
# list-of-struct-with-bucket form (see schema.py for the encoding).
SPAN_ROW_FIELDS = [
    ("doc_id", pa.string()),
    ("offset", pa.int32()),
    ("kind", pa.string()),
    ("media_ref", pa.string()),
    ("span_text", pa.string()),
    ("text_year", pa.string()),
    ("maker_name", pa.string()),
    ("raw", RAW_TYPE),
    ("vintage_str", pa.string()),
    ("vintage_by_yolo", pa.bool_()),
    ("barcode", pa.string()),
    ("blob", BLOB_STRUCT),
]
SPAN_ROW_SCHEMA = pa.schema(SPAN_ROW_FIELDS)

_HAS_4_DIGITS = re.compile(r"\d{4}")


def explode_spans(batch: pa.Table) -> pa.Table:
    """documents (doc_id, spans) -> one row per span, zero-copy Arrow
    list flatten + parent-index take."""
    spans = batch.column("spans")
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    flat = pc.list_flatten(spans)
    parent = pc.list_parent_indices(spans)
    doc_id_col = batch.column("doc_id")
    if isinstance(doc_id_col, pa.ChunkedArray):
        doc_id_col = doc_id_col.combine_chunks()
    doc_id = pc.take(doc_id_col, parent)
    n = len(flat)
    nulls = pa.nulls(n, pa.string())
    return pa.table({
        "doc_id": doc_id,
        "offset": pc.struct_field(flat, "offset"),
        "kind": pc.struct_field(flat, "kind"),
        "media_ref": pc.struct_field(flat, "media_ref"),
        "span_text": pc.struct_field(flat, "text"),
        "text_year": nulls,
        "maker_name": nulls,
        "raw": pa.nulls(n, RAW_TYPE),
        "vintage_str": nulls,
        "vintage_by_yolo": pa.array(np.zeros(n, dtype=bool)),
        "barcode": nulls,
        "blob": pa.nulls(n, BLOB_STRUCT),
    }, schema=SPAN_ROW_SCHEMA)


def _strip_markup_vec(arr: pa.Array) -> pa.Array:
    """Vectorized twin of functions.text.strip_markup (same tag regex,
    same sequential entity order, same whitespace collapse)."""
    out = pc.replace_substring_regex(arr, pattern=r"<[^>]{0,128}>",
                                     replacement=" ")
    for src, dst in T.ENTITY_ORDER:
        out = pc.replace_substring(out, pattern=src, replacement=dst)
    out = pc.replace_substring_regex(out, pattern=r"\s+", replacement=" ")
    return pc.utf8_trim_whitespace(out)


def extract_text_spans(batch: pa.Table) -> pa.Table:
    """Text-span extractors (vectorized): main-content strip + vintage
    regex (M3). Media rows pass through untouched.

    The M3 chain (``final_run_ocr.py:153-185``) has ordered-pattern +
    tokenized-fallback semantics that a single RE2 kernel cannot
    reproduce exactly, so the kernel only *prefilters*: rows without 4
    consecutive digits are nulled vectorized (the common case), the few
    candidate rows run the exact scalar chain.
    """
    is_text = pc.equal(batch.column("kind"), "text")
    raw = batch.column("span_text")
    cleaned = _strip_markup_vec(raw if isinstance(raw, pa.Array)
                                else raw.combine_chunks())
    span_text = pc.if_else(is_text, cleaned, raw)

    has_digits = pc.match_substring_regex(cleaned, r"\d{4}")
    candidate_mask = pc.and_(is_text, has_digits)
    cand = np.flatnonzero(candidate_mask.to_numpy(zero_copy_only=False))
    years: List = [None] * len(batch)
    for i, text in zip(cand.tolist(),
                       cleaned.take(pa.array(cand)).to_pylist()):
        years[i] = T.extract_year_from_text(text)
    return batch.set_column(
        batch.schema.get_field_index("span_text"), "span_text", span_text
    ).set_column(
        batch.schema.get_field_index("text_year"), "text_year",
        pa.array(years, pa.string()))


def span_rows_of(docs: pa.Table) -> pa.Table:
    """Doc rows (``spans``: list of ``SPAN_ROW_FIELDS`` structs) ->
    their span rows in doc order, zero-copy."""
    spans = docs.column("spans").combine_chunks()
    return pa.Table.from_struct_array(spans.flatten())


def nest_spans(docs: pa.Table, rows: pa.Table) -> pa.Table:
    """Replaces the ``spans`` column of ``docs`` with ``rows`` (span rows
    in doc order, one per element of each doc's list) nested one list
    per doc; every other column rides along untouched."""
    spans = docs.column("spans").combine_chunks()
    lengths = pc.fill_null(pc.list_value_length(spans), 0).to_numpy()
    offsets = np.zeros(len(lengths) + 1, dtype=np.int32)
    np.cumsum(lengths, out=offsets[1:])
    values = pa.StructArray.from_arrays(
        [rows.column(f.name).combine_chunks() for f in SPAN_ROW_SCHEMA],
        fields=list(SPAN_ROW_SCHEMA))
    return docs.set_column(docs.schema.get_field_index("spans"), "spans",
                           pa.ListArray.from_arrays(pa.array(offsets),
                                                    values))


def text_doc_rows(docs: pa.Table) -> pa.Table:
    """Read-side stage of the flagship plan: documents -> doc rows whose
    span rows went through ``explode_spans`` and ``extract_text_spans``."""
    return nest_spans(docs, extract_text_spans(explode_spans(docs)))
