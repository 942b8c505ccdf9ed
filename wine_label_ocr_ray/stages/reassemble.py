"""Span reassembly + record assembly: doc rows -> one record per doc.

Re-stitches extracted span rows into per-document ordered span
sequences (north-rule invariant: ``(kind, text, media_ref, order)``
sorted by ``offset`` with total tie-break ``(offset, kind,
media_ref)``), then assembles the reference's record
(``WineTracker.py:23-29`` / ``scan_and_store.py:166-184``).

Doc-level merge semantics (the reference processes one image per
record; a document may hold many media spans — merge order is offset
order, documented here and mirrored by the oracle):

- maker: per-span best maker merged with the crop-level longest-wins
  update rule (``final_run_ocr.py:321-324``); if the normalized result
  is empty, fall back to the longest candidate over the OFFSET-ORDER
  merged raw buckets (``final_run_ocr.py:430-433``).
- vintage: first media span (by offset) with a vintage (each span
  already applied YOLO-overwrite + maker-region backup + fallback
  sweep internally); else first text span whose M3 regex hit.
- barcode / blob: first media span (by offset) carrying one.
- custom_id uses the INT vintage (``final_run_ocr.py:435-436``), the
  canonical key uses the STRING vintage (``scan_and_store.py:46-47``).
- valid: the empty-key guard (``scan_and_store.py:198-209``).

The flagship plan carries one row per document from the read onward
(stages/spans.py), so every span of a doc reaches ``assemble_docs`` in
the same batch and no exchange is needed. ``assemble_bucket`` keeps
the span-row contract (all spans of each doc in one table), and
``add_bucket`` the doc-hash bucket that groups the spans of a doc in
a span-per-row shuffle (stages/stitch.py).
"""

from __future__ import annotations

from typing import Dict, List

import pyarrow as pa

from ..functions import text as T
from ..schema import BLOB_STRUCT, RECORD_SCHEMA
from .bucketing import hash_mod
from .media import raw_to_entries
from .spans import span_rows_of

# Sentinel for documents with no media span (reference records carry
# BlobData = {} when the blob leg never ran, WineTracker.py:28).
EMPTY_BLOB = {"roi_shape": [0, 0], "blob_count": 0,
              "blob_fingerprint": "", "blobs": []}


def _merge_raw(raw_lists: List[List[Dict]]) -> Dict[str, List]:
    """Typed RAW entry lists (stages.spans.RAW_TYPE) -> the reference's
    candidate map. Entry order is the original dict insertion order, so
    setdefault-merge reproduces the per-image map merge exactly; a NULL
    conf marks a bare-string bucket value (vintage_from_fallback)."""
    merged: Dict[str, List] = {}
    for entries in raw_lists:
        if not entries:
            continue
        for e in entries:
            if e["conf"] is None:  # bare string bucket
                merged.setdefault(e["bucket"], e["text"])
            else:
                merged.setdefault(e["bucket"], []).append(
                    (e["text"], e["conf"]))
    return merged


def _doc_fields(rows: List[Dict]):
    """Everything of the per-doc merge EXCEPT the blob pick: returns
    (record dict without 'blob', media rows in offset order).
    ``assemble_bucket`` picks the blob from the Arrow column itself."""
    rows = sorted(rows, key=lambda r: (r["offset"], r["kind"],
                                       r["media_ref"] or ""))
    spans_out = [{"kind": r["kind"], "text": r["span_text"] or "",
                  "media_ref": r["media_ref"] or "", "order": r["offset"]}
                 for r in rows]
    media_rows = [r for r in rows if r["kind"] == "media"]

    maker_raw = None
    for r in media_rows:
        m = r["maker_name"]
        if m and len(m) >= 2 and (not maker_raw or len(m) > len(maker_raw)):
            maker_raw = m
    merged_raw = _merge_raw([r["raw"] for r in media_rows])
    maker_norm = T.normalize_maker(maker_raw) if maker_raw else ""
    if not maker_norm:
        maker_norm = T.extract_best_maker_from_raw(merged_raw)
    maker_out = maker_norm or None

    vintage_str = next((r["vintage_str"] for r in media_rows
                        if r["vintage_str"]), None)
    if vintage_str is None:
        vintage_str = next((r["text_year"] for r in rows
                            if r["kind"] == "text" and r["text_year"]), None)
    vintage_int = T.to_int_year(vintage_str)

    barcode = next((r["barcode"] for r in media_rows if r["barcode"]), None)

    confs = [c for arr in merged_raw.values() if isinstance(arr, list)
             for (_t, c) in arr]
    key = T.canonical_key(maker_norm, vintage_str)
    return {
        "mean_ocr_conf": (sum(confs) / len(confs)) if confs else 0.0,
        "doc_id": rows[0]["doc_id"],
        "spans": spans_out,
        "custom_id": T.custom_id(maker_out, vintage_int),
        "maker_name": maker_out,
        "maker_norm": maker_norm,
        "vintage": vintage_int,
        "barcode": barcode,
        "key": key,
        "record_id": T.hash_id(maker_norm, vintage_str),
        "valid": not (key == "|" or (not maker_norm and not vintage_str)),
        "raw": raw_to_entries(merged_raw),
    }, media_rows


def add_bucket(batch: pa.Table, num_buckets: int) -> pa.Table:
    """Deterministic doc bucket for a span-row reassembly shuffle
    (the shared ``bucketing.hash_mod``; bucket values are internal to
    the shuffle and dropped at assembly)."""
    return batch.append_column(
        "bucket", hash_mod(batch.column("doc_id"), num_buckets))


# RECORD_SCHEMA minus the blob column: assemble_bucket builds records
# without blobs, then splices the blob COLUMN in as Arrow (below)
_SCHEMA_NO_BLOB = pa.schema([f for f in RECORD_SCHEMA
                             if f.name != "blob"])


def assemble_bucket(group: pa.Table) -> pa.Table:
    """Span rows -> records: assembles EVERY doc in the table in one
    call (one to_pylist + one from_pylist instead of per-doc table
    slicing — amortizes the per-group overhead ~300x), in order of each
    doc's first span row.

    The blob column never touches Python: ``to_pylist`` of a
    list<struct> blob (up to ~130 x 10-field dicts PER ROW) costs ~3x
    the whole assembly (measured, /tmp/assemble_micro A/B r4-vs-r5),
    and each doc keeps only its FIRST media blob anyway — so rows are
    materialized without it, the per-doc pick is just a row index
    against an Arrow validity bitmap, and the output blob column is
    one zero-copy ``pc.take`` (no-media docs point at an appended
    EMPTY_BLOB sentinel: parquet cannot write null structs with list
    children).
    """
    import pyarrow.compute as pc

    blob_col = group.column("blob")
    if isinstance(blob_col, pa.ChunkedArray):
        blob_col = blob_col.combine_chunks()
    blob_ok = blob_col.is_valid().to_numpy(zero_copy_only=False)
    rows = group.drop_columns(["blob"]).to_pylist()
    for pos, r in enumerate(rows):
        r["_pos"] = pos
    by_doc: dict = {}
    for r in rows:
        by_doc.setdefault(r["doc_id"], []).append(r)

    records, blob_idx = [], []
    empty_pos = len(blob_col)  # appended sentinel below
    for doc_rows in by_doc.values():
        rec, media_rows = _doc_fields(doc_rows)
        pos = next((r["_pos"] for r in media_rows if blob_ok[r["_pos"]]),
                   empty_pos)
        blob_idx.append(pos)
        records.append(rec)

    out = pa.Table.from_pylist(records, schema=_SCHEMA_NO_BLOB)
    blobs = pa.concat_arrays(
        [blob_col, pa.array([EMPTY_BLOB], type=BLOB_STRUCT)])
    out = out.append_column("blob", pc.take(blobs, pa.array(blob_idx,
                                                            pa.int64())))
    return out.select(RECORD_SCHEMA.names)


def assemble_docs(docs: pa.Table) -> pa.Table:
    """Doc rows -> RECORD_SCHEMA records in input-doc order (a doc
    without spans makes no record). Columns other than ``doc_id`` and
    ``spans`` (the source ``path`` of a checkpointed run) ride along."""
    import pyarrow.compute as pc

    records = assemble_bucket(span_rows_of(docs))
    extra = [n for n in docs.column_names if n not in ("doc_id", "spans")]
    if extra:
        has_spans = pc.greater(pc.list_value_length(docs.column("spans")), 0)
        for name in extra:
            records = records.append_column(
                name, docs.column(name).filter(has_spans))
    return records
