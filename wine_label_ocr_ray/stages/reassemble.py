"""Span reassembly + record assembly: span rows -> one record per doc.

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

One column-wise kernel (``_records``) builds every record field as an
Arrow column: one stable ``pc.sort_indices`` over (record, offset,
kind, media_ref or "") — Arrow compares UTF-8 bytes, i.e. Python's
code-point order — a zero-copy ``ListArray`` of the sorted spans, and
numpy "first row per record where a mask holds" picks for vintage,
barcode and blob (on doc rows the media stage computed only the blob
this pick lands on). The media merge is column operations too: the
first longest maker by a numpy pick, the raw entries by one stable
regroup on (record, the bucket's first appearance), and the mean
confidence summed left to right per record. Python runs only
``normalize_maker`` once per distinct maker text,
``extract_best_maker_from_raw`` for records whose normalized maker is
empty, and custom_id/key/record_id/valid (sha1) once per distinct
(maker_norm, vintage) pair.

The flagship plan carries one row per doc (stages/spans.py), so
``assemble_docs`` sees whole docs and needs no exchange;
``assemble_bucket`` and ``add_bucket`` keep the span-row shuffle
contract for the perfbench replay (``perfbench/replay.py``), their
one caller outside the tests; no package pipeline uses them.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import text as T
from ..schema import BLOB_STRUCT, OUT_SPAN_STRUCT, RECORD_SCHEMA
from .bucketing import hash_mod
from .media import per_text, first_longest, segment_sums
from .spans import SPAN_ROW_SCHEMA, one_array, replace_rows, span_rows_of

# Sentinel for documents with no media span (reference records carry
# BlobData = {} when the blob leg never ran, WineTracker.py:28).
EMPTY_BLOB = {"roi_shape": [0, 0], "blob_count": 0,
              "blob_fingerprint": "", "blobs": []}


def _raw_map(entries: List[Dict]) -> Dict:
    """A record's merged RAW entries -> the reference's candidate map
    (what ``raw_to_entries`` flattened)."""
    raw: Dict = {}
    for e in entries:
        if e["conf"] is None:
            raw[e["bucket"]] = e["text"]
        else:
            raw.setdefault(e["bucket"], []).append((e["text"], e["conf"]))
    return raw


def _key_fields(maker_norm: str, vintage_str: str):
    """custom_id, maker_name, vintage, record_id, valid of one key."""
    vintage = T.to_int_year(vintage_str)
    return (T.custom_id(maker_norm or None, vintage), maker_norm or None,
            vintage, T.hash_id(maker_norm, vintage_str),
            bool(maker_norm or vintage_str))


def _records(rows: pa.Table, rec: np.ndarray, doc_id: pa.Array) -> pa.Table:
    """The column-wise kernel: span rows, the record index of each row
    and one ``doc_id`` per record (every record has a row) ->
    RECORD_SCHEMA records in record order."""
    n = len(doc_id)
    col = {f.name: one_array(rows.column(f.name)) for f in SPAN_ROW_SCHEMA}
    media_ref = pc.fill_null(col["media_ref"], "")
    order = pc.sort_indices(
        pa.table({"r": rec, "o": col["offset"], "k": col["kind"],
                  "m": media_ref}),
        sort_keys=[(c, "ascending") for c in "rokm"]).to_numpy().astype(
            np.int64)
    s_rec = rec[order]
    is_kind = {k: pc.equal(col["kind"], k) for k in ("media", "text")}

    def sorted_pos(where):  # sorted positions where an Arrow mask holds
        return np.flatnonzero(pc.fill_null(where, False).to_numpy(
            zero_copy_only=False)[order])

    def pick(arr, where, default=-1):  # arr at each record's first row
        # where the mask holds, else at row ``default`` (-1: null)
        pos = sorted_pos(where)
        pos = pos[np.diff(s_rec[pos], prepend=-1) != 0]
        idx = np.full(n, default, dtype=np.int64)
        idx[s_rec[pos]] = order[pos]
        return pc.take(arr, pa.array(idx, mask=idx < 0))

    def nonempty(name, kind):
        return pc.and_(is_kind[kind],
                       pc.greater(pc.binary_length(col[name]), 0))

    spans = pa.ListArray.from_arrays(
        np.r_[0, np.cumsum(np.bincount(rec, minlength=n))].astype(np.int32),
        pa.StructArray.from_arrays(
            [pc.take(col["kind"], order),
             pc.take(pc.fill_null(col["span_text"], ""), order),
             pc.take(media_ref, order), pc.take(col["offset"], order)],
            fields=list(OUT_SPAN_STRUCT)))
    vintage_str = pc.coalesce(
        pick(col["vintage_str"], nonempty("vintage_str", "media")),
        pick(col["text_year"], nonempty("text_year", "text")))
    barcode = pick(col["barcode"], nonempty("barcode", "media"))
    blob = pick(pa.concat_arrays([col["blob"],
                                  pa.array([EMPTY_BLOB], BLOB_STRUCT)]),
                pc.and_(is_kind["media"], col["blob"].is_valid()),
                default=len(col["blob"]))

    # maker: the first of each record's longest media makers, normalized
    # once per distinct text
    m_pos = sorted_pos(is_kind["media"])
    m_rec = s_rec[m_pos]
    maker_norm = pc.fill_null(per_text(T.normalize_maker, first_longest(
        pc.take(col["maker_name"], order[m_pos]), m_rec, n)), "")

    # raw: the media rows' entries in sorted order, regrouped per record
    # by each bucket's first appearance (the candidate map's insertion
    # order); a bucket keeps its list entries or, where its first entry
    # is a bare string (NULL conf), that entry alone: setdefault-merge
    raw_m = pc.take(col["raw"], order[m_pos])
    entries = raw_m.flatten()
    e_rec = m_rec[pc.list_parent_indices(raw_m).to_numpy()]
    bucket = pc.dictionary_encode(pc.struct_field(entries, "bucket"),
                                  null_encoding="encode").indices.to_numpy()
    _, first, inverse = np.unique(e_rec * (bucket.max(initial=0) + 1)
                                  + bucket, return_index=True,
                                  return_inverse=True)
    first = first[inverse]
    conf = pc.struct_field(entries, "conf")
    bare = pc.is_null(conf).to_numpy(zero_copy_only=False)
    keep = (first == np.arange(len(first))) | ~(bare | bare[first])
    merged = np.argsort(first, kind="stable")
    merged = merged[keep[merged]]
    lengths = np.bincount(e_rec[merged], minlength=n)
    raw = pa.ListArray.from_arrays(
        np.r_[0, np.cumsum(lengths)].astype(np.int32), entries.take(merged))

    # mean_ocr_conf: the merged list entries' confs summed in that order
    listed = merged[~bare[merged]]
    count = np.bincount(e_rec[listed], minlength=n)
    mean_conf = np.zeros(n)
    np.divide(segment_sums(conf.to_numpy(zero_copy_only=False)[listed],
                           np.cumsum(count) - count, count),
              count, out=mean_conf, where=count > 0)

    # no media maker: the longest candidate over the merged raw buckets
    redo = np.flatnonzero((pc.binary_length(maker_norm).to_numpy() == 0)
                          & (lengths > 0))
    if len(redo):
        maker_norm = replace_rows(maker_norm, redo, pa.array(
            [T.extract_best_maker_from_raw(_raw_map(e))
             for e in raw.take(redo).to_pylist()], pa.string()))

    # key = canonical_key as one Arrow column (maker_norm never holds a
    # "|"); the other key fields in Python once per distinct key
    key = pc.binary_join_element_wise(maker_norm,
                                      pc.fill_null(vintage_str, ""), "|")
    keys = pc.dictionary_encode(key)
    per_key = [_key_fields(*k.split("|", 1))
               for k in keys.dictionary.to_pylist()]
    out = {f: pc.take(pa.array([p[i] for p in per_key],
                               RECORD_SCHEMA.field(f).type), keys.indices)
           for i, f in enumerate(("custom_id", "maker_name", "vintage",
                                  "record_id", "valid"))}
    out.update(doc_id=doc_id, spans=spans, maker_norm=maker_norm, key=key,
               barcode=barcode, mean_ocr_conf=pa.array(mean_conf),
               blob=blob, raw=raw)
    return pa.Table.from_pydict(out, schema=RECORD_SCHEMA)


def add_bucket(batch: pa.Table, num_buckets: int) -> pa.Table:
    """Deterministic doc bucket for a span-row reassembly shuffle
    (the shared ``bucketing.hash_mod``; bucket values are internal to
    the shuffle and dropped at assembly)."""
    return batch.append_column(
        "bucket", hash_mod(batch.column("doc_id"), num_buckets))


def assemble_bucket(group: pa.Table) -> pa.Table:
    """Span rows -> records: one record per ``doc_id``, in order of each
    doc's first span row (the spans of a doc may interleave with other
    docs' rows). No-media docs get the EMPTY_BLOB sentinel: parquet
    cannot write null structs with list children."""
    ids = pc.dictionary_encode(group.column("doc_id").combine_chunks(),
                               null_encoding="encode")
    return _records(group, ids.indices.to_numpy(), ids.dictionary)


def assemble_docs(docs: pa.Table) -> pa.Table:
    """Doc rows -> RECORD_SCHEMA records, one per doc row with at least
    one span, in input order (doc rows sharing a ``doc_id`` stay
    separate records). Columns other than ``doc_id`` and ``spans`` (the
    source ``path`` of a checkpointed run) ride along."""
    lengths = pc.fill_null(pc.list_value_length(
        one_array(docs.column("spans"))), 0).to_numpy()
    keep = lengths > 0
    kept = docs.drop_columns(["spans"]).filter(pa.array(keep))
    records = _records(span_rows_of(docs), np.repeat(np.cumsum(keep) - 1,
                                                     lengths),
                       one_array(kept.column("doc_id")))
    ride = kept.drop_columns(["doc_id"])
    return pa.Table.from_arrays(records.columns + ride.columns,
                                records.column_names + ride.column_names)
