"""M14 horizontal stitch (``Photo_Stitch.py:124-132``) as an optional
per-document media-pair map.

The reference stitches the interactively captured front/back photos of
one bottle into a single side-by-side image before OCR. The batch-
engine analog: for every document with at least two media spans, pair
the first two in span order (front, back), fetch both payloads, and
stitch the decoded grayscale frames with matched heights. Expressed
Ray-Data-first: each doc row already holds all of its spans, so a plain
``map_batches`` over doc rows picks each doc's pair (small rows: ids +
refs only, no exchange), then an actor-pool stitch stage that holds the
media store handle fetches and decodes exactly its batch's payloads.
A pair with a missing or undecodable payload costs its own row, not
the block.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.imaging import stitch_horizontal
from ..pipelines.extract import autosize_pool
from ..sources.documents import read_documents
from ..sources.media import MediaStore
from ..synth import decode_payloads


def _column(t: pa.Table, name: str) -> pa.Array:
    col = t.column(name)
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


def first_two_media(docs: pa.Table) -> pa.Table:
    """(doc_id, ref_a, ref_b) of every doc row with at least two media
    spans: its first two media spans by offset, ties kept in span order
    (a stable sort)."""
    spans = _column(docs, "spans")
    flat = pc.list_flatten(spans)
    rows = pa.table({
        "parent": pc.list_parent_indices(spans),
        "offset": pc.struct_field(flat, "offset"),
        "media_ref": pc.struct_field(flat, "media_ref"),
    }).filter(pc.equal(pc.struct_field(flat, "kind"), "media"))
    rows = rows.take(pc.sort_indices(
        rows, [("parent", "ascending"), ("offset", "ascending")]))
    parent = rows.column("parent").to_numpy()
    # a doc's first media row is paired when the next row is its own
    first = np.flatnonzero(np.r_[True, parent[1:] != parent[:-1]])
    paired = first[first + 1 < len(parent)]
    paired = paired[parent[paired + 1] == parent[paired]]
    refs = _column(rows, "media_ref")
    return pa.table({
        "doc_id": _column(docs, "doc_id").take(parent[paired]),
        "ref_a": refs.take(paired),
        "ref_b": refs.take(paired + 1)})


class StitchPairs:
    """Actor-pool callable: one media-store handle per actor; each
    batch fetches its two payloads per row, decodes, stitches, and
    emits stitched dimensions + a content checksum."""

    def __init__(self, media_path: str):
        self.store = MediaStore(media_path)

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        payloads, at = self.store.fetch_column(pa.concat_arrays(
            [_column(batch, "ref_a"), _column(batch, "ref_b")]))
        dec = decode_payloads(payloads)
        at = pc.fill_null(at, -1).to_numpy().astype(np.int64)
        ok = np.zeros(2 * n, dtype=bool)
        ok[at >= 0] = dec.ok[at[at >= 0]]
        hs = np.zeros(n, dtype=np.int32)
        ws = np.zeros(n, dtype=np.int32)
        sums = [None] * n
        for i in np.flatnonzero(ok[:n] & ok[n:]).tolist():
            stitched = stitch_horizontal(dec.gray(at[i]), dec.gray(at[n + i]))
            hs[i], ws[i] = stitched.shape
            sums[i] = hashlib.md5(stitched.tobytes()).hexdigest()[:16]
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "stitched_h": pa.array(hs, pa.int32()),
            "stitched_w": pa.array(ws, pa.int32()),
            "checksum": pa.array(sums, pa.string())})


def build_stitch_pipeline(corpus_dir: str):
    """Lazy Dataset of (doc_id, stitched_h, stitched_w, checksum), one
    row per document with >= 2 media spans."""
    import ray

    from .._rayprep import ensure_serializable
    ensure_serializable()
    media_path = os.path.join(corpus_dir, "media")
    docs = read_documents(corpus_dir, columns=["doc_id", "spans"])
    pairs = docs.map_batches(first_two_media, batch_format="pyarrow")

    total_cpus = int(ray.cluster_resources().get("CPU", 4)) \
        if ray.is_initialized() else 4
    return pairs.map_batches(
        StitchPairs,
        fn_constructor_kwargs=dict(media_path=media_path),
        batch_format="pyarrow", batch_size=256,
        # cap below the cluster width so the upstream read tasks
        # keep a schedulable CPU (2-cpu-session deadlock guard;
        # same policy as the media stage)
        concurrency=autosize_pool(total_cpus))
